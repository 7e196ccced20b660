"""Module layering: each module of the package imports only modules of a
lower layer, function-level (lazy) imports included.

    algebra, kgrid  <  state  <  dynamics, observables, fieldbridge, stateio  <  suites  <  cli

So `dpl evolve`, which needs only dynamics, loads no observables, and a
module can be read knowing only the layers below it.
"""

import ast
from pathlib import Path

import darwinlab

LAYERS = {
    "algebra": 0, "kgrid": 0,
    "state": 1,
    "dynamics": 2, "observables": 2, "fieldbridge": 2, "stateio": 2,
    "suites": 3,
    "cli": 4,
}
PACKAGE = Path(darwinlab.__file__).parent


def package_imports(source: str):
    """The package modules that a module's import statements name, wherever
    the statement stands."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "darwinlab" and len(parts) > 1:
                    yield parts[1]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "darwinlab":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                yield parts[0]  # from .kgrid import x, or from darwinlab.kgrid import x
            else:
                yield from (alias.name for alias in node.names)  # from . import kgrid


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    violations = []
    for name, layer in LAYERS.items():
        for imported in package_imports((PACKAGE / f"{name}.py").read_text()):
            if LAYERS[imported] >= layer:
                violations.append(f"{name} -> {imported}")
    assert violations == []


def test_the_walk_sees_every_import_form():
    source = ("from . import kgrid\n"
              "from .state import PhotonState\n"
              "def f():\n"
              "    from darwinlab import suites\n"
              "    import darwinlab.cli\n"
              "    from darwinlab.observables import probability\n"
              "    import numpy\n")
    assert list(package_imports(source)) == ["kgrid", "state", "suites", "cli", "observables"]
