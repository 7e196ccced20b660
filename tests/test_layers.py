"""Module layering: each module of the package imports only modules of a
lower layer, function-level (lazy) imports included.

    algebra, kgrid  <  state  <  dynamics, observables, fieldbridge, stateio  <  suites  <  cli

So `dpl evolve`, which needs only dynamics, loads no observables, and a
module can be read knowing only the layers below it.

The sqrt(2) block scale of a payload, psi = (f_u, f_l)/sqrt(2), lives in
`state`, which synthesizes psi, and `fieldbridge`, which relates it to the
classical fields; every other route reads the stored blocks and applies a
constant factor once, to its result.  `algebra` also calls sqrt(2), for
unit polarization vectors.  No other module calls it.
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
SQRT2_MODULES = {"state", "fieldbridge", "algebra"}


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


def sqrt2_calls(source: str):
    """The lines of a module's sqrt(2...) calls: a call of a function named
    sqrt whose argument starts with the literal 2, as sqrt(2.0 / pi) does."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        arg = node.args[0]
        while isinstance(arg, ast.BinOp):
            arg = arg.left
        if name == "sqrt" and isinstance(arg, ast.Constant) and arg.value == 2:
            yield node.lineno


def test_the_block_scale_lives_in_state_and_fieldbridge():
    found = [f"{name}.py:{line}" for name in sorted(set(LAYERS) - SQRT2_MODULES)
             for line in sqrt2_calls((PACKAGE / f"{name}.py").read_text())]
    assert found == []


def test_the_walk_sees_every_sqrt2_call_form():
    source = ("a = np.sqrt(2.0) * f\n"
              "b = math.sqrt(2)\n"
              "c = np.sqrt(2.0 / np.pi) / r**2\n"
              "d = np.sqrt(3.0), np.sqrt(x * 2.0), sqrt2\n"
              "def f():\n"
              "    return sqrt(2 * k)\n")
    assert sorted(sqrt2_calls(source)) == [1, 2, 3, 6]
