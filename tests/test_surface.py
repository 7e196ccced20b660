"""The public surface of ``src/`` is what ``dpl`` runs.

Every public function, class, method and property under ``src/darwinlab``
must be reachable from ``cli.main``.  A route that only tests use belongs in
``tests/reference.py``; code that nothing uses is deleted.  Likewise every
field of a report dataclass must be read by some code under ``src/``: a
report carries only what ``dpl`` prints or a suite row reads.
"""

import ast
from pathlib import Path

import darwinlab

SRC = Path(darwinlab.__file__).parent

# name -> why it stays under src/ although dpl never reaches it
ALLOWED_UNREACHED = {
    "spectral_curl": "perfbench/tests inspects kgrid.spectral_curl and its dynamics re-export",
}


def _definitions():
    """(module, qualified name, node) of every function, class, method and
    module constant; a constant is reached through its name, and its value
    may call code."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                yield module, node.name, node
            elif isinstance(node, ast.ClassDef):
                yield module, node.name, node
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield module, f"{node.name}.{item.name}", item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield module, target.id, node


def _used_names(node):
    """Names and attribute names that `node` uses.

    Imports are not a use, and annotations name types but run nothing.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(current, ast.Name):
            yield current.id
        elif isinstance(current, ast.Attribute):
            yield current.attr
        for field, value in ast.iter_fields(current):
            if field in ("annotation", "returns"):
                continue
            stack.extend(v for v in (value if isinstance(value, list) else [value])
                         if isinstance(v, ast.AST))


def reached_definitions():
    """(module, qualified name) of every definition reached from cli.main.

    A definition is matched by its bare name, so a name used anywhere in
    reached code reaches every definition of that name: the walk errs toward
    reaching too much.  Two definitions that share a name (a method on two
    classes, say) are therefore only as reached as the more used of them.
    """
    defs = list(_definitions())
    by_name: dict[str, list] = {}
    for definition in defs:
        by_name.setdefault(definition[1].split(".")[-1], []).append(definition)
    reached = set()
    todo = [d for d in by_name["main"] if d[0] == "cli"]
    while todo:
        module, qualname, node = todo.pop()
        if (module, qualname) in reached:
            continue
        reached.add((module, qualname))
        if isinstance(node, ast.ClassDef):
            # building the class runs its decorators, its class-level
            # statements (dataclass defaults) and its dunder methods
            todo.extend(d for d in defs if d[0] == module and d[1].startswith(qualname + ".__"))
            parts = [*node.decorator_list,
                     *(item for item in node.body if not isinstance(item, ast.FunctionDef))]
            names = {name for part in parts for name in _used_names(part)}
        else:
            names = set(_used_names(node))
        for name in names:
            todo.extend(by_name.get(name, ()))
    return reached


def test_every_public_definition_is_reached_from_dpl():
    reached = reached_definitions()
    unreached = sorted(
        f"{module}.{qualname}"
        for module, qualname, node in _definitions()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(part.startswith("_") for part in qualname.split("."))
        and (module, qualname) not in reached
        and qualname.split(".")[-1] not in ALLOWED_UNREACHED
    )
    assert unreached == [], "move to tests/reference.py or delete: " + ", ".join(unreached)


def test_allowlist_entries_exist():
    names = {qualname.split(".")[-1] for _, qualname, _ in _definitions()}
    assert set(ALLOWED_UNREACHED) <= names


def _dataclass_fields():
    """(module, class, field) of every annotated field of a @dataclass."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield path.stem, node.name, item.target.id


def _attribute_reads():
    """Every attribute name that code under src/ reads (``x.name`` in a load)."""
    return {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    """A field is matched by its bare name, like a definition above: a read of
    ``.name`` on any object anywhere in src/ counts as reading every field of
    that name, so the check errs toward passing."""
    reads = _attribute_reads()
    unread = sorted(f"{module}.{cls}.{name}" for module, cls, name in _dataclass_fields()
                    if name not in reads)
    assert unread == [], "read nowhere under src/, delete: " + ", ".join(unread)
