"""Every name a package module, or the test oracles module, imports is
used in that module, every module-level private name of the package is
read somewhere in it, and ``__all__`` names exactly the public imports of
``__init__``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tbmpsk"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport time\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(source) == ["time"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    modules.append(ORACLES)
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def private_definitions(source: str) -> set[str]:
    """Module-level functions, classes and assignment targets whose names
    start with one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names the source reads: loaded ``Name`` ids, ``Attribute`` attrs and
    the names that imports bring in."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(a.name.split(".")[-1] for a in node.names)
    return read


def test_detects_a_dead_private_helper():
    source = (
        "from .a import _imported\n_used = 1\n_dead = 2\n_spent: int = 3\n"
        "def _f():\n    return _used\nclass _C:\n    pass\ndef _g():\n    pass\n"
        "_f()\nmodule._g()\n"
    )
    assert private_definitions(source) - read_names(source) == {"_dead", "_spent", "_C"}


def test_package_reads_every_private_helper():
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    defined = set().union(*map(private_definitions, sources))
    assert defined - set().union(*map(read_names, sources)) == set()


def test_all_lists_exactly_the_imported_public_names():
    import tbmpsk

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(tbmpsk.__all__) == len(set(tbmpsk.__all__))
    assert set(tbmpsk.__all__) == {n for n in imported if not n.startswith("_")} | {"__version__"}
    namespace = {}
    exec("from tbmpsk import *", namespace)
    assert set(tbmpsk.__all__) <= set(namespace)
