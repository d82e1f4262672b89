"""Every name a package module, or the test oracles module, imports is
used in that module."""

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
