"""Source hygiene: every name a library module, test or script imports is read
somewhere in it, and every module-level private name is read by some module of
the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdcodes"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS_AND_SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = {p.stem: p.read_text() for p in SRC.glob("*.py")}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never loads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in loaded]


def test_hygiene_checker_flags_unused():
    src = "import os\nimport sys\nfrom typing import Optional, Iterator\nx: Optional[int] = sys.maxsize\n"
    assert unused_imports(src) == ["Iterator (line 3)", "os (line 1)"]


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS_AND_SCRIPTS,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions, classes and constants that no module reads."""
    defined: dict[str, tuple[str, int]] = {}
    reads: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{module}.{name}"] = (name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return [f"{key} (line {line})" for key, (name, line) in sorted(defined.items()) if name not in reads]


def test_hygiene_checker_flags_unread_private():
    sources = {
        "a": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n_D = 3\n",
        "b": "from . import a\nfrom .a import _f\nx = _f() + a._D\n",
    }
    assert unread_private_names(sources) == ["a._B (line 2)", "a._C (line 6)"]


def test_no_unread_private_names():
    assert unread_private_names(PACKAGE) == []
