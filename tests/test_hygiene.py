"""Source hygiene: every name a library module, test or script imports is read
somewhere in it, every module-level private name is read by some module of
the package, every private method of a package class is read only in its
own module, every public function, class and method of the package has a
reader outside the tests, and every `module.name` that the README or a
docstring or comment of the package or the scripts cites exists."""

import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdcodes"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS_AND_SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + SCRIPTS
PACKAGE = {p.stem: p.read_text() for p in SRC.glob("*.py")}
OUTSIDE_READERS = [p.read_text() for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]


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


def foreign_private_method_reads(sources: dict[str, str]) -> list[str]:
    """Reads x._m in one module of a `_private` method that a class of
    another module defines, where no class of the reading module defines a
    method of that name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    owners: dict[str, dict[str, str]] = {}  # method name -> {module: class}
    for module, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for name in (d.name for d in cls.body if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))):
                if name.startswith("_") and not name.startswith("__"):
                    owners.setdefault(name, {})[module] = cls.name
    found = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in owners:
                if module not in owners[node.attr]:
                    defs = ", ".join(f"{m}.{c}" for m, c in sorted(owners[node.attr].items()))
                    found.append(f"{module} (line {node.lineno}) reads {defs}.{node.attr}")
    return found


def test_hygiene_checker_flags_foreign_private_methods():
    sources = {
        "a": "class A:\n    def _own(self):\n        return self._own\n    def _shared(self):\n        pass\n",
        "b": (
            "class B:\n    def _shared(self):\n        pass\n"
            "def f(x):\n    x._shared()\n    x._attr\n    return x._own()\n"
        ),
    }
    # _shared has an owner in b, and _attr is no method
    assert foreign_private_method_reads(sources) == ["b (line 7) reads a.A._own"]


def test_private_methods_are_read_only_in_their_module():
    assert foreign_private_method_reads(PACKAGE) == []


def _name_reads(tree: ast.AST) -> Counter:
    """Reads of each name in tree: Name loads, attribute loads, ImportFrom
    aliases, and the words of string constants other than docstrings (the
    benchmark harness looks functions up by dotted strings)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            reads.update(re.findall(r"\w+", node.value))
    return reads


def _method_reads(tree: ast.AST) -> Counter:
    """Reads of each method name in tree: attribute loads, and string
    constants that are exactly the name or end in .name (getattr,
    monkeypatch, dotted lookups).  A bare name load is a local or global of
    the same name and a word of free text a mention, so neither counts."""
    reads = Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    reads.update(
        n.value.rsplit(".", 1)[-1] for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    )
    return reads


def _owner_reads(tree: ast.AST, owners: tuple[str, ...]) -> Counter:
    """Attribute loads owner.name in tree, owner a bare name in owners."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    )


def _is_class_bound(d: ast.AST) -> bool:
    decorators = getattr(d, "decorator_list", [])
    return any(isinstance(x, ast.Name) and x.id in ("classmethod", "staticmethod") for x in decorators)


def unread_public_names(library: dict[str, str], outside: list[str]) -> list[str]:
    """Public module-level functions and classes, and public methods, of the
    library modules that nothing reads: no library module other than
    `__init__` and no source in outside.  The reads of a definition's own
    name inside its body do not count.  A public method counts as read only
    through _method_reads, and a public classmethod or staticmethod only
    through Class.name, or cls.name in its class, not through a bare
    attribute of the same name."""
    trees = {module: ast.parse(source) for module, source in library.items() if module != "__init__"}
    readers = list(trees.values()) + [ast.parse(source) for source in outside]
    reads: Counter = Counter()
    method_reads: Counter = Counter()
    for tree in readers:
        reads.update(_name_reads(tree))
        method_reads.update(_method_reads(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            found = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, defs)]
            for key, d in found:
                if d.name.startswith("_"):
                    continue
                if d is not node and _is_class_bound(d):
                    owned = sum((_owner_reads(t, (node.name,)) for t in readers), _owner_reads(node, ("cls",)))
                    is_read = owned[d.name] > _owner_reads(d, (node.name, "cls"))[d.name]
                elif d is not node:
                    is_read = method_reads[d.name] > _method_reads(d)[d.name]
                else:
                    is_read = reads[d.name] > _name_reads(d)[d.name]
                if not is_read:
                    unread.append(f"{module}.{key} (line {d.lineno})")
    return unread


def test_hygiene_checker_flags_unread_public():
    library = {
        "a": (
            "def f():\n    return f()\n"
            "class C:\n    def m(self):\n        pass\n    def used(self):\n        pass\n"
            "    def _p(self):\n        pass\n"
            "def g():\n    'Calls h.'\n"
            "def h():\n    pass\n"
        ),
        "b": "from .a import C\nC().used()\n",
        "__init__": "from .a import f, g, h\n",
    }
    outside = ["import a\nSPANS = ['a.g']\n"]
    assert unread_public_names(library, outside) == ["a.f (line 1)", "a.C.m (line 4)", "a.h (line 12)"]


def test_hygiene_checker_flags_class_bound_methods_read_by_name_only():
    library = {
        "a": (
            "class K:\n"
            "    @classmethod\n    def make(cls):\n        return cls.build()\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n"
            "    @staticmethod\n    def loose():\n        return K.loose()\n"
            "    @classmethod\n    def named(cls):\n        pass\n"
            "    def plain(self):\n        pass\n"
        ),
        "b": "from .a import K\nk = K.make()\nk.loose()\nk.named\nk.plain()\n",
    }
    # loose is read only by its own body and through an instance, named only as
    # a bare attribute; plain is an ordinary method, read by its name
    assert unread_public_names(library, []) == ["a.K.loose (line 9)", "a.K.named (line 12)"]


def test_hygiene_checker_flags_methods_read_only_as_names_or_words():
    library = {
        "a": (
            "class P:\n"
            "    @property\n    def a(self):\n        return 1\n"
            "    def size(self):\n        return 2\n"
            "    def run(self):\n        pass\n"
            "    def shape(self):\n        pass\n"
        ),
        "b": "from .a import P\nP().run()\n",
    }
    outside = ["def f(a, shape):\n    'Reads a.'\n    return a + shape\nNAMES = ['a.P.size', 'the shape']\n"]
    # a and shape are only local names, a docstring word and a word of free
    # text; size is read by a dotted string and run by an attribute load
    assert unread_public_names(library, outside) == ["a.P.a (line 3)", "a.P.shape (line 9)"]


def test_public_names_have_readers():
    # a name only the tests read belongs in tests/oracles.py
    assert unread_public_names(PACKAGE, OUTSIDE_READERS) == []


def unresolved_module_refs(text: str, modules: set[str]) -> tuple[list[str], list[str]]:
    """The inline code spans of markdown text (fenced blocks aside) that start
    with module.name, module one of modules: all of them, and those whose
    module cdcodes.module has no attribute name."""
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    pairs = sorted({m.groups() for m in map(re.compile(r"(\w+)\.(\w+)").match, spans) if m and m[1] in modules})
    missing = [(m, name) for m, name in pairs if not hasattr(importlib.import_module(f"cdcodes.{m}"), name)]
    return [".".join(p) for p in pairs], [".".join(p) for p in missing]


def test_doc_drift_checker_flags_missing_names():
    text = "`linalg.no_such_name` and `codes.unit_words(kts, codes)`, `np.convolve`, `run.py`\n```\n`linalg.gone`\n```\n"
    assert unresolved_module_refs(text, {"linalg", "codes"}) == (
        ["codes.unit_words", "linalg.no_such_name"],
        ["linalg.no_such_name"],
    )


def test_readme_module_references_resolve():
    # a deleted or renamed function must not stay documented
    refs, missing = unresolved_module_refs((ROOT / "README.md").read_text(), set(PACKAGE) - {"__init__"})
    assert refs and missing == []


def doc_texts(source: str) -> list[str]:
    """The docstrings of Python source, and its comments with each run of
    comments on consecutive lines joined, one string each."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    texts = [doc for node in ast.walk(tree) if isinstance(node, scopes) and (doc := ast.get_docstring(node))]
    last = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            line = tok.string.lstrip("#")
            if last == tok.start[0] - 1:
                texts[-1] += "\n" + line
            else:
                texts.append(line)
            last = tok.start[0]
    return texts


def test_doc_texts_reads_docstrings_and_comments():
    source = (
        '"""Module `a.b`."""\n'
        "x = '`c.d`'  # see `e.f`\n"
        "# and `g.\n"
        "# h`\n"
        "def f():\n"
        '    """`i.j`"""\n'
        "    # `k.l`\n"
    )
    assert doc_texts(source) == ["Module `a.b`.", "`i.j`", " see `e.f`\n and `g.\n h`", " `k.l`"]


def test_source_module_references_resolve():
    # a deleted or renamed function must not stay cited in a docstring or comment
    modules = set(PACKAGE) - {"__init__"}
    refs, missing = set(), []
    for path in sorted(SRC.glob("*.py")) + SCRIPTS:
        for text in doc_texts(path.read_text()):
            found, unresolved = unresolved_module_refs(text, modules)
            refs.update(found)
            missing += [f"{path.name}: {name}" for name in unresolved]
    assert refs and missing == []
