"""Source hygiene: every module-level import of the package is used, every
private module-level name is read somewhere in the package, and no module
holds mutable state at module level."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "recolat"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads. A
    name counts as read when code loads it, when a string annotation names
    it, or when `__all__` re-exports it."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                parsed = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detects_an_unused_import():
    tree = ast.parse(
        "import os\nimport sys\nfrom typing import Any, List\n"
        "x: 'List[int]' = []\n__all__ = ['Any']\nprint(sys.argv)\n"
    )
    assert unused_imports(tree) == ["os"]


def unread_private_names(trees: list[ast.Module]) -> list[str]:
    """Private (single-underscore) functions, classes and constants defined at
    module level that no module reads. A read is a loaded name, an attribute
    or an imported name."""
    defined, read = [], set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
    return [name for name in private if name not in read]


def test_detects_an_unread_private_name():
    trees = [
        ast.parse("_LIMIT = 3\n_cache: dict = {}\ndef _left(): pass\nclass _Used: pass\n"),
        ast.parse("from a import _Used\nimport a\nprint(a._cache)\n__all__ = []\n"),
    ]
    assert unread_private_names(trees) == ["_LIMIT", "_left"]


def test_private_module_level_names_are_read():
    paths = sorted(SRC.glob("*.py"))
    assert unread_private_names([ast.parse(p.read_text(), str(p)) for p in paths]) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def module_level_containers(tree: ast.Module) -> list[str]:
    """Names a module binds at module level to an empty `{}`, `[]` or
    `set()`, or to a `dict(...)`, `list(...)`, `set(...)` or
    `weakref.Weak*(...)` call: a table shared by every model, where a
    per-model table belongs in the model's `_cache`."""

    def container(value) -> bool:
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, ast.List):
            return not value.elts
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            return name in ("dict", "list", "set") or name.startswith("Weak")
        return False

    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_detects_module_level_containers():
    tree = ast.parse(
        "import weakref\nfrom weakref import WeakValueDictionary\n"
        "_a = {}\nb: list = []\nc = set()\nd = dict(x=1)\n"
        "_e: 'weakref.WeakKeyDictionary' = weakref.WeakKeyDictionary()\n"
        "f = WeakValueDictionary()\nG = {'k': 1}\nH = (1,)\nI = [1]\nJ = frozenset()\n"
        "def g():\n    local = {}\n"
    )
    assert module_level_containers(tree) == ["_a", "b", "c", "d", "_e", "f"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_containers(path):
    assert module_level_containers(ast.parse(path.read_text(), str(path))) == []
