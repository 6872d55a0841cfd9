"""A guard on the package source: every private top-level name and private
method in src/robusteig is read somewhere in it, so a deletion cannot leave
a helper behind that nothing calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "robusteig"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(tree: ast.Module):
    """The private top-level names of a module, and the private methods of
    its top-level classes as (class, method) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name,) for name in names if _private(name))
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, item.name) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _private(item.name))


def _read(tree: ast.Module):
    """Every name a module reads: loaded names, loaded attributes and
    imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name (or module.Class.method) of each private definition in
    sources, a map from module name to its text, that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {name for tree in trees.values() for name in _read(tree)}
    return [".".join((module, *path)) for module, tree in trees.items()
            for path in _defined(tree) if path[-1] not in read]


def test_every_private_name_in_src_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "graph_matrix" in sources and "solvers" in sources
    assert unread_private_names(sources) == []


def test_the_guard_finds_a_helper_left_behind():
    sources = {"a": ("import math\n"
                     "_K = 1\n"
                     "_LIMIT: int = 2\n"
                     "def _used():\n    return _LIMIT\n"
                     "def _left():\n    return math.pi\n"
                     "class _Box:\n"
                     "    def __init__(self):\n        self._slot = _used()\n"
                     "    def _stale(self):\n        return 0\n"
                     "    def _called(self):\n        return 1\n"
                     "    def run(self):\n        return self._called()\n"),
               "b": "from a import _K\nprint(_Box().run())\n"}
    assert unread_private_names(sources) == ["a._left", "a._Box._stale"]
