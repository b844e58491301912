"""Every top-level function, class and method of the package is used.

A definition counts as used when code in ``src/polyhelix`` outside the
definition itself refers to its name (a bare name or an attribute), when an
``__all__`` of the package exports it, or when ``perfbench/spans.py`` wraps it
(its ``TARGETS``).  Dunder methods are exempt: the interpreter calls them.
References are matched by name alone, so dead code that shares a name with
used code passes; code reached only from the tests does not.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyhelix"
SPANS = ROOT / "perfbench" / "spans.py"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST, enclosing: frozenset = frozenset()):
    """(name, ids of the enclosing definitions) of each name and attribute."""
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    if isinstance(node, _DEFS):
        enclosing = enclosing | {id(node)}
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions(sources: dict[str, str], targets: set[tuple[str, str]]) -> list[str]:
    """``module.qualname`` of every definition in ``sources`` (module name to
    source text) that nothing else in ``sources`` refers to, that no
    ``__all__`` exports and that is not a ``(module, qualname)`` target."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    references: dict[str, list[frozenset]] = {}
    for tree in trees.values():
        for name, inside in _references(tree):
            references.setdefault(name, []).append(inside)
    exported = set().union(*map(_exported, trees.values()))
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            if name in exported or (module, qualname) in targets:
                continue
            if all(id(node) in inside for inside in references.get(name, ())):
                unused.append(f"{module}.{qualname}")
    return sorted(unused)


def _span_targets() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, path) for module, path, _, _ in spans.TARGETS}


def test_package_has_no_unused_definitions():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, _span_targets()) == []


def test_scan_flags_only_unreferenced_definitions():
    sources = {
        "a": (
            "__all__ = ['exported']\n"
            "def exported(): return helper()\n"
            "def helper(): return Box().size\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def wrapped(): pass\n"
            "class Box:\n"
            "    def __init__(self): self.n = 1\n"
            "    @property\n"
            "    def size(self): return self.n\n"
            "    def spare(self): return self.spare\n"
        ),
        "b": "from .a import helper\nclass Orphan:\n    def method(self): return Orphan\n",
    }
    assert unused_definitions(sources, {("a", "wrapped")}) == [
        "a.Box.spare", "a.recursive", "b.Orphan", "b.Orphan.method",
    ]
