"""Every top-level function, class and method of the package is used.

A definition counts as used when code in ``src/polyhelix`` outside the
definition itself refers to its name, when an ``__all__`` of the package
exports it, or when ``perfbench/spans.py`` wraps it (its ``TARGETS``).  A
top-level function or class is referred to by a bare name or an attribute,
a method only by an attribute, so a parameter or local variable that shares
a method's name does not keep the method alive.  Dunder functions and
methods are exempt: the interpreter calls them (a module's PEP 562
``__getattr__`` among them).  References are matched by name alone, so dead
code that shares a name with used code of the same kind passes; code
reached only from the tests does not.

Every defaulted parameter of those functions and methods is also set by
some caller: a call in ``src/polyhelix`` whose callee has the function's
name passes it by keyword or by position (a ``*args`` or ``**kwargs``
argument counts as passing every parameter it could reach), or an
operation's ``scan`` dict in ``perfbench/workloads.py`` names it (the
harness passes that dict to ``classify.negative_K_scan``).  A default no
caller overrides is a constant, not a parameter.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyhelix"
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SCAN_CALLEE = "negative_K_scan"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level definition and method that
    is not a dunder."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not _dunder(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST, enclosing: frozenset = frozenset()):
    """(name, whether it is an attribute, ids of the enclosing definitions)
    of each name and attribute."""
    if isinstance(node, ast.Name):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, enclosing
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
    references: dict[str, list[tuple[bool, frozenset]]] = {}
    for tree in trees.values():
        for name, attribute, inside in _references(tree):
            references.setdefault(name, []).append((attribute, inside))
    exported = set().union(*map(_exported, trees.values()))
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if name in exported or (module, qualname) in targets:
                continue
            if all(
                id(node) in inside or (owner and not attribute)
                for attribute, inside in references.get(name, ())
            ):
                unused.append(f"{module}.{qualname}")
    return sorted(unused)


def _defaulted(qualname: str, node: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """The positional parameters a caller fills (after ``self`` or ``cls``)
    and the names of the defaulted ones."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    if "." in qualname and not static:
        positional = positional[1:]
    return positional, defaulted


def _sets(call: ast.Call, positional: list[str], parameter: str) -> bool:
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if parameter not in positional:
        return False
    return len(call.args) > positional.index(parameter) or any(
        isinstance(a, ast.Starred) for a in call.args
    )


def unset_parameters(sources: dict[str, str], preset: dict[str, set[str]]) -> list[str]:
    """``module.qualname(parameter)`` of every defaulted parameter of a
    definition in ``sources`` that no call in ``sources`` to a callee of the
    same name passes and that ``preset`` (callee name to keyword names) does
    not name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if not isinstance(node, _FUNCS):
                continue
            name = qualname.rpartition(".")[2]
            positional, defaulted = _defaulted(qualname, node)
            for parameter in defaulted:
                if parameter in preset.get(name, ()):
                    continue
                if not any(_sets(call, positional, parameter) for call in calls.get(name, ())):
                    unset.append(f"{module}.{qualname}({parameter})")
    return sorted(unset)


def _scan_keywords() -> set[str]:
    """The keys of every ``"scan"`` dict literal in the workloads."""
    keys = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if isinstance(value, ast.Dict) and getattr(key, "value", None) == "scan":
                keys.update(k.value for k in value.keys if isinstance(k, ast.Constant))
    return keys


def _span_targets() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, path) for module, path, _, _ in spans.TARGETS}


def test_package_has_no_unused_definitions():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, _span_targets()) == []


def test_package_has_no_unset_parameters():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unset_parameters(sources, {SCAN_CALLEE: _scan_keywords()}) == []


def test_scan_flags_only_unset_parameters():
    sources = {
        "a": (
            "def f(x, by_position=1, by_key=2, unset=3, *, keyword_only=4, preset=5): pass\n"
            "def g(x, splat=1, unset=2): pass\n"
            "def h(x, spread=1): pass\n"
            "class Box:\n"
            "    def method(self, by_position=1, unset=2): pass\n"
            "    @staticmethod\n"
            "    def tool(by_position=1, unset=2): pass\n"
        ),
        "b": (
            "from .a import Box, f, g, h\n"
            "f(0, 1, by_key=2, keyword_only=3)\n"
            "g(*[0, 1])\n"
            "h(0, **{'spread': 1})\n"
            "Box().method(1)\n"
            "Box.tool(1)\n"
        ),
    }
    assert unset_parameters(sources, {"f": {"preset"}}) == [
        "a.Box.method(unset)", "a.Box.tool(unset)", "a.f(unset)",
    ]


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


def test_scan_exempts_module_dunders_only():
    sources = {
        "lazy": (
            "def __getattr__(name): raise AttributeError(name)\n"
            "def orphan(): pass\n"
        ),
    }
    assert unused_definitions(sources, set()) == ["lazy.orphan"]


def test_scan_counts_a_method_used_only_through_an_attribute():
    # the parameter ``degree`` of check shares the method's name, and the
    # bare name helper() still keeps a top-level function alive
    sources = {
        "a": (
            "__all__ = ['check']\n"
            "def check(degree): return degree > helper()\n"
            "def helper(): return 0\n"
            "class Box:\n"
            "    def degree(self): return 1\n"
            "    def area(self): return 2\n"
        ),
        "b": "from .a import Box\nprint(Box().area())\n",
    }
    assert unused_definitions(sources, set()) == ["a.Box.degree"]
