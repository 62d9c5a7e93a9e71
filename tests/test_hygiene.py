"""Source hygiene: no class or function is silently shadowed.

A second `class TestX` or `def f` in the same scope replaces the first, so
the first one's tests never run and its code is dead.  Property setters and
deleters reuse their getter's name by design and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "src" / "genkl").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_accessor(node) -> bool:
    return any(
        isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
        for d in node.decorator_list
    )


def duplicate_definitions(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, second line) for every class or def name bound
    twice among the statements of one module, class or function body."""
    out = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, *_DEFS)):
            continue
        seen: dict[str, int] = {}
        for node in scope.body:
            if not isinstance(node, _DEFS) or _is_accessor(node):
                continue
            if node.name in seen:
                out.append((node.name, seen[node.name], node.lineno))
            seen[node.name] = node.lineno
    return out


def test_detector_sees_shadowing_and_exempts_setters():
    src = (
        "class A:\n    pass\n"
        "class A:\n    pass\n"
        "class B:\n"
        "    @property\n    def x(self): return 1\n"
        "    @x.setter\n    def x(self, v): pass\n"
        "    def f(self): pass\n"
        "    def f(self): pass\n"
    )
    assert duplicate_definitions(src) == [("A", 1, 3), ("f", 10, 11)]


def test_no_shadowed_definitions():
    assert len(SOURCES) > 10
    found = [
        f"{path.relative_to(ROOT)}:{second}: {name} shadows line {first}"
        for path in SOURCES
        for name, first, second in duplicate_definitions(path.read_text())
    ]
    assert not found, "\n".join(found)
