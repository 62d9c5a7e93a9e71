"""Source hygiene: no class or function is silently shadowed, every
genkl name the benchmark uses still exists, and genkl imports and runs
without scipy.

A second `class TestX` or `def f` in the same scope replaces the first, so
the first one's tests never run and its code is dead.  Property setters and
deleters reuse their getter's name by design and are exempt.

The benchmark under perfbench/ wraps the names in its tracer's TRACED list
and calls genkl from its output checks; a deletion that breaks either
fails here instead of in a benchmark run.
"""

import ast
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import genkl

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
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


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(f"genkl.{mod}", path) for mod, path in tracer.TRACED]


def _checks_names() -> list[tuple[str, str]]:
    """(module, name) for every genkl name perfbench/checks.py imports,
    and for every attribute it reads off an imported genkl module."""
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("genkl"):
            for alias in node.names:
                names.append((node.module, alias.name))
                if node.module == "genkl":
                    modules[alias.asname or alias.name] = f"genkl.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.append((modules[node.value.id], node.attr))
    return names


def test_benchmark_names_resolve():
    traced, checked = _traced_names(), _checks_names()
    assert traced
    assert ("genkl.engine", "dihedral_sum_I") in checked
    # checks.py calls this method on a family instance
    checked.append(("genkl.families", "Supercuspidal.support_exponent"))
    missing = []
    for module, path in traced + checked:
        try:
            _resolve(module, path)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    assert not missing, missing


def _imported_modules(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


def test_no_module_imports_scipy():
    users = sorted(
        path.name
        for path in (ROOT / "src" / "genkl").glob("*.py")
        if any(name.split(".")[0] == "scipy" for name in _imported_modules(path.read_text()))
    )
    assert users == []


def _run_python(code: str) -> str:
    """Stdout of code run in a fresh interpreter that imports this genkl."""
    src = str(Path(genkl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_and_petersson_load_no_scipy():
    code = (
        "import sys, genkl, genkl.cli, genkl.petersson, genkl.archimedean; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_python(code) == "[]"


def test_genkl_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every import of that name fail
    code = """
import sys
for name in ("scipy", "scipy.special", "scipy.integrate"):
    sys.modules[name] = None
import importlib, pkgutil, genkl
for mod in pkgutil.iter_modules(genkl.__path__):
    importlib.import_module("genkl." + mod.name)
from genkl.archimedean import (
    H_infty, H_infty_minus, InitialSegment, Window, bessel_J, f_infty_one,
)
print(bessel_J(3, 40.0).real, bessel_J(-3, 2.0).real, bessel_J(1j, 2.0).imag)
print(f_infty_one(Window(50, 2)), H_infty(InitialSegment(2), 3.0),
      H_infty_minus(InitialSegment(2), 3.0))
"""
    values = [float(v) for v in _run_python(code).split()]
    assert len(values) == 6 and all(map(math.isfinite, values))


def flagless_unique_calls(source: str) -> list[int]:
    """Lines of every np.unique / numpy.unique call without a return_*
    keyword: numpy answers those through a masked-array check that imports
    numpy.ma, about 14 ms."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any((kw.arg or "").startswith("return_") for kw in node.keywords)
        ):
            out.append(node.lineno)
    return out


def test_detector_sees_flagless_unique():
    src = "np.unique(a)\nnp.unique(a, return_inverse=True)\nnumpy.unique(b, axis=0)\nx.unique(c)\n"
    assert flagless_unique_calls(src) == [1, 3]


def test_no_flagless_unique():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src" / "genkl").glob("*.py"))
        for line in flagless_unique_calls(path.read_text())
    ]
    assert not found, found


# the full walks over every unit pair; everything else reads array views
UNIT_WALK_ORACLES = ("E_gauss_brute", "norm_fiber_brute")


def unit_walks(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every x.units(...) call outside the
    brute-force oracles: QuadExtension.units yields one Python tuple per
    unit pair."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "units"
                and func not in UNIT_WALK_ORACLES
            ):
                out.append((child.lineno, func))
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return out


def test_detector_sees_unit_walks():
    src = (
        "def E_gauss_brute(ext):\n    return sum(1 for u in ext.units(2))\n"
        "def scan(ext):\n    return list(ext.units(3))\n"
        "def norm_fiber_brute(ext):\n    def key(u):\n        return ext.units(1)\n"
        "walk = ext.units\nfirst = next(ext.units(1))\n"
    )
    assert unit_walks(src) == [(4, "scan"), (7, "key"), (9, "<module>")]


def test_units_walked_only_by_the_oracles():
    found = [
        f"{path.relative_to(ROOT)}:{line} in {func}"
        for path in sorted((ROOT / "src" / "genkl").glob("*.py"))
        for line, func in unit_walks(path.read_text())
    ]
    assert not found, found


def test_commands_load_no_numpy_ma():
    code = """
import contextlib, io, sys
from genkl.cli import main
commands = [
    "klsum --family supercuspidal --p 3 --ext unramified --cxi 1 --k 1..3 --grid units",
    "klsum --family nelson --p 3 --c 3 --k 0..3 --grid mn --m=-3..4 --n 1,3",
    "identities --suite degeneration --p 3",
    "petersson-verify --kappa 12 --mmax 3 --cmax 50",
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv.split()) for argv in commands]
print(codes, "numpy.ma" in sys.modules)
"""
    assert _run_python(code) == "[0, 0, 0, 0] False"
