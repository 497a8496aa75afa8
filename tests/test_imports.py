"""Every module-level import in the package and the scripts is used, and
every top-level function and class of the package is read.

No linter runs on this repository, so an import or a helper left behind by
a refactor is caught here.  An import counts as used when its module reads
it anywhere (annotations included) or lists it in ``__all__``, which covers
the package's re-exports in ``__init__.py``; ``from __future__`` imports
bind no name and are skipped.  A function or class counts as read when a
statement of ``src/``, ``tests/``, ``scripts/`` or ``perfbench/`` other than
its own definition reads its name, or its module lists it in ``__all__``.
The package names the benchmark reaches by string or import exist.
"""

import ast
import collections
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semitall"
READERS = ("src", "tests", "scripts", "perfbench")


def exported(tree: ast.Module) -> set[str]:
    # the names the module lists in __all__
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport itertools\nimport numpy as np\nfrom . import a, b\nx = np.zeros(1)\n__all__ = ['a']\n"
    assert unused_imports(source) == ["line 2: itertools", "line 4: b"]


def unread_definitions(defining: list[str], sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the ``defining`` files that no
    top-level statement of ``sources`` (path -> text, the defining files
    among them) other than their own definition reads by name, as a name or
    an attribute, and that their module's ``__all__`` does not list."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    readers = collections.defaultdict(set)  # name -> (path, line) of each statement reading it
    for path, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers[node.id].add((path, stmt.lineno))
                elif isinstance(node, ast.Attribute):
                    readers[node.attr].add((path, stmt.lineno))
    unread = []
    for path in defining:
        listed = exported(trees[path])
        for stmt in trees[path].body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and stmt.name not in listed:
                if not readers[stmt.name] - {(path, stmt.lineno)}:
                    unread.append(f"{path}: {stmt.name}")
    return unread


def test_every_definition_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for top in READERS for p in sorted((ROOT / top).rglob("*.py"))}
    defining = [str(p.relative_to(ROOT)) for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_definitions(defining, sources) == []


def test_the_check_sees_an_unread_definition():
    module = "def used():\n    pass\n\n\ndef dead(k):\n    return dead(k - 1)\n\n\nclass Listed:\n    pass\n\n\n__all__ = ['Listed']\n"
    user = "import mod\n\nmod.used()\n"
    assert unread_definitions(["mod.py"], {"mod.py": module, "user.py": user}) == ["mod.py: dead"]


def positional_start_reads(source: str) -> list[int]:
    """The lines of ``source`` that index a ``_start_system(...)`` call by a
    constant.  The start system is a named tuple; a read by position would
    hand its caller another field after a reorder, so fields are read by
    name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            index = node.slice.operand if isinstance(node.slice, ast.UnaryOp) else node.slice
            if name == "_start_system" and isinstance(index, ast.Constant):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for top in ("src", "tests", "scripts") for p in sorted((ROOT / top).rglob("*.py"))],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_start_system_fields_are_read_by_name(path):
    assert positional_start_reads(path.read_text()) == []


def test_the_check_sees_a_positional_start_read():
    source = (
        "from semitall import solver\n"
        "frame = solver._start_system(3, 5)[0]\n"
        "last = _start_system(3, 5)[-1]\n"
        "named = solver._start_system(3, 5).frame\n"
        "other = solver._layout(3, 5)[0]\n"
    )
    assert positional_start_reads(source) == [2, 3]


def missing_bench_names(source: str) -> list[str]:
    """The names a benchmark script ``source`` reaches in the package that
    the package lacks: each (module, "attr") pair of its ``SPANS``, whose
    functions the tracer wraps by ``getattr``, and each name it imports from
    ``semitall.errors``."""
    tree = ast.parse(source)
    modules, wanted = {}, []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "semitall":
            modules.update((alias.asname or alias.name, f"semitall.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "semitall.errors":
            wanted += [("semitall.errors", alias.name) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            wanted += [(modules[pair.elts[0].id], pair.elts[1].value) for pair in node.value.elts]
    return [f"{module}.{name}" for module, name in wanted if not hasattr(importlib.import_module(module), name)]


def test_the_names_the_benchmark_reaches_exist():
    source = (ROOT / "perfbench" / "bench.py").read_text()
    assert "SPANS = (" in source and "from semitall.errors import" in source
    assert missing_bench_names(source) == []


def test_the_check_sees_a_missing_bench_name():
    source = (
        "from semitall import solver as s, tensorcore\n"
        "from semitall.errors import PATH_STALL, GONE\n"
        "SPANS = ((s, 'solve_all'), (s, 'gone'), (tensorcore, 'sigma'))\n"
    )
    assert missing_bench_names(source) == ["semitall.errors.GONE", "semitall.solver.gone"]
