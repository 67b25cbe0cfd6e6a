"""The package keeps its promise of no runtime dependencies."""

import ast
import subprocess
import sys
from pathlib import Path

import lensmilnor


def test_package_imports_only_the_stdlib():
    # -S skips the .pth hooks that load third-party modules into every
    # interpreter on some machines; the child still sees this process's
    # path, so an installed numpy or sympy would import and be caught.
    src = str(Path(lensmilnor.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path[:] = {[src] + sys.path!r}\n"
        "import lensmilnor, lensmilnor.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "lensmilnor" in out
    foreign = [
        m for m in out
        if m not in sys.stdlib_module_names and m not in ("lensmilnor", "__main__")
    ]
    assert foreign == []
    # Exact arithmetic stays in int: the start-up of every command skips
    # the rational and decimal modules.
    assert "fractions" not in out and "decimal" not in out


def test_library_has_no_assert():
    # python -O strips assert statements, so none may guard a verdict.
    src = Path(lensmilnor.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_keeps_no_process_global_cache():
    # A cache at module level is state shared by every caller in the
    # process; each lattice is searched about once, so none is needed.
    src = Path(lensmilnor.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
        and (node.id if isinstance(node, ast.Name) else node.attr) in ("lru_cache", "cache")
    ]
    assert found == []


def _referenced_names(paths):
    """Every name a module reads, imports or reaches as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    # A name exported only for the tests belongs in tests/verification.py:
    # each one in __all__ is used by the package itself or the benchmark.
    src = Path(lensmilnor.__file__).resolve().parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    used = _referenced_names(
        [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
        + sorted(perfbench.glob("*.py"))
    )
    assert sorted(set(lensmilnor.__all__) - used) == []
