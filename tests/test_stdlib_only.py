"""The package keeps its promise of no runtime dependencies."""

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
