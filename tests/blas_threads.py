"""Thread counts of numpy's and scipy's OpenBLAS, and fresh interpreters
to read them in.  Importing this module imports neither the package nor
scipy, so a script can read the counts before it imports either."""

import ctypes
import importlib.util
import os
import subprocess
import sys
from pathlib import Path


# numpy's and scipy's OpenBLAS as their wheels ship them, in a folder
# beside the package: the file name pattern and the thread-count getter
OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
)


def openblas_libraries() -> dict:
    """{package: (library file, thread-count getter)} for each wheel whose
    OpenBLAS library is installed."""
    found = {}
    for package, pattern, getter in OPENBLAS:
        folder = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        found.update((package, (path, getter)) for path in sorted(folder.glob(pattern))[:1])
    return found


def openblas_threads() -> dict:
    """{package: thread count} of each OpenBLAS library of
    ``openblas_libraries`` this process has loaded; ``RTLD_NOLOAD`` loads
    none."""
    counts = {}
    for package, (path, getter) in openblas_libraries().items():
        try:
            counts[package] = getattr(ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD), getter)()
        except OSError:
            continue
    return counts


def fresh_python(script: str, *args, env=None) -> str:
    """Standard output of ``script`` run with ``args`` in a new interpreter
    with the package's sources and this folder on its path; raises if it
    exits nonzero."""
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout
