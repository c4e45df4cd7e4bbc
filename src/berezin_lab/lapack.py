"""The LAPACK and BLAS routines the solvers call, from scipy's compiled
extension modules, without importing ``scipy.linalg``.

``import scipy.linalg`` costs about 0.3 s and 17 MB of start-up for six
routines; loading ``scipy/linalg/_flapack`` and ``_fblas`` from their
files costs about 10 ms and runs none of that package.  A module is
loaded on first use.  Each wrapper makes the argument choices and the
``info`` check of the scipy function it replaces (named in its
docstring), so results are the same bit for bit: a negative info raises
ValueError and a positive one ``numpy.linalg.LinAlgError`` (a ValueError
too).  A missing module or routine raises OSError naming it; there is no
fallback.

``dstebz`` calls the Fortran routine behind scipy's wrapper through its
own pointer with ``ctypes``, which releases the GIL while LAPACK runs:
f2py's wrappers hold it, so tridiagonal solves on several threads would
otherwise run one at a time.  Loading ``_flapack`` checks that call bit
for bit against the wrapper on one small matrix, and raises OSError if
they differ.  Loading is thread-safe.

``one_blas_thread`` is the CLI's BLAS thread policy, set by ``cli.main``
and never at import: each OpenBLAS library the process has loaded
(numpy's, and scipy's once a module here has brought it in) runs on its
caller's thread, and its worker threads exit.  A worker otherwise spins
for about 0.1 s of CPU after the library loads and after each job, on
the CPUs that ``charspace``'s solver threads use; with the policy on,
those are the only busy threads.  Outputs have the same bytes on one
BLAS thread as on two.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import threading
from pathlib import Path

import numpy as np


def _package_dir(package: str) -> Path:
    """The folder of an installed package, found without importing it."""
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        raise OSError(f"{package} is not installed; its compiled LAPACK and BLAS modules are needed")
    return Path(spec.submodule_search_locations[0])


def _linalg_dir() -> Path:
    """scipy's ``linalg`` folder, found without importing scipy."""
    return _package_dir("scipy") / "linalg"


# held through a module's first load: two threads executing one extension
# module at once can hand one of them a half-initialised module
_LOAD_LOCK = threading.Lock()

# numpy's and scipy's OpenBLAS, as their wheels install it (in a folder
# beside the package): the file name pattern and the thread-count setter
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)
# turned on by ``one_blas_thread`` and read by ``_load_file``: process-wide,
# as the libraries' thread counts are
_one_thread = False


def _library_dir(package: str) -> Path:
    """The folder of the shared libraries ``package``'s wheel ships."""
    return _package_dir(package).parent / f"{package}.libs"


@functools.cache
def _openblas_files() -> tuple:
    """(file, thread setter) of each OpenBLAS library in numpy's and
    scipy's library folders; listed once per process."""
    files = []
    for package, pattern, setter in _OPENBLAS:
        try:
            files += [(path, setter) for path in sorted(_library_dir(package).glob(pattern))]
        except OSError:
            continue
    return tuple(files)


def _retire_blas_threads() -> None:
    """Set each OpenBLAS library the process has loaded to one thread and
    end its worker threads.  ``RTLD_NOLOAD`` opens no library that is not
    loaded already; a missing file or symbol is skipped."""
    for path, setter in _openblas_files():
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            set_threads, shutdown = getattr(lib, setter), lib.blas_thread_shutdown_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        shutdown.argtypes, shutdown.restype = (), ctypes.c_int
        set_threads(1)
        shutdown()


def one_blas_thread() -> None:
    """The CLI's BLAS thread policy (see the module docstring): every
    OpenBLAS library loaded now runs on its caller's thread, and so does
    scipy's when ``_load`` first brings it in.  ``cli.main`` calls this;
    the import does not, so a library user keeps OpenBLAS's threads."""
    global _one_thread
    with _LOAD_LOCK:
        if not _one_thread:
            _one_thread = True
            _retire_blas_threads()


def _load(module: str):
    """scipy's extension module ``linalg/<module>``, loaded from its file
    under its own name, so a later ``import scipy.linalg`` reuses it.
    Thread-safe: every caller gets the one module object."""
    with _LOAD_LOCK:
        return _load_file(module)


@functools.cache
def _load_file(module: str):
    folder = _linalg_dir()
    paths = [folder / (module + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise OSError(f"scipy's compiled module {module} not found in {folder}")
    spec = importlib.util.spec_from_file_location(f"scipy.linalg.{module}", path)
    try:
        ext = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ext)
    except ImportError as exc:
        raise OSError(f"cannot load scipy's compiled module {module} from {path}: {exc}") from exc
    if _one_thread:
        # the load may have brought in scipy's OpenBLAS and started its
        # workers; set it to one thread before anything calls into it
        _retire_blas_threads()
    if module == "_flapack" and hasattr(ext, "dstebz"):
        _check_stebz(ext)
    return ext


# so that a test can forget the loaded modules through ``_load``
_load.cache_clear = _load_file.cache_clear


def _routine(module: str, name: str):
    try:
        return getattr(_load(module), name)
    except AttributeError:
        raise OSError(f"scipy's compiled module {module} has no routine {name}") from None


def _check(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")


# DSTEBZ(RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W,
# IBLOCK, ISPLIT, WORK, IWORK, INFO): every argument by reference, then
# gfortran's hidden lengths of the two CHARACTER arguments
_STEBZ = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 18, ctypes.c_size_t, ctypes.c_size_t)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _stebz_call(routine, d: np.ndarray, e: np.ndarray):
    """(W(1), INFO) of DSTEBZ called through the Fortran pointer of the
    f2py ``routine``, with the GIL released, for float64 contiguous ``d``
    of length N >= 2 and ``e`` of length N - 1."""
    n = len(d)
    # range 'I' selects eigenvalues il..iu by index (vl, vu unread); tol 0
    # is LAPACK's default; order 'E' sorts the whole matrix's eigenvalues
    scalars = [
        ctypes.c_char(b"I"), ctypes.c_char(b"E"), ctypes.c_int(n), ctypes.c_double(0.0),
        ctypes.c_double(1.0), ctypes.c_int(1), ctypes.c_int(1), ctypes.c_double(0.0),
    ]
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.intc) for k in (1, 1, 3))
    _STEBZ(_CAPSULE_POINTER(routine._cpointer, None))(
        *map(ctypes.addressof, scalars), d.ctypes.data, e.ctypes.data,
        ctypes.addressof(m), ctypes.addressof(nsplit), w.ctypes.data, iblock.ctypes.data,
        isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data, ctypes.addressof(info), 1, 1,
    )
    return w[0], info.value


def _check_stebz(ext) -> None:
    """OSError unless DSTEBZ through its pointer gives the f2py wrapper's
    bits on one small matrix: a wrong calling convention shows here, at
    load, rather than as wrong eigenvalues."""
    d, e = np.array([2.0, -1.0, 0.5, 3.0]), np.array([1.0, 0.25, 2.0])
    _, want, _, _, want_info = ext.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    got, info = _stebz_call(ext.dstebz, d, e)
    if (got.tobytes(), info) != (want[0].tobytes(), want_info):
        raise OSError("scipy's dstebz called through its Fortran pointer disagrees with its f2py wrapper")


def dstebz(d, e) -> float:
    """Smallest eigenvalue of the real symmetric tridiagonal with diagonal
    ``d`` and off-diagonal ``e``, by bisection on Sturm counts: scipy's
    ``eigvalsh_tridiagonal(d, e, select='i', select_range=(0, 0),
    lapack_driver='stebz')[0]``.  ValueError on non-finite input.  The
    GIL is released while LAPACK runs, so solves on several threads run
    at once; each allocates 5N floats and 5N ints of workspace."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if len(d) == 1:
        return d[0]
    # f2py's wrapper checks these shapes; the pointer call reads N and
    # N - 1 entries unchecked
    if d.ndim != 1 or e.shape != (len(d) - 1,):
        raise ValueError(f"dstebz needs a diagonal of length N and an off-diagonal of length N - 1, "
                         f"not shapes {d.shape} and {e.shape}")
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    w, info = _stebz_call(_routine("_flapack", "dstebz"), d, e)
    _check(info, "dstebz")
    return w


def zpbtrf(band: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the Hermitian matrix whose lower band is
    ``band``: scipy's ``cholesky_banded(band, lower=True,
    check_finite=False)``; LinAlgError when it is not positive definite."""
    factor, info = _routine("_flapack", "zpbtrf")(band, lower=1)
    _check(info, "zpbtrf")
    return factor


def zpbtrs(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b, A's lower band Cholesky factor ``factor`` from
    ``zpbtrf``: scipy's ``cho_solve_banded((factor, True), b,
    check_finite=False)``."""
    x, info = _routine("_flapack", "zpbtrs")(factor, b, lower=1)
    _check(info, "zpbtrs")
    return x


def zhbevx(band) -> float:
    """Largest eigenvalue of the Hermitian matrix whose lower band is
    ``band`` (N columns): scipy's ``eigvals_banded(band, lower=True,
    select='i', select_range=(N - 1, N - 1))[0]``.  ValueError on
    non-finite input."""
    band = np.asarray_chkfinite(band)
    n = band.shape[1]
    # scipy's choices: the absolute tolerance dsbevx's manual advises, and
    # room for one eigenvalue, the n-th by index
    abstol = 2 * _routine("_flapack", "dlamch")("s")
    w, _, _, _, info = _routine("_flapack", "zhbevx")(
        band, 0.0, 1.0, n, n, compute_v=0, mmax=1, range=2, lower=1, overwrite_ab=0, abstol=abstol
    )
    _check(info, "zhbevx")
    return w[0]


def dgemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c + a b, written into ``c`` (Fortran order) and returned: scipy's
    ``blas.dgemm(1.0, a, b, beta=1.0, c=c, overwrite_c=1)``."""
    return _routine("_fblas", "dgemm")(1.0, a, b, beta=1.0, c=c, overwrite_c=1)


def zhbmv(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the Hermitian A whose lower band is ``band``: scipy's
    ``blas.zhbmv(q, 1.0, band, x, lower=1)``, q the half-width."""
    return _routine("_fblas", "zhbmv")(band.shape[0] - 1, 1.0, band, x, lower=1)
