"""The LAPACK/BLAS wrappers against the scipy functions they replace, bit
for bit, and the exit code when scipy's compiled modules are missing."""

import json
import os
import sys
import threading
import types

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas

from berezin_lab import lapack
from berezin_lab.cli import main
from berezin_lab.tridiag import _shifted_cholesky, lambda_min_batch
from blas_threads import fresh_python, openblas_libraries, openblas_threads

rng = np.random.default_rng(1817)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def hpd_band(q, n):
    """Lower band (q + 1, n) of a Hermitian positive definite matrix: each
    diagonal entry is 1 + U(0, 1) plus the moduli of the off-diagonal
    entries in its row, so the matrix is strictly diagonally dominant and
    positive definite by Gershgorin's theorem for every draw."""
    band = rng.standard_normal((q + 1, n)) + 1j * rng.standard_normal((q + 1, n))
    band[0] = 1 + rng.uniform(0, 1, n)
    for d in range(1, q + 1):
        # band[d, j] is A[j + d, j]: it sits in row j + d, and its conjugate in row j
        off = np.abs(band[d, : n - d])
        band[0, d:] += off
        band[0, : n - d] += off
    return band


BANDS = [(0, 1), (0, 7), (1, 2), (1, 64), (3, 5), (4, 300), (9, 40)]


@pytest.mark.parametrize("n", [1, 2, *map(int, rng.integers(1, 3001, 48))])
def test_dstebz_matches_eigvalsh_tridiagonal(n):
    d = rng.standard_normal(n) * rng.uniform(0.1, 10)
    e = np.abs(rng.standard_normal(n - 1))
    want = scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0), lapack_driver="stebz")
    assert_same_bits(lapack.dstebz(d, e), want[0])


def stebz_cases():
    """(d, e) pairs where the pointer call could part from the f2py one:
    the smallest sizes, split matrices, subnormals and 2^14 rows."""
    rng = np.random.default_rng(29)
    tiny = np.finfo(float).smallest_subnormal
    split = np.abs(rng.standard_normal(299))
    split[::7] = 0.0
    return [
        (np.array([-0.5]), np.array([])),
        (np.array([1.0, -2.0]), np.array([0.0])),
        (np.array([1.0, 1.0]), np.array([tiny])),
        (rng.standard_normal(300), split),
        (rng.standard_normal(64), np.zeros(63)),
        (tiny * rng.integers(-5, 6, 50), tiny * rng.integers(0, 4, 49)),
        (np.array([tiny, -tiny, 3 * tiny]), np.array([tiny, 2 * tiny])),
        (rng.standard_normal(2 ** 14), np.abs(rng.standard_normal(2 ** 14 - 1))),
    ]


@pytest.mark.parametrize("d, e", stebz_cases())
def test_dstebz_pointer_call_matches_the_f2py_wrapper(d, e):
    want = scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0), lapack_driver="stebz")
    assert_same_bits(lapack.dstebz(d, e), want[0])


def test_dstebz_checks_its_off_diagonal_length():
    with pytest.raises(ValueError, match="N - 1"):
        lapack.dstebz(np.ones(4), np.ones(4))


def test_a_pointer_call_that_disagrees_at_load_raises_os_error(monkeypatch):
    real = lapack._stebz_call
    monkeypatch.setattr(lapack, "_stebz_call", lambda routine, d, e: (real(routine, d, e)[0] + 1.0, 0))
    lapack._load.cache_clear()
    try:
        with pytest.raises(OSError, match="dstebz"):
            lapack._load("_flapack")
    finally:
        monkeypatch.undo()
        lapack._load.cache_clear()
    assert_same_bits(lapack.dstebz([2.0, 2.0], [1.0]), lapack._routine("_flapack", "dstebz")(
        [2.0, 2.0], [1.0], 2, 0.0, 1.0, 1, 1, 0.0, "E")[1][0])


def test_concurrent_first_loads_get_one_module():
    lapack._load.cache_clear()
    barrier = threading.Barrier(8)
    got = [None] * 8

    def load(i):
        barrier.wait(timeout=30)
        got[i] = lapack._load("_flapack")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(m is got[0] for m in got) and hasattr(got[0], "dstebz")


def test_non_finite_input_raises_value_error():
    d, e = np.ones(4), np.ones(3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            lapack.dstebz(np.r_[d[:3], bad], e)
        with pytest.raises(ValueError):
            lapack.dstebz(d, np.r_[e[:2], -bad])
        with pytest.raises(ValueError):
            lapack.dstebz([bad], [])
        with pytest.raises(ValueError):
            lambda_min_batch([np.r_[d[:3], bad]], [e])
        band = hpd_band(2, 6)
        band[1, 2] = bad
        with pytest.raises(ValueError):
            lapack.zhbevx(band)


@pytest.mark.parametrize("q, n", BANDS)
def test_zpbtrf_and_zpbtrs_match_cholesky_banded(q, n):
    band = hpd_band(q, n)
    factor = lapack.zpbtrf(band)
    assert_same_bits(factor, scipy.linalg.cholesky_banded(band, lower=True, check_finite=False))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = scipy.linalg.cho_solve_banded((factor, True), b, check_finite=False)
    assert_same_bits(lapack.zpbtrs(factor, b), want)
    # a shift past lambda_min fails in both, and reads as no certificate
    shifted = band.copy()
    shifted[0] -= 10 * (2 * q + 2)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky_banded(shifted, lower=True, check_finite=False)
    with pytest.raises(np.linalg.LinAlgError):
        lapack.zpbtrf(shifted)
    assert _shifted_cholesky(band, 10 * (2 * q + 2)) is None


@pytest.mark.parametrize("q, n", BANDS)
def test_zhbevx_matches_eigvals_banded(q, n):
    band = hpd_band(q, n)
    band[0] -= 2 * q + 2  # not positive definite: indefinite for q >= 1, negative definite for q = 0
    want = scipy.linalg.eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))
    assert_same_bits(lapack.zhbevx(band), want[0])


@pytest.mark.parametrize("q, n", BANDS)
def test_blas_matches_scipy_blas(q, n):
    band = hpd_band(q, n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_same_bits(lapack.zhbmv(band, x), blas.zhbmv(q, 1.0, band, x, lower=1))
    # the transposed views and Fortran-order accumulator of operators._gram_band
    a = rng.standard_normal((q + 3, 2 * (q + 1))).T
    b = rng.standard_normal((n, q + 3)).T
    c = np.asfortranarray(rng.standard_normal((2 * (q + 1), n)))
    want = blas.dgemm(1.0, a, b, beta=1.0, c=c.copy(order="F"), overwrite_c=1)
    got = lapack.dgemm(a, b, c)
    assert_same_bits(got, want)
    assert np.shares_memory(got, c)


CHARSPACE = ["charspace", "--weights", "simple:r=0.5", "--weight-count", "512",
             "--lambda-grid", "mod=0:1:0.5,args=1"]
FREDHOLM = ["probe", "fredholm", "--space", "bergman", "--z0", "0.9"]


def test_missing_extension_module_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(lapack, "_linalg_dir", lambda: tmp_path)
    lapack._load.cache_clear()
    # charspace first needs dstebz; fredholm's Gram band first needs dgemm
    for argv, module in ((CHARSPACE, "_flapack"), (FREDHOLM, "_fblas")):
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        assert f"module {module} not found in {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_missing_routine_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(lapack, "_load", lambda module: types.SimpleNamespace())
    assert main(CHARSPACE + ["--out", str(tmp_path / "out.json")]) == 2
    assert "_flapack has no routine dstebz" in capsys.readouterr().err


needs_openblas_on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(openblas_libraries()) < 2,
    reason="needs Linux and numpy's and scipy's OpenBLAS libraries",
)


@needs_openblas_on_linux
def test_the_import_and_library_calls_keep_openblas_threads():
    # the policy is the CLI's: importing it and solving through lapack
    # leave both libraries' thread counts and workers as they were
    script = """
import json, os
import numpy as np
import scipy.linalg  # loads scipy's OpenBLAS, so that both have a count before
from blas_threads import openblas_threads
before = [openblas_threads(), len(os.listdir("/proc/self/task"))]
import berezin_lab.cli
from berezin_lab.tridiag import band_lambda_min
band = np.array([np.full(64, 2.0), np.full(64, -1.0)], dtype=complex)
band_lambda_min(band)
print(json.dumps([before, [openblas_threads(), len(os.listdir("/proc/self/task"))]]))
"""
    before, after = json.loads(fresh_python(script, env={"OPENBLAS_NUM_THREADS": "2"}))
    assert set(before[0]) == {"numpy", "scipy"}
    assert after == before


def test_missing_openblas_files_and_symbols_are_skipped(monkeypatch, tmp_path):
    # a file that is not a loaded library is not loaded, and a library
    # without the setter is left alone
    not_loaded = tmp_path / "libscipy_openblas-0.so"
    not_loaded.write_bytes(b"")
    numpy_lib = openblas_libraries().get("numpy", (not_loaded,))[0]
    before = openblas_threads()
    monkeypatch.setattr(lapack, "_openblas_files", lambda: ((not_loaded, "scipy_openblas_set_num_threads"),
                                                             (numpy_lib, "no_such_setter")))
    lapack._retire_blas_threads()
    assert openblas_threads() == before


@needs_openblas_on_linux
def test_closed_range_bytes_do_not_depend_on_the_blas_thread_count_outside_the_cli():
    # outside cli.main OpenBLAS keeps the threads it was started with; the
    # degree p = 511 >= N sums the closed-range Gram in blocks of N terms,
    # each one GEMM that two threads split
    script = """
from berezin_lab.formats import to_json
from berezin_lab.operators import BlaschkeProduct, closed_range_probe
from berezin_lab.spaces import space_by_name
from blas_threads import openblas_threads
doc = to_json(closed_range_probe(space_by_name("bergman"), BlaschkeProduct((0.9,)), n_schedule=(128, 256, 512)))
print(openblas_threads()["scipy"])
print(doc)
"""
    runs = [fresh_python(script, env={"OPENBLAS_NUM_THREADS": t}).split("\n", 1) for t in ("1", "2")]
    cpus = len(os.sched_getaffinity(0))
    assert [int(threads) for threads, _ in runs] == [1, min(2, cpus)]
    assert runs[0][1] == runs[1][1]
    assert json.loads(runs[0][1])["classification"] == "bounded_below"
