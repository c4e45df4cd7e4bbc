"""Tridiagonal lambda_min against dense eigensolves."""

import numpy as np
import pytest

from berezin_lab.tridiag import lambda_min_batch
from oracles import dense_tridiagonal

rng = np.random.default_rng(4410)


def lambda_min(diag, off):
    return float(lambda_min_batch(np.asarray(diag)[None, :], np.asarray(off)[None, :])[0])


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 511])
def test_lambda_min_matches_dense(n):
    diag = rng.standard_normal(n) * 2
    off = rng.standard_normal(max(n - 1, 0))
    got = lambda_min(diag, off)
    want = np.linalg.eigvalsh(dense_tridiagonal(diag, off)).min()
    assert got == pytest.approx(want, abs=1e-10)


def test_lambda_min_complex_offdiagonal():
    n = 64
    diag = rng.uniform(0, 4, n)
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    got = lambda_min(diag, off)
    want = np.linalg.eigvalsh(dense_tridiagonal(diag, off)).min()
    assert got == pytest.approx(want, abs=1e-10)


def test_lambda_min_batch_matches_loop():
    b, n = 12, 90
    diags = rng.uniform(-1, 3, (b, n))
    offs = rng.standard_normal((b, n - 1))
    batch = lambda_min_batch(diags, offs)
    for i in range(b):
        want = np.linalg.eigvalsh(dense_tridiagonal(diags[i], offs[i])).min()
        assert batch[i] == pytest.approx(want, abs=1e-10)
        assert batch[i] == lambda_min(diags[i], offs[i])


def test_psd_matrix_nonnegative():
    # T^*T + TT^* for the unweighted shift: diagonal [1,2,2,...], zero off
    n = 200
    diag = np.full(n, 2.0)
    diag[0] = 1.0
    assert lambda_min(diag, np.zeros(n - 1)) == pytest.approx(1.0, abs=1e-11)


def test_toeplitz_tridiagonal_closed_form():
    # diag c, off -1: eigenvalues c - 2 cos(k pi/(n+1))
    n = 400
    got = lambda_min(np.full(n, 2.5), np.full(n - 1, -1.0))
    want = 2.5 - 2 * np.cos(np.pi / (n + 1))
    assert got == pytest.approx(want, abs=1e-10)


def test_large_instance_runs():
    n = 10**5
    diag = rng.uniform(1, 2, n)
    off = rng.uniform(-0.2, 0.2, n - 1)
    val = lambda_min(diag, off)
    assert 0 < val < 2


def test_shape_errors():
    with pytest.raises(ValueError):
        lambda_min_batch(np.ones((2, 5)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        lambda_min_batch([], [])
