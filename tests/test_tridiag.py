"""Tridiagonal and banded lambda_min against dense eigensolves and mpmath."""

import mpmath as mp
import numpy as np
import pytest

from berezin_lab.operators import BlaschkeProduct
from berezin_lab.spaces import custom_space, monomial_norms
from berezin_lab.tridiag import _cholesky_error, _shifted_cholesky, band_lambda_min, lambda_min_batch
from oracles import band_from_dense, dense_from_band, dense_mult, dense_tridiagonal, tall_mult_matrix

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


# ---------------------------------------------------------------------------
# banded lambda_min with a proven bracket


def random_pd_band(q, n, r, floor=1e-3):
    """A seeded Hermitian band with lambda_min = floor * ||A||_2."""
    band = r.standard_normal((q + 1, n)) + 1j * r.standard_normal((q + 1, n))
    band[0] = band[0].real
    for d in range(q + 1):
        band[d, n - d :] = 0
    eigs = np.linalg.eigvalsh(dense_from_band(band))
    band[0] += floor * np.max(np.abs(eigs)) - eigs[0]
    return band


def assert_brackets(band, tol=1e-13):
    lam, lo, hi = band_lambda_min(band)
    a = dense_from_band(band)
    want = np.linalg.eigvalsh(a)[0]
    assert abs(lam - want) <= tol * np.linalg.norm(a, 2), (lam, want)
    assert lo <= want <= hi, (lo, want, hi)
    assert lo <= lam <= hi
    return lam, lo, hi


@pytest.mark.parametrize("q", [0, 1, 7, 63])
@pytest.mark.parametrize("n", [1, 2, 17, 128])
def test_band_lambda_min_random_positive_definite(q, n):
    r = np.random.default_rng(1000 * q + n)
    _, lo, _ = assert_brackets(random_pd_band(q, n, r))
    assert lo > 0


@pytest.mark.parametrize("fill", [1e3, np.inf, np.nan])
def test_band_lambda_min_reads_only_the_matrix(fill):
    # slots with i + d >= N hold no entry of A: whatever they hold, the
    # solve has the bits of the zeroed band, so the leading block of a
    # wider band can be passed as a view
    band = random_pd_band(3, 12, np.random.default_rng(312))
    want = np.array(band_lambda_min(band))
    filled = band.copy()
    for d in range(1, 4):
        filled[d, 12 - d :] = fill
    assert np.array(band_lambda_min(filled)).tobytes() == want.tobytes()
    wide = np.full((6, 20), fill, dtype=complex)
    wide[:4, :12] = filled
    assert np.array(band_lambda_min(wide[:4, :12])).tobytes() == want.tobytes()


def test_band_lambda_min_repeated_and_clustered_eigenvalues():
    r = np.random.default_rng(77)
    block = random_pd_band(1, 64, r)
    repeated = np.concatenate([block, block], axis=1)
    repeated[1, 63] = 0  # the two copies do not couple
    assert_brackets(repeated)
    cluster = repeated.copy()
    cluster[0, 64:] += 1e-9  # lambda_min and its twin now 1e-9 apart
    eigs = np.linalg.eigvalsh(dense_from_band(cluster))
    assert eigs[1] - eigs[0] == pytest.approx(1e-9, rel=1e-3)
    assert_brackets(cluster)


def test_band_lambda_min_hardy_isometry():
    # the Gram of a Blaschke factor on the Hardy space: every eigenvalue is
    # 1 to rounding, so a shifted factorization meets a matrix of noise
    coeffs, _ = BlaschkeProduct((0.5,)).series(1e-12)
    b = tall_mult_matrix(monomial_norms("hardy", 4), coeffs, 128)
    band = band_from_dense(b.conj().T @ b, len(coeffs) - 1)
    lam, lo, hi = assert_brackets(band)
    assert lam == pytest.approx(1.0, abs=1e-13)
    assert 1 - 1e-10 < lo <= 1.0 <= hi < 1 + 1e-10


@pytest.mark.parametrize("n", [1, 2, 17, 128, 1024])
def test_band_lambda_min_toeplitz_closed_form(n):
    # [-1, 2, -1]: lambda_min = 2 - 2 cos(pi / (n + 1)), in 50 digits
    band = np.zeros((2, n))
    band[0] = 2.0
    band[1, : n - 1] = -1.0
    lam, lo, hi = band_lambda_min(band)
    with mp.workdps(50):
        exact = 2 - 2 * mp.cos(mp.pi / (n + 1))
        assert mp.mpf(lo) <= exact <= mp.mpf(hi)
        assert abs(mp.mpf(lam) - exact) <= 1e-15
    assert lo > 0


def test_band_lambda_min_indefinite_and_zero():
    # A does not factor: the iteration starts below every Gershgorin disk
    r = np.random.default_rng(5)
    band = random_pd_band(7, 128, r)
    band[0] -= 0.5 * np.linalg.norm(dense_from_band(band), 2)
    _, lo, hi = assert_brackets(band)
    assert hi < 0
    assert band_lambda_min(np.zeros((3, 10))) == (0.0, 0.0, 0.0)
    # scaling by a power of two is exact, so tiny and huge matrices agree
    unit = random_pd_band(3, 40, r)
    lam, lo, hi = band_lambda_min(unit)
    for e in (-1000, 1000):
        assert band_lambda_min(np.ldexp(unit.real, e) + 1j * np.ldexp(unit.imag, e)) == (
            np.ldexp(lam, e), np.ldexp(lo, e), np.ldexp(hi, e))
    with pytest.raises(ValueError):
        band_lambda_min(np.full((2, 4), np.nan))


def mp_backward_error(band, sigma, factor):
    """||L L^H - (A - sigma I)||_2 in 50 digits, L the computed factor."""
    n = band.shape[1]
    a = dense_from_band(band) - sigma * np.eye(n)
    lower = np.tril(dense_from_band(factor))  # the diagonal of L is real
    with mp.workdps(50):
        ml = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in lower])
        ma = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])
        # the shift is applied in 50 digits: A - sigma I has no rounding here
        for i in range(n):
            ma[i, i] = mp.mpf(float(band[0, i].real)) - mp.mpf(sigma)
        diff = ml * ml.H - ma
        return max(abs(x) for x in mp.eighe(diff, eigvals_only=True))


def test_cholesky_bound_needed_and_sufficient_in_50_digits():
    # A = [[1024, 39], [39, 3]]: at sigma, the float just above
    # lambda_min(A), the rounded factorization of A - sigma I still
    # succeeds, so without the backward-error term it would prove a false
    # lower bound
    band = np.array([[1024.0, 3.0], [39.0, 0.0]])
    with mp.workdps(50):
        exact = min(mp.eigsy(mp.matrix([[1024, 39], [39, 3]]), eigvals_only=True))
        sigma = float(np.nextafter(float(exact), np.inf))
        assert mp.mpf(sigma) > exact
    lo, factor = _shifted_cholesky(band, sigma)
    with mp.workdps(50):
        assert mp.mpf(lo) <= exact
    assert mp_backward_error(band, sigma, factor) <= sigma - lo


def test_cholesky_bound_covers_exact_backward_error():
    r = np.random.default_rng(8)
    for q, n in ((1, 6), (3, 8), (5, 5)):
        band = random_pd_band(q, n, r, floor=1e-6)
        sigma = float(np.linalg.eigvalsh(dense_from_band(band))[0]) * (1 - 1e-3)
        lo, factor = _shifted_cholesky(band, sigma)
        assert mp_backward_error(band, sigma, factor) <= sigma - lo


def test_cholesky_bound_reads_the_shifted_diagonal_not_the_factor():
    # the factor overwrites the shifted copy in place, so the bound is
    # formed from the diagonal of A - sigma I before it; A itself is kept
    band = random_pd_band(3, 12, np.random.default_rng(9))
    kept = band.copy()
    sigma = -0.5
    lo, factor = _shifted_cholesky(band, sigma)
    top = float(np.max(band[0].real - sigma))
    assert lo == float(np.nextafter(sigma - _cholesky_error(3, 12, top), -np.inf))
    assert top != float(np.max(factor[0].real))
    assert band.tobytes() == kept.tobytes()


@pytest.mark.parametrize("space", [
    monomial_norms("hardy", 8),
    monomial_norms("bergman", 8),
    monomial_norms("mu", 8),
    custom_space((1.0 + np.arange(512.0)) ** -0.7, label="custom"),
], ids=lambda sp: sp.label)
def test_band_bracket_holds_where_inverse_iteration_stalls(space):
    # -H for H = A^H A, A = sum_i M_phi_i M_psi_i^* on N coordinates as
    # normbound draws it (1-3 pairs, coefficients scaled by 1/(1 + j)^2):
    # -H is indefinite, so the solver starts at the shift -2r.  On hardy and
    # mu at N = 64, degree 5, the fifth family's two lowest eigenvalues are
    # 0.4% apart, and inverse iteration runs its 100 steps to an estimate
    # 0.7-0.8% from lambda_min, with hi - lo = 1.1 |lambda_min|: 2 of the
    # 120 solves here stall.  The bracket still holds at every one
    for n in (64, 256):
        for degree in (1, 5, 20):
            draw = np.random.default_rng(0)
            scale = 1.0 / (1.0 + np.arange(degree + 1)) ** 2
            for _ in range(5):
                pairs = int(draw.integers(1, 4))
                phis, psis = ([(draw.standard_normal(degree + 1) + 1j * draw.standard_normal(degree + 1)) * scale
                               for _ in range(pairs)] for _ in range(2))
                a = sum(dense_mult(space, p, n) @ dense_mult(space, s, n).conj().T for p, s in zip(phis, psis))
                h = a.conj().T @ a
                _, lo, hi = band_lambda_min(band_from_dense(-h, min(2 * degree, n - 1)))
                assert lo <= np.linalg.eigvalsh(-h)[0] <= hi, (n, degree)
