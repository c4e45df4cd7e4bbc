"""Smallest eigenvalues of Hermitian tridiagonal and banded matrices.

Eigenvalues of a Hermitian tridiagonal matrix depend on the off-diagonal
entries only through their moduli (conjugation by a unimodular diagonal),
so complex off-diagonals are accepted and replaced by their moduli.  The
eigenvalue comes from LAPACK ``dstebz`` (``lapack``): bisection on Sturm
counts (W. Kahan, "Accurate eigenvalues of a symmetric tri-diagonal
matrix", Stanford CS TR 41, 1966), O(N) work per step and O(N) memory,
which keeps truncation sizes up to 10^6 practical.  ``dstebz`` releases
the GIL, so callers may solve independent tridiagonals on several
threads (``characters`` runs one per CPU); memory is then O(threads * N).

For a band of half-width q, ``band_lambda_min`` estimates the smallest
eigenvalue by inverse iteration on banded Cholesky factors and encloses
it in a proven bracket: the lower end from a Cholesky factorization of
A - sigma I that succeeds (S. M. Rump, "Verification of positive
definiteness", BIT 46, 2006), the upper end from a Rayleigh quotient, both
widened by rounding-error bounds.  O(N q^2) work and O(N q) memory.
"""

from __future__ import annotations

import math

import numpy as np

from . import lapack

_U = float(np.finfo(float).eps) / 2  # unit roundoff
# bounds the absolute error of a product that underflows (Higham, §2.2);
# sums of subnormals are exact
_ETA = math.ulp(0.0)


def gamma_k(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1 - k * _U)


def lambda_min_batch(diags, offs) -> np.ndarray:
    """Smallest eigenvalues of a batch of Hermitian tridiagonals.

    ``diags`` has shape (B, N) and ``offs`` shape (B, N-1).  Safe to call
    from several threads at once: LAPACK runs with the GIL released.
    """
    diags = np.atleast_2d(np.asarray(diags, dtype=float))
    offs = np.atleast_2d(np.asarray(offs))
    b, n = diags.shape
    if n == 0:
        raise ValueError("empty matrix")
    if offs.shape != (b, n - 1):
        raise ValueError(f"off-diagonal shape {offs.shape} does not match {(b, n - 1)}")
    return np.array([lapack.dstebz(d, e) for d, e in zip(diags, np.abs(offs))], dtype=float)


def _shifted_cholesky(band: np.ndarray, sigma: float):
    """(lo, factor) from a Cholesky factorization of A - sigma I that
    succeeds, with lo <= lambda_min(A) proven; None if it fails.

    A is the Hermitian matrix whose lower band (LAPACK storage, half-width
    q, diagonal read as real) is ``band``.  Why lo is proven: if ``?pbtrf``
    completes on the rounded shift A' = fl(A - sigma I), its factor R
    satisfies R^H R = A' + dA with |dA| <= gamma_k |R^H| |R| (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3).
    Each entry of R is formed from at most q + 1 products, q additions and
    one division or square root; a complex product is exact to
    sqrt(2) gamma_2 <= gamma_3 and a complex quotient to
    sqrt(2) gamma_4 <= gamma_6 (Lemma 3.5), so Lemma 8.4's argument gives
    k = q + 9.  Column i of R has norm d_i with
    d_i^2 = (R^H R)_ii <= A'_ii / (1 - gamma_k), and |R^H| |R| <= d d^T
    entrywise (Cauchy-Schwarz) on the w = min(N, 2q + 1) entries per row
    that the band allows, so ||dA||_2 <= gamma_k w max_i d_i^2.  The shift
    itself moves each diagonal entry by at most u |a_ii - sigma|.  R^H R is
    positive semidefinite, hence
        lambda_min(A) >= sigma - (gamma_{q+10} w + u) max_i (a_ii - sigma),
    where one more unit in gamma absorbs 1/(1 - gamma_k) and the rounding
    of the bound itself, and lo is rounded down.  Underflow adds at most
    8 (q + 2) eta per entry, eta the smallest subnormal, for the scaled
    matrices of ``band_lambda_min`` (entries below 1, shifts above
    -2(2q + 1), so r_ii below sqrt(4q + 3)).
    """
    # in LAPACK's order, so that the factor overwrites it once err is read
    shifted = band.copy(order="F")
    shifted[0] = band[0].real - sigma
    err = _cholesky_error(band.shape[0] - 1, band.shape[1], float(np.max(shifted[0].real)))
    try:
        factor = lapack.zpbtrf(shifted)
    except np.linalg.LinAlgError:
        return None
    return float(np.nextafter(sigma - err, -math.inf)), factor


def _cholesky_error(q: int, n: int, top: float) -> float:
    """``_shifted_cholesky``'s bound on the backward error of a band
    Cholesky whose shifted diagonal is at most ``top``."""
    w = min(n, 2 * q + 1)
    return (gamma_k(q + 10) * w + _U) * max(top, 0.0) + 8 * (q + 2) * w * _ETA


def band_lambda_min(band) -> tuple:
    """(lambda_min, lo, hi) of the Hermitian matrix A whose lower band is
    ``band`` (shape (q + 1, N), ``band[d, i] = A[i + d, i]``, entries with
    i + d >= N ignored, diagonal read as real), with lo <= lambda_min(A) <=
    hi proven.

    The estimate comes from inverse iteration, from a seeded start, on the
    banded Cholesky factor of A - sigma I: sigma = 0 at first (-2r when A
    does not factor, r the largest absolute row sum of A).  Once the
    Rayleigh quotient rho settles, A is refactored at rho minus a margin
    (the residual plus rounding and backward-error bounds), provided that
    shift is at least 64 times closer to rho; a shift whose factorization
    fails is stepped down fourfold, and caps later ones.  Each successful
    factorization gives a proven lo (``_shifted_cholesky``).  Iteration
    stops when rho stops falling with no closer shift left, or after 100
    steps.  ``lambda_min`` is the Rayleigh quotient of the last iterate
    by a ``?hbmv`` product, and hi that quotient plus a bound on its
    rounding.
    """
    band = np.asarray(band, dtype=complex)
    n = band.shape[1]
    if n == 0:
        raise ValueError("empty matrix")
    q = min(band.shape[0], n) - 1  # rows past N - 1 hold no entry
    # A's entries alone, in a copy that zeroes the slots past the matrix:
    # a leading block of a wider band can be passed as a view
    band = np.where(np.arange(n) < n - np.arange(q + 1)[:, None], band[: q + 1], 0)
    if not np.all(np.isfinite(band)):
        raise ValueError("band entries must be finite")
    # work on A / 2^e with its largest entry in [1/2, 1): the scaling is
    # exact, and neither the iterates nor the bounds under- or overflow
    e = math.frexp(max(float(np.max(np.abs(band.real))), float(np.max(np.abs(band.imag)))))[1]
    for part in (band.real, band.imag):
        np.ldexp(part, -e, out=part)
    rows = np.abs(band[0].real)
    for d in range(1, q + 1):
        mag = np.abs(band[d])
        rows += mag                     # row i, right of the diagonal
        rows[d:] += mag[: n - d]        # row i, left of the diagonal
    radius = float(rows.max())          # >= ||A||_2
    if radius == 0.0:
        return 0.0, 0.0, 0.0            # A = 0
    top = float(np.max(band[0].real))

    # Rounding of a Rayleigh quotient: y = A x by ?hbmv (rows of at most
    # 2q + 1 complex products, gamma_{2q+3}), x^H y and x^H x (length N,
    # gamma_{N+2}) and one division give |rho_computed - rho| <=
    # gamma_{N+2q+6} (radius + |rho|), using x^T |A| x <= radius ||x||^2;
    # one more unit covers the rounding of radius and of the bound, and
    # 4 (N + 2q + 1) eta the underflows of unit-norm iterates.
    def slack(rho):
        return gamma_k(n + 2 * q + 7) * (radius + abs(rho)) + 4 * (n + 2 * q + 1) * _ETA

    def margin(rho, res):
        # the eigenvalue nearest rho lies within res of it; below that go
        # the quotient's rounding and twice the Cholesky backward error
        return res + slack(rho) + 2 * _cholesky_error(q, n, top - rho)

    sigma = 0.0
    got = _shifted_cholesky(band, sigma)
    if got is None:
        sigma = -2.0 * radius
        got = _shifted_cholesky(band, sigma)
    lo, factor = got
    # ceiling: the lowest shift whose factorization failed, so that
    # lambda_min(A) is (up to rounding) below it
    ceiling = math.inf

    def refactor(rho, m):
        # shifts rho - m, rho - 4m, ... while each is below every failed
        # shift and at least 64 times closer to rho than sigma
        nonlocal sigma, lo, factor, ceiling
        while rho - m < ceiling and 64 * m <= rho - sigma:
            got = _shifted_cholesky(band, rho - m)
            if got is not None:
                sigma, (lo, factor) = rho - m, got
                return True
            ceiling = rho - m
            m *= 4
        return False

    x = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, n))
    x /= np.linalg.norm(x)
    best, last_drop = math.inf, math.inf
    for _ in range(100):
        # z = (A - sigma I)^{-1} x for a unit x, so the Rayleigh quotient of
        # z is sigma + t and its residual (x - t z) / ||z||
        z = lapack.zpbtrs(factor, x)
        z_norm = np.linalg.norm(z)
        t = float(np.vdot(x, z).real) / z_norm**2
        rho, res = sigma + t, float(np.linalg.norm(x - t * z)) / z_norm
        x = z / z_norm
        drop, best, m = best - rho, min(best, rho), margin(rho, res)
        # refactor once the quotient has stopped falling, or while it
        # converges slowly (its steps shrink by less than 16 times) and
        # has settled to within the margin: from the start shift -2r, or
        # inside a close cluster, the quotient would otherwise fall for
        # all 100 steps
        settled = not drop > _U * radius
        slow = last_drop > drop > last_drop / 16 and drop <= m
        last_drop = drop
        if (settled or slow) and refactor(rho, m):
            last_drop = math.inf
        elif settled:
            break
    y = lapack.zhbmv(band, x)
    # lambda_min(A) >= lo, so a quotient rounded below lo reads as lo
    best = max(float(np.vdot(x, y).real / np.vdot(x, x).real), lo)
    hi = best + slack(best)
    # scaling back is exact unless it lands among the subnormals
    return (
        math.ldexp(best, e),
        float(np.nextafter(math.ldexp(lo, e), -math.inf)),
        float(np.nextafter(math.ldexp(hi, e), math.inf)),
    )
