"""Truncated multiplication operators and their singular-value probes.

Everything is materialized in the orthonormal monomial frame of a kernel
space, where multiplication by a polynomial c_0 + c_1 z + ... is the
banded matrix with entry (i+j, i) = c_j * a_i a_{i+1} ... a_{i+j-1}.
Truncations use compression semantics: the N x N matrix is the leading
principal submatrix of every larger one.

Probes in this module turn operator-theoretic statements into numbers:
commutator norms against kernel projections, boundary lower bounds for
sums M_phi M_psi^*, coordinate column contractivity on ball spaces,
deviation of dilated symbols, and closed-range / Fredholm trend evidence
over doubling truncations.  Both trends read one path,
``_bracketed_trend``: the Gram of phi * (polynomials of degree < N) is
formed as a band straight from the norm table, by one GEMM at the
largest N whose leading blocks serve the smaller N, never from the
multiplier; its lambda_min comes with a proven bracket from banded
Cholesky factorizations (``tridiag.band_lambda_min``), and the verdict
reads the ends of that bracket.  The closed-range kernel channel reads
the same coefficients and norm table, by one convolution per point.  The
boundary lower bound forms no dense matrix either: sigma_max of the
truncated sum is sqrt(lambda_max) of the band of A^H A, read off
``exprs.apply`` on one comb block and solved by LAPACK's band
eigensolver (``_truncated_sum_sigma_max``).  The commutator is two
projections, the ball columns read two diagonal Grams, and the dilation
probe's deviations have a closed form over the norm table, so no probe
here builds a dense multiplier or factors a dense block;
``exprs.materialize`` is the one builder of dense multipliers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import exprs, lapack
from .spaces import BallSpace, KernelSpace, TruncationError, kernel_vector
from .trends import BOUNDED_BELOW, INCONCLUSIVE, VANISHING, TrendThresholds, classify_trend
from .tridiag import band_lambda_min, gamma_k


def _short(coeffs) -> str:
    return ",".join(exprs.format_complex(c) for c in coeffs)


def poly_eval(coeffs, z):
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return np.polyval(coeffs[::-1], z)


def circle_grid(n: int) -> np.ndarray:
    """The n equispaced points e^(2 pi i k / n) of the unit circle: the one
    grid that every circle sup (``sup_on_circle``, normbound's and the
    product peak's) reads."""
    return np.exp(2j * np.pi * np.arange(n) / n)


# the points of the circle grid that the symbol sups read
CIRCLE_GRID_N = 4096


def grid_max(zs, values) -> tuple:
    """(max |values|, the first point of ``zs`` where it is attained): the
    one grid maximum that the circle sups read."""
    mags = np.abs(values)
    j = int(np.argmax(mags))
    return float(mags[j]), complex(zs[j])


def sup_on_circle(coeffs, n_grid: int = CIRCLE_GRID_N):
    """(max |phi|, argmax point) over ``circle_grid(n_grid)``."""
    zs = circle_grid(n_grid)
    return grid_max(zs, poly_eval(coeffs, zs))


def circle_sup_precondition(coeffs):
    """The grid sup of |phi| on the circle, raising ``ValueError`` unless it
    is at most 1 up to a 1e-9 slack (a NaN sup is rejected too)."""
    sup, at = sup_on_circle(coeffs)
    if not sup <= 1.0 + 1e-9:
        raise ValueError(
            f"symbol sup-norm {sup:.6g} on the circle is not at most 1.0 "
            f"(offending grid point {at:.6g})"
        )
    return sup


def commutator_norm_PzMphi(space: KernelSpace, coeffs, z: complex, tol: float = 1e-13) -> float:
    """||[P_z, M_phi]|| for a polynomial symbol with sup-norm at most 1.

    With P = v v^* on the unit kernel vector v, u = M v and w = M^* v,
    [P, M] = v ((I - P) w)^* - ((I - P) u) v^*: two rank-one pieces with
    orthogonal ranges and orthogonal co-ranges, so the norm is the larger of
    ||(I - P) u|| and ||(I - P) w|| (on the full space the second is 0 and
    the first sqrt(B(M_phi^* M_phi)(z) - |phi(z)|^2)).  The unitary U of
    the kernel line (``KernelVector``) leaves both norms as they are, so v
    is the real line and M its rotated tree, and c = sum_i v_i u_i.  Both
    are formed in place and summed by pairwise ``np.sum``, as in
    ``exprs.inner``: the error is a few ulps of ||u||, as a QR's, and the
    bits do not depend on the BLAS thread count.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    circle_sup_precondition(coeffs)
    node = exprs.MPoly(tuple(coeffs))
    kv = kernel_vector(space, z, tol, pad=exprs.raise_degree(node))
    a, v = kv.a, kv.v
    u = exprs.apply(exprs.rotate(node, kv.w), a, v)  # M v
    w = exprs.apply(exprs.rotate(exprs.MPolyAdj(node.coeffs), kv.w), a, v)  # M^* v
    c = np.sum(v * u)  # real when M's rotated coefficients are, as then u and w are
    u -= c * v
    w -= np.conj(c) * v
    return max(math.sqrt(float(np.sum(x.real * x.real + x.imag * x.imag))) for x in (u, w))


def _truncated_sum_sigma_max(space: KernelSpace, phis, psis, n: int) -> float:
    """sigma_max of A = sum_i P M_phi_i P M_psi_i^* P on the first n
    coordinates, as sqrt(lambda_max) of H = A^H A, with no n x n array.

    A reaches max deg(phi_i) below its diagonal and max deg(psi_i) above
    it, so H has half-width q = min(max deg(phi_i) + max deg(psi_i),
    n - 1).  Its lower band is read off A^H A C for one comb block C
    whose column c holds e_k for every k = c mod (2q + 1): the columns
    H e_k that one column of C sums have disjoint supports, each within q
    of its k.  Both products are ``exprs.apply`` of the operator tree;
    LAPACK's band solver (``lapack.zhbevx``) gives lambda_max in O(n^2 q)
    time and O(n q) memory.
    """
    phis = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in phis]
    psis = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in psis]
    for c in (*phis, *psis):
        if len(c) > n:
            raise ValueError(f"polynomial degree {len(c) - 1} needs truncation above {n}")

    def products(lefts, rights):
        """The tree sum_i M_left_i M_right_i^*."""
        return exprs.Sum(tuple(
            (1, exprs.Product((exprs.MPoly(tuple(cl)), exprs.MPolyAdj(tuple(cr))))) for cl, cr in zip(lefts, rights)
        ))

    q = min(max(map(len, phis)) + max(map(len, psis)) - 2, n - 1)
    width = min(n, 2 * q + 1)
    k = np.arange(n)
    comb = np.zeros((n, width), dtype=complex)
    comb[k, k % width] = 1.0
    a = space.shift_weights(max(n - 1, 0))
    columns = exprs.apply(products(psis, phis), a, exprs.apply(products(phis, psis), a, comb)).reshape(-1)
    band = np.zeros((q + 1, n), dtype=complex)
    for d in range(q + 1):
        # H[k + d, k] sits in row k + d, column k mod width, of A^H A C
        band[d, : n - d] = columns[(k[: n - d] + d) * width + k[: n - d] % width]
    # LAPACK reads the diagonal as real, dropping its rounding-level imaginary parts
    return math.sqrt(max(float(lapack.zhbevx(band)), 0.0))


def norm_lower_bound_check(
    space: KernelSpace,
    phis,
    psis,
    n: int,
    tol: float = 0.01,
) -> dict:
    """sigma_max(sum_i M_phi_i M_psi_i^*) against the sup of
    |sum_i phi_i conj(psi_i)| on ``circle_grid(CIRCLE_GRID_N)``; PASS when
    the norm is not below sup - tol.

    Because adjoints lower degree, the truncated sum equals the
    compression of the full operator, so sigma_max increases to the true
    norm with n.
    """
    if not phis or not psis or len(phis) != len(psis):
        raise ValueError("need matching non-empty polynomial families")
    if any(np.size(c) == 0 for c in (*phis, *psis)):
        raise ValueError("every polynomial needs at least one coefficient")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tol}")
    sigma_max = _truncated_sum_sigma_max(space, phis, psis, n)

    zs = circle_grid(CIRCLE_GRID_N)
    total = np.zeros(CIRCLE_GRID_N, dtype=complex)
    for cp, cq in zip(phis, psis):
        total += poly_eval(cp, zs) * np.conj(poly_eval(cq, zs))
    grid_sup, sup_at = grid_max(zs, total)
    return {
        "sigma_max": sigma_max,
        "grid_sup": grid_sup,
        "sup_at": sup_at,
        "margin": sigma_max - grid_sup,
        "passed": bool(sigma_max >= grid_sup - tol),
        "n": n,
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# ball spaces


_SPHERICAL_BOUND = 1.0 + 1e-10


def spherical_contraction_check(ball: BallSpace) -> dict:
    """Contractivity of the stacked coordinate multipliers.

    The certified quantity is the norm of the column with adjoint entries,
    sqrt(||sum_i M_i M_i^*||) -- the orientation in which the coordinate
    tuple of these spaces is a contraction.  The literal column of the
    M_i themselves has norm sqrt(||sum_i M_i^* M_i||), which reaches
    sqrt(n) at the constant function and is reported for audit only.

    Both sums are diagonal on the monomial basis, with h the stored norms:
    sum_i M_i M_i^* holds the sum over i with alpha_i >= 1 of h_alpha /
    h_(alpha-e_i), and sum_i M_i^* M_i the sum of h_(alpha+e_i) / h_alpha
    over alpha + e_i within the cap.  An entry is n rounded quotients added
    in order and its root one more rounding, so each norm is within
    gamma_(n+1) (< 3e-14 for n <= 256) of its exact value for h, far inside
    the 1e-10 slack.
    """
    h = ball.norms
    row_sq = col_sq = 0.0
    for alpha, h_alpha in h.items():
        row = col = 0.0
        for i in range(ball.n):
            down, up = (alpha[:i] + (alpha[i] + d,) + alpha[i + 1 :] for d in (-1, 1))
            if down in h:
                row += h_alpha / h[down]
            if up in h:
                col += h[up] / h_alpha
        row_sq, col_sq = max(row_sq, row), max(col_sq, col)
    row_norm = math.sqrt(row_sq)
    return {
        "kind": ball.kind,
        "n": ball.n,
        "degree_cap": ball.degree_cap,
        "row_norm": row_norm,
        "column_norm_literal": math.sqrt(col_sq),
        "bound": _SPHERICAL_BOUND,
        "passed": bool(row_norm <= _SPHERICAL_BOUND),
    }


# ---------------------------------------------------------------------------
# symbol dilation


def wot_dilation_probe(space: KernelSpace, coeffs, t_schedule, block: int = 20) -> dict:
    """Entrywise deviation of M_{phi_t} from M_phi on the leading block x
    block truncation, phi_t(z) = phi(t z), i.e. coefficients c_j t^j.

    Band j of M_phi holds c_j sqrt(h_(i+j) / h_i) at (i+j, i), so the
    deviation is max_j |c_j| (1 - t^j) W_j with W_j = max over i < block - j
    of sqrt(h_(i+j) / h_i); no block x block array is formed.  t^j is
    formed by repeated multiplication from 1.0, and rounding is monotone,
    so each term is non-increasing in t: along an increasing schedule the
    deviations are non-increasing exactly, and they vanish at t = 1.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    if block < 1:
        raise ValueError(f"block must be at least 1, got {block}")
    ts = [float(t) for t in t_schedule]
    if any(not 0 <= t <= 1 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t schedule must increase within [0, 1]")
    h = space.h_table(block - 1)
    # band 0 never moves; only the nonzero bands 1..block-1 can deviate
    bands = np.flatnonzero(coeffs[1:block]) + 1
    w2 = np.array([np.max(h[j:] / h[: block - j]) for j in bands])
    scale = np.abs(coeffs[bands]) * np.sqrt(w2)
    deviations = []
    for t in ts:
        powers = np.multiply.accumulate(np.full(block - 1, t))  # t^1 .. t^(block-1)
        dev = np.max((1.0 - powers[bands - 1]) * scale, initial=0.0)
        deviations.append(float(dev))
    monotone = all(b <= a for a, b in zip(deviations, deviations[1:]))
    return {
        "t_schedule": ts,
        "deviations": deviations,
        "non_increasing": bool(monotone),
        "block": block,
    }


# ---------------------------------------------------------------------------
# Fredholm and closed-range probes

# longest Blaschke series prefix a closed-range probe will build: the series itself takes about
# 1 ms, so a large p costs one Gram band at the largest N (a GEMM of O(N p q)) and its solves.
# On a 2-vCPU VM bergman with zero 0.99 (p = 4095) took 0.7-1.1 s and 126 MB at the default
# schedule and 2.3-3.2 s and 372 MB to N = 2048; to N = 2048 in process, p = 8191 took 3.4 s and
# p = 16383 5.1 s, each 384 MB, so the cap could be 2^14.  ``series`` raises before any grid work
SERIES_CAP = 2 ** 12


def _truncation_schedule(n_schedule) -> list:
    """The probes' truncation schedule as ints, rejected unless it is a
    strictly increasing, non-empty run of integers >= 2."""
    ns = list(n_schedule)
    if (
        not ns
        or any(not isinstance(m, numbers.Integral) or m < 2 for m in ns)
        or any(b <= a for a, b in zip(ns, ns[1:]))
    ):
        raise ValueError(
            f"truncation schedule must be strictly increasing integers >= 2, got {ns}"
        )
    return [int(m) for m in ns]


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite product of disk automorphism factors (z - a)/(1 - conj(a) z)."""

    zeros: tuple

    def __post_init__(self):
        for a in self.zeros:
            if not abs(a) < 1:
                raise ValueError(
                    f"factor zero {a} is not inside the open unit disk; the "
                    "cleared-pole form acquires a pole inside the closed disk"
                )

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for a in self.zeros:
            out = out * (z - a) / (1 - np.conj(a) * z)
        return out

    def coefficients(self, length: int):
        """Taylor coefficients c_0..c_{length-1} plus an l^1 tail bound.

        Factor series and the running product are truncated at a working
        length beyond ``length``, so k zeros cost O(k length^2).  The
        reported tail adds the product's mass past ``length``, the mass cut
        from the running product times the l^1 norms of the later factors
        (each factor has l^1 norm 1 + 2|a|), and the analytic remainder of
        the factor truncations.  The first ``length`` terms are those of
        the uncut convolution, bit for bit: a term of a convolution reads
        no term of the product past its own index.
        """
        if not self.zeros:
            out = np.zeros(length, dtype=complex)
            out[0] = 1.0
            return out, 0.0
        work = length + 64
        k = np.arange(work)
        l1 = [1.0 + 2.0 * abs(a) for a in self.zeros]
        conv = np.array([1.0 + 0j])
        tail = 0.0
        for i, a in enumerate(self.zeros):
            fac = np.zeros(work, dtype=complex)
            fac[0] = -a
            fac[1:] = (1 - abs(a) ** 2) * np.conj(a) ** (k[1:] - 1)
            tau = (
                (1 - abs(a) ** 2) * abs(a) ** (work - 1) / (1 - abs(a))
                if a != 0
                else 0.0
            )
            tail += tau * math.prod(l1[:i] + l1[i + 1 :])
            full = np.convolve(conv, fac)
            conv = full[:work]
            tail += float(np.sum(np.abs(full[work:]))) * math.prod(l1[i + 1 :])
        tail += float(np.sum(np.abs(conv[length:])))
        return conv[:length], tail

    def series(self, tol: float):
        """``coefficients`` at the shortest length 2, 4, 8, ... whose tail
        is at most ``tol``; raises ``TruncationError`` if ``SERIES_CAP``
        terms do not reach it."""
        length = 2
        while True:
            coeffs, tail = self.coefficients(length)
            if tail <= tol:
                return coeffs, tail
            if length >= SERIES_CAP:
                raise TruncationError(
                    f"the Blaschke product with zeros {_short(self.zeros)} needs more than "
                    f"{SERIES_CAP} series terms to reach tail {tol:g} (tail {tail:.3g} at {SERIES_CAP})"
                )
            length *= 2


def _gram_band(space: KernelSpace, coeffs, n_cols: int) -> np.ndarray:
    """Lower band (``tridiag.band_lambda_min`` storage, half-width
    q = min(p, n_cols - 1), p = len(coeffs) - 1) of the Gram G = B^H B of
    phi * (polynomials of degree < n_cols), B the multiplier keeping all
    n_cols + p rows, so that no row is lost at the top edge.

    As B[m + s, m] = c_s sqrt(h_{m+s} / h_m), G[m, i] = T[m, m - i] /
    (sqrt(h_i) sqrt(h_m)) with T[m, d] = sum_s h_{m+s} conj(c_s) c_{s+d}:
    one real-by-complex GEMM of the norm table's Hankel matrix with the
    coefficient products, summed over blocks of n_cols values of s, in
    O((q + 1) n_cols + p) memory.
    """
    p = len(coeffs) - 1
    q = min(p, n_cols - 1)
    h = space.h_table(n_cols + p - 1)
    # padded with q zeros, so that row s of the window view is c_s .. c_{s+q}
    c = np.concatenate((coeffs, np.zeros(q, dtype=complex)))
    c_windows = sliding_window_view(c, q + 1)
    # T^T in Fortran order is T in C order, viewed as complex at the end
    t = np.zeros((2 * (q + 1), n_cols), order="F")
    for s0 in range(0, p + 1, n_cols):
        s1 = min(s0 + n_cols, p + 1)
        # hankel[m, s] = h_{m+s0+s}; products[s, d] = conj(c_{s0+s}) c_{s0+s+d},
        # whose real and imaginary parts the GEMM sees as adjacent columns
        hankel = np.ascontiguousarray(sliding_window_view(h[s0 : s1 + n_cols - 1], s1 - s0))
        products = c[s0:s1, None].conj() * c_windows[s0:s1]
        # scipy's ``dgemm`` (``lapack.dgemm``) adds each block's product
        # into t inside the GEMM; numpy's t + a @ b rounds differently once
        # a block has 512 terms, which would change the bytes of p >= N
        # probes such as bergman --blaschke 0.99 --n-schedule 128 256 512
        t = lapack.dgemm(products.view(float).T, hankel.T, t)
        # freed before the next block (or the band) is formed
        del hankel, products
    t = t.T.view(complex)
    root = np.sqrt(h[:n_cols])
    band = np.zeros((q + 1, n_cols), dtype=complex)
    for d in range(q + 1):
        band[d, : n_cols - d] = t[d:, d] / root[d:] / root[: n_cols - d]
    return band


def _gram_lambda_min(space: KernelSpace, coeffs, band) -> tuple:
    """(lambda_min, [lo, hi]) of the Gram G of phi * (polynomials of degree
    < N) whose lower band ``band`` (N columns) ``_gram_band`` formed, lo <=
    lambda_min(G) <= hi proven for G computed exactly from the stored c and
    h (B below is its multiplier, as in ``_gram_band``).

    ``tridiag.band_lambda_min`` brackets the computed band G'; both ends
    widen by a bound on ||G' - G||_2 (Weyl).  Rounding (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., §3.1, Lemmas 3.3 and
    3.5): each part of conj(c_s) c_{s+d} is in error by gamma_2 |c_s|
    |c_{s+d}|, and each part of T is a real sum of p + 1 products (in any
    order, blocks included), so |T' - T| <= sqrt(2) gamma_{p+3} S with
    S[m, d] = sum_s h_{m+s} |c_s| |c_{s+d}|; the roots and divisions add
    gamma_4 relatively.  As S[m, d] / sqrt(h_i h_m) = sum_s |B[m+s, m]|
    |B[m+s, i]| = (|B|^T |B|)[m, i],
        |G' - G| <= kappa |B|^T |B| + U   entrywise,
        kappa = sqrt(2) gamma_{p+3} (1 + gamma_4) + gamma_4 <= gamma_{2p+10}.
    Underflow: a product or quotient that underflows is in error by at
    most eta, the smallest subnormal; sums of subnormals are exact.  Two
    per part of conj(c_s) c_{s+d}, scaled by h_{m+s}, and p + 1 per part
    of T, divided by sqrt(h_i h_m) >= h_min, then one in the first
    division, divided by sqrt(h_i), and one in the second give
        U = 2 eta ((p + 1) (2 h_max + 1) / h_min + 1 / sqrt(h_min) + 1),
    h_min = min(h_0 .. h_{N-1}), h_max = max(h_0 .. h_{N+p-1}).  By
    Cauchy-Schwarz (|B|^T |B|)[m, i] <= max_j G_jj <= (max_j G'_jj + U) /
    (1 - kappa), a diagonal having no cancellation; with w = min(N, 2q + 1)
    entries per row,
        ||G' - G||_2 <= (gamma_{2p+12} max_j G'_jj + 2 U) w,
    two more units absorbing 1 / (1 - kappa) and the bound's rounding.
    G is positive semidefinite, so lo >= 0.
    """
    p = len(coeffs) - 1
    n_cols = band.shape[1]
    lam, lo, hi = band_lambda_min(band)
    h = space.h_table(n_cols + p - 1)
    h_min = float(np.min(h[:n_cols]))
    under = 2 * math.ulp(0.0) * (
        (p + 1) * (2 * float(np.max(h)) + 1) / h_min + 1 / math.sqrt(h_min) + 1
    )
    w = min(n_cols, 2 * band.shape[0] - 1)
    err = (gamma_k(2 * p + 12) * float(np.max(band[0].real)) + 2 * under) * w
    lo = max(float(np.nextafter(lo - err, -math.inf)), 0.0)
    # a quotient rounded below the proven lo reads as lo
    return max(lam, lo), [lo, float(np.nextafter(hi + err, math.inf))]


def _bracketed_trend(space: KernelSpace, coeffs, ns, thresholds: TrendThresholds | None) -> tuple:
    """(lambda_min, lambda_min_bracket, classification) of the Gram of
    phi * (polynomials of degree < N), for each N of the schedule ``ns``,
    each from ``_gram_lambda_min``.

    B keeps all N + p rows, so G_N is the leading block of every wider
    Gram: one band is formed, at the largest N, and each N reads a view of
    its leading block.  The classification reads the proven ends of the
    brackets, not lambda_min: ``vanishing`` when ``classify_trend`` says so
    of the hi values, else ``bounded_below`` when it says so of the lo
    values, else ``inconclusive``; so a lambda_min inside its own rounding
    decides nothing.
    """
    band = _gram_band(space, coeffs, ns[-1])
    solved = {m: _gram_lambda_min(space, coeffs, band[: min(len(coeffs), m), :m]) for m in ns}
    lam = {m: v for m, (v, _) in solved.items()}
    brackets = {m: bracket for m, (_, bracket) in solved.items()}
    los, his = zip(*brackets.values())
    if classify_trend(his, thresholds) == VANISHING:
        classification = VANISHING
    elif classify_trend(los, thresholds) == BOUNDED_BELOW:
        classification = BOUNDED_BELOW
    else:
        classification = INCONCLUSIVE
    return lam, brackets, classification


def closed_range_probe(
    space: KernelSpace,
    phi,
    grid=None,
    n_schedule=(128, 256, 512, 1024),
    thresholds: TrendThresholds | None = None,
    tol: float = 1e-12,
) -> dict:
    """Two-channel evidence on whether M_phi is bounded below.

    (a) ||phi k_z||^2 / ||k_z||^2 over a disk grid, whose infimum bounds
    lambda_min of M_phi^* M_phi from above, and (b) lambda_min of the true
    Gram of phi * (polynomials of degree < N) over a doubling schedule,
    classified as vanishing / bounded_below / inconclusive.  Both read phi
    from its coefficients c and the norm table h.  A value of (a) is
    sum_m h_m |(c_w * f)_m|^2, one ``np.convolve`` of c_w = (c_m w^m) with
    the Taylor coefficients f_k = p_k / sqrt(h_k) of the point's kernel
    line p at ``tol`` and phase w (``KernelVector``): a Rayleigh quotient
    of the Gram at a vector of degree below its truncation n_z, so at
    least lambda_min for every N >= n_z.

    A Blaschke product enters as its Taylor series cut at the shortest
    power-of-two length whose l^1 tail is at most ``tol``
    (``BlaschkeProduct.series``; ``TruncationError`` past ``SERIES_CAP``
    terms).  Each lambda_min comes from ``_gram_lambda_min``: inverse
    iteration on banded Cholesky factors of the Gram, which has half-width
    p for the series degree p; ``lambda_min_bracket`` maps each N to a
    proven [lo, hi] around it, lo from a Cholesky factorization that
    succeeds.  The classification reads the proven ends
    (``_bracketed_trend``).  The schedule must be strictly increasing
    integers >= 2.
    """
    ns = _truncation_schedule(n_schedule)
    if isinstance(phi, BlaschkeProduct):
        coeffs, series_tail = phi.series(tol)
        label = f"blaschke{tuple(phi.zeros)}"
    else:
        coeffs = np.atleast_1d(np.asarray(phi, dtype=complex))
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("phi coefficients must be finite")
        series_tail = 0.0
        label = f"M({_short(coeffs)})"

    if grid is None:
        radii = [0.0, 0.3, 0.6, 0.85, 0.95]
        grid = [
            r * np.exp(2j * np.pi * k / 12) for r in radii for k in range(12 if r else 1)
        ]
    vectors = [kernel_vector(space, z, tol) for z in grid]
    # one norm table for both channels, to the longest truncation plus p
    p = len(coeffs) - 1
    h = space.h_table(max([ns[-1]] + [kv.n for kv in vectors]) + p - 1)
    kernel_vals = {}
    for kv in vectors:
        g = np.convolve(coeffs * kv.w ** np.arange(p + 1), kv.coeffs / np.sqrt(h[: kv.n]))
        kernel_vals[kv.z] = float(np.sum(h[: kv.n + p] * (g.real * g.real + g.imag * g.imag)))

    lam, brackets, classification = _bracketed_trend(space, coeffs, ns, thresholds)
    return {
        "phi": label,
        "kernel_bound_inf": min(kernel_vals.values()),
        "kernel_bound_argmin": min(kernel_vals, key=kernel_vals.get),
        "kernel_values": kernel_vals,
        "lambda_min": lam,
        "lambda_min_bracket": brackets,
        "classification": classification,
        "series_tail": series_tail,
    }


def fredholm_probe(
    space: KernelSpace,
    z0: complex,
    n_schedule=(128, 256, 512),
    thresholds: TrendThresholds | None = None,
    tol: float = 1e-12,
) -> dict:
    """Evidence that M_{z - z0} is Fredholm of index -1.

    M_{z - z0} is the weighted shift T - z0, and ker(T - z0)^* is at most
    one-dimensional (a_k x_{k+1} = conj(z0) x_k fixes x by x_0), so the
    operator is Fredholm of index -1 exactly when it is bounded below and
    k_z0 lies in the space.  The residual ||(M_{z-z0})^* k_z0|| shows the
    second: it is zero up to the kernel tail (the reported ``tail`` is the
    norm-level bound, the square root of the omitted mass).  The first is
    the closed-range question for phi = z - z0, answered by the same
    bracketed Gram trend (``_bracketed_trend``, a tridiagonal Gram) along
    the schedule.
    """
    ns = _truncation_schedule(n_schedule)
    z0 = complex(z0)
    coeffs = np.array([-z0, 1.0], dtype=complex)
    node = exprs.MPolyAdj(tuple(coeffs))
    kv = kernel_vector(space, z0, tol, pad=exprs.raise_degree(node))
    residual = float(np.linalg.norm(exprs.apply(exprs.rotate(node, kv.w), kv.a, kv.v)))
    lam, brackets, classification = _bracketed_trend(space, coeffs, ns, thresholds)
    return {
        "z0": z0,
        "residual": residual,
        "tail": max(math.sqrt(kv.tail), float(np.finfo(float).eps)),
        "lambda_min": lam,
        "lambda_min_bracket": brackets,
        "classification": classification,
    }
