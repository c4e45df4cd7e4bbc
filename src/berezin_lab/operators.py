"""Truncated multiplication operators and their singular-value probes.

Everything is materialized in the orthonormal monomial frame of a kernel
space (or directly over a weight sequence), where multiplication by a
polynomial c_0 + c_1 z + ... is the banded matrix with entry
(i+j, i) = c_j * a_i a_{i+1} ... a_{i+j-1}.  Truncations use compression
semantics: the N x N matrix is the leading principal submatrix of every
larger one.

Probes in this module turn operator-theoretic statements into numbers:
commutator norms against kernel projections, smallest singular values of
stacked columns, boundary lower bounds for sums M_phi M_psi^*, coordinate
column contractivity on ball spaces, deviation of dilated symbols, and
closed-range / Fredholm trend evidence over doubling truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprs
from .spaces import BallSpace, KernelSpace, kernel_vector
from .shifts import WeightSequence
from .trends import TrendThresholds, classify_trend


@dataclass
class TruncatedOperator:
    """An N x N complex matrix tagged with its provenance."""

    mat: np.ndarray
    label: str = ""
    space: object = None

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.mat.conj().T, label=f"({self.label})^*", space=self.space)

    def norm(self) -> float:
        return float(np.linalg.svd(self.mat, compute_uv=False)[0])


@dataclass
class ColumnOperator:
    """A stack of equal-size blocks, each optionally adjointed."""

    blocks: list
    adjoint_flags: list = field(default_factory=list)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("column operator needs at least one block")
        if not self.adjoint_flags:
            self.adjoint_flags = [False] * len(self.blocks)
        if len(self.adjoint_flags) != len(self.blocks):
            raise ValueError("one adjoint flag per block required")
        sizes = {b.mat.shape for b in self.blocks}
        if len(sizes) != 1:
            raise ValueError(f"blocks disagree in shape: {sorted(sizes)}")

    def block_matrices(self):
        for blk, flag in zip(self.blocks, self.adjoint_flags):
            yield blk.mat.conj().T if flag else blk.mat

    def stacked(self) -> np.ndarray:
        return np.vstack(list(self.block_matrices()))


def shift_weights_of(space_or_weights, n: int) -> np.ndarray:
    """Shift weights a_0..a_{n-1} of a space, weight sequence, or array."""
    if isinstance(space_or_weights, KernelSpace):
        return space_or_weights.shift_weights(n)
    if isinstance(space_or_weights, WeightSequence):
        if space_or_weights.n < n:
            raise ValueError(
                f"weight sequence holds {space_or_weights.n} weights, need {n}"
            )
        return space_or_weights.a[:n]
    a = np.asarray(space_or_weights, dtype=float)
    if len(a) < n:
        raise ValueError(f"need {n} weights, got {len(a)}")
    return a[:n]


def mult_matrix(space_or_weights, coeffs, n: int, label: str | None = None) -> TruncatedOperator:
    """Banded truncation of multiplication by sum_j c_j z^j.

    Exact on polynomials of degree < n - deg(phi); the band entries come
    from ``exprs.band_matrix``.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    deg = len(coeffs) - 1
    if deg >= n:
        raise ValueError(f"polynomial degree {deg} needs truncation above {n}")
    a = shift_weights_of(space_or_weights, max(n - 1, 0))
    mat = exprs.band_matrix(coeffs, a, n, n)
    return TruncatedOperator(mat, label=label or f"M({_short(coeffs)})", space=space_or_weights)


def _short(coeffs) -> str:
    return ",".join(exprs.format_complex(c) for c in coeffs)


def poly_eval(coeffs, z):
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return np.polyval(coeffs[::-1], z)


def sup_on_circle(coeffs, n_grid: int = 4096):
    """(max |phi|, argmax point) over an equispaced grid of the circle."""
    theta = 2 * np.pi * np.arange(n_grid) / n_grid
    vals = np.abs(poly_eval(coeffs, np.exp(1j * theta)))
    j = int(np.argmax(vals))
    return float(vals[j]), complex(np.exp(1j * theta[j]))


def projection_Pz(space: KernelSpace, z: complex, n: int, tol: float = 1e-13) -> TruncatedOperator:
    """Rank-one orthogonal projection onto the truncated kernel line at z."""
    kv = kernel_vector(space, z, tol)
    v = np.zeros(n, dtype=complex)
    m = min(kv.n, n)
    v[:m] = kv.coeffs[:m]
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("kernel vector truncates to zero at this size")
    v /= nrm
    return TruncatedOperator(np.outer(v, v.conj()), label=f"P(z={z:g})", space=space)


def _circle_sup_precondition(coeffs, bound: float = 1.0, n_grid: int = 4096, slack: float = 1e-9):
    sup, at = sup_on_circle(coeffs, n_grid)
    if sup > bound + slack:
        raise ValueError(
            f"symbol sup-norm {sup:.6g} exceeds {bound} on the circle "
            f"(offending grid point {at:.6g})"
        )
    return sup


def commutator_norm_PzMphi(
    space: KernelSpace,
    coeffs,
    z: complex,
    n: int | None = None,
    tol: float = 1e-13,
) -> float:
    """||[P_z, M_phi]|| for a polynomial symbol with sup-norm at most 1.

    [P, M] has rank at most two (P is rank one), so the norm comes from a
    2-column QR reduction rather than a dense SVD; truncations adapted to
    z = 0.999 stay cheap.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    _circle_sup_precondition(coeffs)
    kv = kernel_vector(space, z, tol)
    if n is None:
        n = kv.n + len(coeffs)
    if n < kv.n:
        raise ValueError(f"truncation {n} below the adaptive kernel size {kv.n}")
    a = space.shift_weights(max(n - 1, 0))
    v = np.zeros(n, dtype=complex)
    v[: kv.n] = kv.coeffs
    node = exprs.MPoly(tuple(coeffs))
    u = exprs.apply(node, a, v)            # M v
    w = exprs.apply(exprs.MPolyAdj(tuple(coeffs)), a, v)  # M^* v
    # [P, M] = v w^* - u v^*  =  [v, -u] [w, v]^*
    left = np.column_stack([v, -u])
    right = np.column_stack([w, v])
    _, rl = np.linalg.qr(left)
    _, rr = np.linalg.qr(right)
    return float(np.linalg.svd(rl @ rr.conj().T, compute_uv=False)[0])


def column_sigma_min(col: ColumnOperator) -> float:
    """Smallest singular value of the stacked column.

    Computed as sqrt(lambda_min(sum B_i^* B_i)) by a dense Hermitian
    eigensolve.
    """
    n = col.blocks[0].n
    acc = np.zeros((n, n), dtype=complex)
    for b in col.block_matrices():
        acc += b.conj().T @ b
    lam = float(np.linalg.eigvalsh(acc)[0])
    return math.sqrt(max(lam, 0.0))


def norm_lower_bound_check(
    space_or_weights,
    phis,
    psis,
    n: int,
    grid_n: int = 4096,
    tol: float = 0.01,
) -> dict:
    """sigma_max(sum_i M_phi_i M_psi_i^*) against the circle sup of
    |sum_i phi_i conj(psi_i)|; PASS when the norm is not below sup - tol.

    Because adjoints lower degree, the truncated sum equals the
    compression of the full operator, so sigma_max increases to the true
    norm with n.
    """
    if not phis or not psis or len(phis) != len(psis):
        raise ValueError("need matching non-empty polynomial families")
    acc = np.zeros((n, n), dtype=complex)
    for cp, cq in zip(phis, psis):
        mp = mult_matrix(space_or_weights, cp, n)
        mq = mult_matrix(space_or_weights, cq, n)
        acc += mp.mat @ mq.mat.conj().T
    sigma_max = float(np.linalg.svd(acc, compute_uv=False)[0])

    theta = 2 * np.pi * np.arange(grid_n) / grid_n
    zs = np.exp(1j * theta)
    total = np.zeros(grid_n, dtype=complex)
    for cp, cq in zip(phis, psis):
        total += poly_eval(cp, zs) * np.conj(poly_eval(cq, zs))
    grid_sup = float(np.max(np.abs(total)))
    j = int(np.argmax(np.abs(total)))
    return {
        "sigma_max": sigma_max,
        "grid_sup": grid_sup,
        "sup_at": complex(zs[j]),
        "margin": sigma_max - grid_sup,
        "passed": bool(sigma_max >= grid_sup - tol),
        "n": n,
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# ball spaces


def ball_coordinate_matrices(ball: BallSpace) -> list:
    """Coordinate multipliers on the degree-graded monomial basis."""
    basis = ball.basis()
    index = {alpha: i for i, alpha in enumerate(basis)}
    mats = []
    for i in range(ball.n):
        m = np.zeros((len(basis), len(basis)))
        for alpha, col in index.items():
            beta = list(alpha)
            beta[i] += 1
            beta = tuple(beta)
            if beta in index:
                m[index[beta], col] = math.sqrt(ball.norms[beta] / ball.norms[alpha])
        mats.append(TruncatedOperator(m, label=f"M(z_{i + 1})", space=ball))
    return mats


def spherical_contraction_check(ball: BallSpace, tol: float = 1e-10) -> dict:
    """Contractivity of the stacked coordinate multipliers.

    The certified quantity is the norm of the column with adjoint entries,
    sqrt(||sum_i M_i M_i^*||) -- the orientation in which the coordinate
    tuple of these spaces is a contraction.  The literal column of the
    M_i themselves has norm sqrt(||sum_i M_i^* M_i||), which reaches
    sqrt(n) at the constant function and is reported for audit only.
    """
    mats = ball_coordinate_matrices(ball)
    col_adj = ColumnOperator(mats, adjoint_flags=[True] * len(mats))
    stacked = col_adj.stacked()
    row_norm = float(np.linalg.svd(stacked, compute_uv=False)[0])
    col_literal = ColumnOperator(mats)
    col_norm = float(np.linalg.svd(col_literal.stacked(), compute_uv=False)[0])
    return {
        "kind": ball.kind,
        "n": ball.n,
        "degree_cap": ball.degree_cap,
        "row_norm": row_norm,
        "column_norm_literal": col_norm,
        "bound": 1.0 + tol,
        "passed": bool(row_norm <= 1.0 + tol),
    }


# ---------------------------------------------------------------------------
# symbol dilation


def wot_dilation_probe(space_or_weights, coeffs, t_schedule, block: int = 20) -> dict:
    """Entrywise deviation of M_{phi_t} from M_phi on a leading block,
    phi_t(z) = phi(t z), i.e. coefficients c_j t^j.

    The deviations must be non-increasing along an increasing t-schedule
    and tend to zero as t -> 1.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    ts = [float(t) for t in t_schedule]
    if any(not 0 <= t <= 1 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t schedule must increase within [0, 1]")
    ncoef = min(len(coeffs), block)
    base = mult_matrix(space_or_weights, coeffs[:block], block).mat
    deviations = []
    for t in ts:
        ct = coeffs[:block].copy()
        ct[:ncoef] = ct[:ncoef] * (t ** np.arange(ncoef))
        dev = np.max(np.abs(mult_matrix(space_or_weights, ct, block).mat - base))
        deviations.append(float(dev))
    monotone = all(b <= a + 1e-12 for a, b in zip(deviations, deviations[1:]))
    return {
        "t_schedule": ts,
        "deviations": deviations,
        "non_increasing": bool(monotone),
        "block": block,
    }


# ---------------------------------------------------------------------------
# Fredholm and closed-range probes


def fredholm_probe(space: KernelSpace, z0: complex, n_schedule=(128, 256, 512), tol: float = 1e-12) -> dict:
    """Evidence that M_{z - z0} is Fredholm of index -1.

    Reports the residual ||(M_{z-z0})^* k_z0|| (zero up to the kernel
    tail; the reported ``tail`` is the norm-level bound, the square root
    of the omitted mass) and the second-smallest singular value of the
    truncation along a doubling schedule (bounded away from zero exactly
    when the cokernel stays one-dimensional).
    """
    z0 = complex(z0)
    if abs(z0) >= 1:
        raise ValueError(f"z0 = {z0} lies outside the open unit disk")
    kv = kernel_vector(space, z0, tol)
    coeffs = np.array([-z0, 1.0], dtype=complex)
    n = kv.n + 2
    a = space.shift_weights(n - 1)
    v = np.zeros(n, dtype=complex)
    v[: kv.n] = kv.coeffs
    residual = float(np.linalg.norm(exprs.apply(exprs.MPolyAdj(tuple(coeffs)), a, v)))

    sigma2 = {}
    sigma_min = math.inf
    for m in n_schedule:
        mat = mult_matrix(space, coeffs, m).mat
        svals = np.linalg.svd(mat, compute_uv=False)
        sigma2[int(m)] = float(svals[-2])
        sigma_min = float(svals[-1])
    return {
        "z0": z0,
        "residual": residual,
        "tail": max(math.sqrt(kv.tail), float(np.finfo(float).eps)),
        "sigma_min": sigma_min,
        "sigma2": sigma2,
        "sigma2_trend": classify_trend(list(sigma2.values())),
    }


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite product of disk automorphism factors (z - a)/(1 - conj(a) z)."""

    zeros: tuple

    def __post_init__(self):
        for a in self.zeros:
            if abs(a) >= 1:
                raise ValueError(
                    f"factor zero {a} has modulus >= 1; the cleared-pole form "
                    "acquires a pole inside the closed disk"
                )

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for a in self.zeros:
            out = out * (z - a) / (1 - np.conj(a) * z)
        return out

    def coefficients(self, length: int):
        """Taylor coefficients c_0..c_{length-1} plus an l^1 tail bound.

        Factor series are truncated at a working length beyond ``length``;
        the reported tail adds the mass of the computed convolution past
        ``length`` and the analytic remainder of the factor truncations
        (each factor has l^1 norm 1 + 2|a|).
        """
        if not self.zeros:
            out = np.zeros(length, dtype=complex)
            out[0] = 1.0
            return out, 0.0
        work = length + 64
        k = np.arange(work)
        l1 = [1.0 + 2.0 * abs(a) for a in self.zeros]
        conv = np.array([1.0 + 0j])
        trunc_err = 0.0
        for i, a in enumerate(self.zeros):
            fac = np.zeros(work, dtype=complex)
            fac[0] = -a
            fac[1:] = (1 - abs(a) ** 2) * np.conj(a) ** (k[1:] - 1)
            tau = (
                (1 - abs(a) ** 2) * abs(a) ** (work - 1) / (1 - abs(a))
                if a != 0
                else 0.0
            )
            others = float(np.prod([l1[j] for j in range(len(l1)) if j != i]))
            trunc_err += tau * others
            conv = np.convolve(conv, fac)
        tail = float(np.sum(np.abs(conv[length:]))) + trunc_err
        return conv[:length], tail


def tall_mult_matrix(space_or_weights, coeffs, n_cols: int) -> np.ndarray:
    """Multiplication matrix keeping every output row.

    With rows up to n_cols + deg the matrix represents phi * p exactly for
    polynomials p of degree < n_cols, so B^H B is the true Gram of the
    products -- no truncation loss at the top edge.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n_rows = n_cols + len(coeffs) - 1
    a = shift_weights_of(space_or_weights, max(n_rows - 1, 0))
    return exprs.band_matrix(coeffs, a, n_rows, n_cols)


def closed_range_probe(
    space: KernelSpace,
    phi,
    grid=None,
    n_schedule=(128, 256, 512, 1024),
    thresholds: TrendThresholds | None = None,
    tol: float = 1e-12,
) -> dict:
    """Two-channel evidence on whether M_phi is bounded below.

    (a) the infimum over a disk grid of ||phi k_z||^2 / ||k_z||^2 (the
    kernel-vector lower bound), and (b) lambda_min of the true Gram of
    phi * (polynomials of degree < N) over a doubling schedule, classified
    as vanishing / bounded_below / inconclusive.
    """
    if isinstance(phi, BlaschkeProduct):
        length = max(n_schedule) // 2
        coeffs, series_tail = phi.coefficients(length)
        # extend until the series tail is negligible against the probe
        while series_tail > tol and length < 2 ** 16:
            length *= 2
            coeffs, series_tail = phi.coefficients(length)
        label = f"blaschke{tuple(phi.zeros)}"
    else:
        coeffs = np.atleast_1d(np.asarray(phi, dtype=complex))
        series_tail = 0.0
        label = f"M({_short(coeffs)})"

    if grid is None:
        radii = [0.0, 0.3, 0.6, 0.85, 0.95]
        grid = [
            r * np.exp(2j * np.pi * k / 12) for r in radii for k in range(12 if r else 1)
        ]
    kernel_vals = {}
    for z in grid:
        kv = kernel_vector(space, z, tol)
        n = kv.n + len(coeffs)
        a = space.shift_weights(max(n - 1, 0))
        v = np.zeros(n, dtype=complex)
        v[: kv.n] = kv.coeffs
        kernel_vals[complex(z)] = float(
            np.linalg.norm(exprs.apply(exprs.MPoly(tuple(coeffs)), a, v)) ** 2
        )

    lam = {}
    for m in n_schedule:
        b = tall_mult_matrix(space, coeffs, m)
        gram = b.conj().T @ b
        lam[int(m)] = float(np.linalg.eigvalsh(gram)[0])
    classification = classify_trend(list(lam.values()), thresholds)
    return {
        "phi": label,
        "kernel_bound_inf": min(kernel_vals.values()),
        "kernel_bound_argmin": min(kernel_vals, key=kernel_vals.get),
        "kernel_values": kernel_vals,
        "lambda_min": lam,
        "classification": classification,
        "series_tail": series_tail,
    }
