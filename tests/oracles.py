"""Reference constructions and checks shared by several test modules."""

import dataclasses
import math

import numpy as np
import scipy.linalg

from berezin_lab import exprs, spaces
from berezin_lab.shifts import _dyadic_prefix, _sandwich
from berezin_lab.spaces import N_CAP, KernelSpace, TruncationError, kernel_vector


def dense_tridiagonal(diag, off) -> np.ndarray:
    """Materialize the Hermitian tridiagonal with diagonal ``diag`` and
    superdiagonal ``off`` (the subdiagonal is its conjugate)."""
    diag = np.asarray(diag)
    off = np.asarray(off)
    n = len(diag)
    m = np.zeros((n, n), dtype=np.result_type(diag, off, float))
    m[np.arange(n), np.arange(n)] = diag
    if n > 1:
        m[np.arange(n - 1), np.arange(1, n)] = off
        m[np.arange(1, n), np.arange(n - 1)] = np.conj(off)
    return m


def dense_from_band(band) -> np.ndarray:
    """The Hermitian matrix whose lower band (LAPACK storage,
    ``band[d, i] = A[i + d, i]``) is ``band``, diagonal read as real."""
    band = np.asarray(band, dtype=complex)
    n = band.shape[1]
    m = np.zeros((n, n), dtype=complex)
    for d in range(1, min(band.shape[0], n)):
        i = np.arange(n - d)
        m[i + d, i] = band[d, : n - d]
    return m + m.conj().T + np.diag(band[0].real)


def hardy_gram(coeffs, n: int) -> np.ndarray:
    """T_N(|phi|^2), the N x N Toeplitz matrix of |phi|^2 on the circle.

    On H^2, T_phi^* T_phi = T_{|phi|^2} for analytic phi, so this is the
    Gram of phi * (polynomials of degree < N) with every row kept.  Entry
    (m, i) is the Fourier coefficient r_{m-i} of |phi|^2, read off the
    autocorrelation r_d = sum_s conj(c_s) c_{s+d} (r_{-d} = conj(r_d)).
    """
    c = np.asarray(coeffs, dtype=complex)
    r = np.zeros(n, dtype=complex)
    auto = np.correlate(c, c, mode="full")[len(c) - 1 :]
    r[: min(n, len(auto))] = auto[:n]
    return scipy.linalg.toeplitz(r, r.conj())


def band_from_dense(m, q: int) -> np.ndarray:
    """Lower band of half-width q of a square matrix, in LAPACK storage."""
    n = m.shape[0]
    band = np.zeros((q + 1, n), dtype=complex)
    for d in range(min(q + 1, n)):
        band[d, : n - d] = np.diagonal(m, -d)
    return band


def band_by_entries(coeffs, a, n_rows, n_cols):
    """Multiplication by sum_j c_j z^j over weights a as a dense n_rows x
    n_cols matrix, one entry at a time and independent of ``exprs``:
    entry (i+j, i) = c_j a_i a_{i+1} ... a_{i+j-1}, the weight product
    formed left to right."""
    mat = np.zeros((n_rows, n_cols), dtype=complex)
    for j, c in enumerate(coeffs):
        for i in range(min(n_cols, n_rows - j)):
            p = 1.0
            for t in range(j):
                p *= a[i + t]
            mat[i + j, i] = c * p
    return mat


def dense_mult(space, coeffs, n: int) -> np.ndarray:
    """M_phi truncated to n x n, as ``exprs.materialize`` builds it."""
    return exprs.materialize(exprs.MPoly(tuple(coeffs)), space.shift_weights(n - 1), n)


def tall_mult_matrix(space, coeffs, n_cols: int) -> np.ndarray:
    """Multiplication matrix keeping every output row.

    With rows up to n_cols + deg the matrix represents phi * p exactly for
    polynomials p of degree < n_cols, so B^H B is the true Gram of the
    products -- no truncation loss at the top edge.  Entry (i+j, i) is
    c_j sqrt(h_(i+j) / h_i), read off the norm table one band at a time
    in O(n_cols * deg) work; ``materialize`` of the (n_cols + deg)-square
    truncation would cost O((n_cols + deg)^2 * deg), about 4e9 complex
    operations for the degree-1023 series at n_cols = 1024.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n_rows = n_cols + len(coeffs) - 1
    h = space.h_table(n_rows - 1)
    i = np.arange(n_cols)
    b = np.zeros((n_rows, n_cols), dtype=complex)
    for j, c in enumerate(coeffs):
        b[i + j, i] = c * np.sqrt(h[i + j] / h[i])
    return b


def dense_sum_sigma_max(space, phis, psis, n: int) -> float:
    """sigma_max of sum_i M_phi_i M_psi_i^* truncated to n x n, from the
    dense multipliers and a full SVD."""
    acc = np.zeros((n, n), dtype=complex)
    for cp, cq in zip(phis, psis):
        acc += dense_mult(space, cp, n) @ dense_mult(space, cq, n).conj().T
    return float(np.linalg.svd(acc, compute_uv=False)[0])


def wot_deviation(space, coeffs, t: float, block: int) -> float:
    """The dilation probe's deviation by its definition: the largest entry
    of M_phi - M_phi_t on the block x block truncation, phi_t having the
    coefficients c_j t^j, both multipliers dense."""
    c = np.asarray(coeffs, dtype=complex)[:block]
    diff = dense_mult(space, c, block) - dense_mult(space, c * t ** np.arange(len(c)), block)
    return float(np.max(np.abs(diff)))


def kernel_at(kv) -> np.ndarray:
    """The kernel vector k_z in the frame of ``kv`` (its coefficients, then
    the pad zeros): the real line times conj(w)^k, with each power formed
    directly."""
    return kv.v * np.conj(kv.w) ** np.arange(len(kv.v))


def projection_Pz(space: KernelSpace, z: complex, n: int, tol: float = 1e-13) -> np.ndarray:
    """Rank-one orthogonal projection onto the truncated kernel line at z."""
    kv = kernel_vector(space, z, tol)
    v = np.zeros(n, dtype=complex)
    m = min(kv.n, n)
    v[:m] = kernel_at(kv)[:m]
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("kernel vector truncates to zero at this size")
    v /= nrm
    return np.outer(v, v.conj())


def column_sigma_min(blocks) -> float:
    """Smallest singular value of the column stacking the square arrays
    ``blocks`` (adjoint a block before passing it to stack its adjoint).

    Computed as sqrt(lambda_min(sum B_i^* B_i)) by a dense Hermitian
    eigensolve.
    """
    if not blocks:
        raise ValueError("column needs at least one block")
    shapes = {b.shape for b in blocks}
    if len(shapes) != 1:
        raise ValueError(f"blocks disagree in shape: {sorted(shapes)}")
    n = blocks[0].shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for b in blocks:
        acc += b.conj().T @ b
    lam = float(np.linalg.eigvalsh(acc)[0])
    return math.sqrt(max(lam, 0.0))


def ball_coordinate_matrices(ball) -> list:
    """The n coordinate multipliers of a ``spaces.BallSpace`` as dense
    matrices on its degree-graded monomial basis: column alpha of M_i holds
    sqrt(h_(alpha+e_i) / h_alpha) in row alpha + e_i, zero past the cap."""
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
        mats.append(m)
    return mats


def window_residuals(w, lam: complex, k: int, d: int):
    """Residual norms ||(T-l)x|| and ||(T-l)^*x|| of the oscillatory
    window vector x = d^(-1/2) sum_{j=1..d} e^(-ij theta) e_{k+j}."""
    lam = complex(lam)
    if d < 1 or k < 0:
        raise ValueError("need window k >= 0, d >= 1")
    if k + d + 1 >= w.n:
        raise ValueError(f"window [{k}, {k + d + 1}] runs past {w.n} weights")
    theta = math.atan2(lam.imag, lam.real)
    n = k + d + 2
    x = np.zeros(n, dtype=complex)
    j = np.arange(1, d + 1)
    x[k + j] = np.exp(-1j * j * theta) / math.sqrt(d)
    a = w.a[:n]
    tx = np.zeros(n, dtype=complex)
    tx[1:] = a[:-1] * x[:-1]
    tax = np.zeros(n, dtype=complex)
    tax[:-1] = a[:-1] * x[1:]
    fwd = float(np.linalg.norm(tx - lam * x))
    back = float(np.linalg.norm(tax - np.conj(lam) * x))
    return fwd, back


def reject_constant(name):
    """``parse_constant`` for ``json.loads`` that refuses NaN and infinities."""
    raise ValueError(f"non-standard JSON constant {name}")


# ---------------------------------------------------------------------------
# allocating references for the in-place kernel vector and evaluator: every
# table size tried builds its norm table afresh (never a view of the prefix
# the space keeps) and its terms, the frame is a fresh zero vector with
# weights from a table of its own, and every operation of the evaluator
# returns a new array.  Their bits are what the package must reproduce.


def fresh_space(space: KernelSpace) -> KernelSpace:
    """The same space with no prefix formed past its ``h`` field (a
    module-level space keeps its prefixes from one test to the next)."""
    return dataclasses.replace(space)


def table_reach(space: KernelSpace) -> int:
    """The length of the norm table the space has formed so far."""
    return len(space._kept["h"])


def count_table_builds(monkeypatch) -> list:
    """The last indices n of the norm tables h_0..h_n that
    ``spaces._h_values`` builds from now on, in order."""
    built = []
    h_values = spaces._h_values
    monkeypatch.setattr(spaces, "_h_values", lambda kind, n, s=None: built.append(n) or h_values(kind, n, s))
    return built


def fresh_h_table(space: KernelSpace, n: int) -> np.ndarray:
    """h_0..h_n formed anew: a built-in table by ``spaces._h_values`` at
    this length, a custom one copied from its field."""
    if space.extendable:
        return spaces._h_values(space.kind, n, space.s)
    if n >= len(space.h):
        raise TruncationError(f"custom norm table of length {len(space.h)} exhausted; requested h_0..h_{n}")
    return space.h[: n + 1].copy()


def fresh_shift_weights(space: KernelSpace, n: int) -> np.ndarray:
    """a_0..a_(n-1) from a fresh table of their own."""
    h = fresh_h_table(space, n)
    return np.sqrt(h[1:] / h[:-1])


def _reference_table(space: KernelSpace, n: int):
    """(h, n): h_0..h_(n+1) for truncation n, or the whole of a custom
    table that ends before h_(n+1), with n moved to its last index."""
    try:
        return fresh_h_table(space, n + 1), n
    except TruncationError:
        if not space.extendable and len(space.h) >= 2:
            h = fresh_h_table(space, len(space.h) - 1)
            return h, len(h) - 1
        raise


def _reference_tail(space: KernelSpace, h, r2: float, n: int, partial: float):
    """The rounded-out relative tail bound of ``spaces.kernel_vector`` for
    truncation n against the partial sum ``partial``."""
    if r2 == 0.0:
        return 0.0
    if space.extendable:
        a_min_sq = h[n] / h[n - 1]
    else:
        a_min_sq = float(np.min(space.h[n:] / space.h[n - 1 : -1]))
    q = r2 / a_min_sq
    tail_abs = math.inf if q >= 1 else r2 ** n / h[n] / (1.0 - q)
    return tail_abs / partial * (1.0 + 4.0 * n * float(np.finfo(float).eps))


def _reference_tails(space: KernelSpace, h, r2: float, ms, partial):
    """The relative tail bounds of ``_reference_tail`` at the indices ms,
    against the partial sums ``partial`` (one per index), as one array."""
    if r2 == 0.0:
        return np.zeros(len(ms))
    if space.extendable:
        a_min_sq = h[ms] / h[ms - 1]
    else:
        ratios = space.h[1:] / space.h[:-1]
        a_min_sq = np.minimum.accumulate(ratios[::-1])[::-1][ms - 1]
    q = r2 / a_min_sq
    t = r2 ** ms.astype(float) / h[ms]
    with np.errstate(divide="ignore", invalid="ignore"):
        tail_abs = np.where(q < 1, t / (1.0 - q), np.inf)
    return tail_abs / partial * (1.0 + 4.0 * ms * float(np.finfo(float).eps))


def reference_kernel_vector(space: KernelSpace, z: complex, tol: float = 1e-12, n_start: int = 32):
    """(coeffs, norm_sq, tail) of ``spaces.kernel_vector``: the smallest
    truncation n >= n_start (the last index of a custom table shorter than
    that) whose stop test passes, with its partial sum from ``np.sum``;
    coeffs is the real line, sqrt(r2^k / h_k) / sqrt(norm_sq), or
    (|z|^k / sqrt(h_k)) / sqrt(norm_sq) when r2^(n-1) / h_(n-1) is below
    the normal range.

    Tables reaching 2 n_start, 4 n_start, ... (capped at ``N_CAP``, or the
    end of a custom table) are tried in turn, each with one power array:
    its cumulative sum gives every partial sum at once, and the first index
    that passes with those proposes a candidate.  The test with the
    pairwise sum decides around it: the candidate steps down while the
    index below it passes and up while it fails.  No closed form is read."""
    z = complex(z)
    r2 = abs(z) ** 2
    size = 2 * n_start
    while True:
        h, size = _reference_table(space, min(size, N_CAP))
        n0 = min(n_start, size)
        terms = r2 ** np.arange(size) / h[:size]

        def decide(m):
            partial = float(np.sum(terms[:m]))
            return partial, _reference_tail(space, h, r2, m, partial)

        ms = np.arange(n0, size + 1)
        passing = np.flatnonzero(_reference_tails(space, h, r2, ms, np.cumsum(terms)[ms - 1]) < tol)
        if len(passing):
            n = int(ms[passing[0]])
            while n > n0 and decide(n - 1)[1] < tol:
                n -= 1
            while n < size and not decide(n)[1] < tol:
                n += 1
            partial, rel = decide(n)
            if rel < tol:
                if terms[n - 1] >= np.finfo(float).tiny:
                    raw = np.sqrt(terms[:n])
                else:
                    raw = abs(z) ** np.arange(n, dtype=float) / np.sqrt(h[:n])
                return raw / math.sqrt(partial), partial, rel
        if not space.extendable and size >= len(space.h) - 1:
            raise TruncationError(
                f"norm table of length {len(space.h)} cannot reach tail {tol:g} "
                f"at |z| = {abs(z):.4g} (reached {decide(size)[1]:.3g})"
            )
        if size >= N_CAP:
            raise TruncationError(f"kernel tail {decide(size)[1]:.3g} still above {tol:g} at truncation cap {N_CAP}")
        size *= 2


def reference_kernel_frame(space: KernelSpace, z: complex, tol: float = 1e-12, pad: int = 0):
    """(coeffs, a, v) of ``spaces.kernel_vector(space, z, tol, pad)``: the
    coefficients, the frame's shift weights and the zero-padded frame."""
    coeffs, _, _ = reference_kernel_vector(space, z, tol, n_start=max(32, pad))
    n = len(coeffs) + pad
    v = np.zeros(n)
    v[: len(coeffs)] = coeffs
    return coeffs, fresh_shift_weights(space, max(n - 1, 0)), v


def _reference_shift_series(coeffs, adjointed, a, v):
    n = v.shape[0]
    w = a[: n - 1].reshape((-1,) + (1,) * (v.ndim - 1))
    src, dst = (slice(1, None), slice(None, -1)) if adjointed else (slice(None, -1), slice(1, None))
    out = None
    shifted = v
    for j, c in enumerate(coeffs):
        if j > 0:
            nxt = np.zeros_like(v)
            np.multiply(w, shifted[src], out=nxt[dst])
            shifted = nxt
        if c != 0:
            term = (np.conj(c) if adjointed else c) * shifted
            out = term if out is None else out + term
    return np.zeros_like(v) if out is None else out


def reference_apply(node, a, vec):
    """``exprs.apply`` with a new array for every operation."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(vec, dtype=complex)
    if isinstance(node, (exprs.MPoly, exprs.MPolyAdj)):
        return _reference_shift_series(node.coeffs, isinstance(node, exprs.MPolyAdj), a, v)
    if isinstance(node, exprs.Scale):
        return node.c * reference_apply(node.node, a, v)
    if isinstance(node, exprs.Product):
        out = v
        for f in reversed(node.factors):
            out = reference_apply(f, a, out)
        return out
    if isinstance(node, exprs.Sum):
        out = np.zeros_like(v)
        for sign, term in node.terms:
            out = out + sign * reference_apply(term, a, v)
        return out
    if isinstance(node, exprs.Dense):
        out = np.zeros_like(v)
        k = min(v.shape[0], node.mat.shape[0])
        out[:k] = node.mat[:k, :k] @ v[:k]
        return out
    if isinstance(node, exprs.Commutator):
        return reference_apply(node.a, a, reference_apply(node.b, a, v)) - reference_apply(
            node.b, a, reference_apply(node.a, a, v)
        )
    raise TypeError(f"not an expression node: {node!r}")


def reference_power_bounded_check(w, r: float, m_max: int) -> dict:
    """``shifts.power_bounded_check`` by a scan of every m-window for each
    m <= m_max, O(N m_max): the extremes read off the windows themselves,
    and each dyadic entry's sandwich tested on every window."""
    s = _dyadic_prefix(w.n)
    sup_norm = 0.0
    sup_at = 0
    inf_low = np.inf
    inf_at = 0
    dyadic = {}
    for m in range(1, m_max + 1):
        win = s[m:] - s[:-m]
        hi = r ** (float(np.min(win)) - m / 3.0)  # ||A^m||
        lo = r ** (float(np.max(win)) - m / 3.0)  # min rescaled window product
        if hi > sup_norm:
            sup_norm, sup_at = hi, m
        if lo < inf_low:
            inf_low, inf_at = lo, m
        if m & (m - 1) == 0:  # m = 2^k: the bound is the sandwich's lower half
            k = m.bit_length() - 1
            dyadic[m] = {
                "norm": hi,
                "bound": r ** (-np.ldexp(1.0, -k) / 3.0),
                "ok": bool(np.all(_sandwich(win, k)[0])),
            }

    return {
        "r": r,
        "m_max": m_max,
        "sup_power_norm": sup_norm,
        "sup_at": sup_at,
        "inf_lower_window": inf_low,
        "inf_at": inf_at,
        "dyadic_bounds": dyadic,
        "all_dyadic_ok": all(d["ok"] for d in dyadic.values()),
    }
