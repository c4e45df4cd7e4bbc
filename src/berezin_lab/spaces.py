"""Rotation-invariant kernel Hilbert spaces on the unit disk.

A space is determined by the squared monomial norms ``h_k = ||z^k||^2``.
In the orthonormal frame ``e_k = z^k / sqrt(h_k)`` coordinate
multiplication acts as the weighted shift with weights
``a_k = sqrt(h_{k+1} / h_k)``, and the kernel function is the series
``K(w, z) = sum_k (w conj(z))^k / h_k``.

Built-in families (all contractive, ``a_k <= 1``):

    hardy        h_k = 1                          K = 1/(1 - w conj(z))
    bergman      h_k = 1/(k+1)                    K = 1/(1 - w conj(z))^2
    rs(s)        h_k = 1/C(s+k-1, k),  s >= 1     K = 1/(1 - w conj(z))^s
    mu           h_0 = 2, h_k = 1 (k >= 1)        circle average dtheta/2pi
                                                  plus a unit point mass at 0

``custom`` tables load from CSV (columns ``k`` and ``h``, found by header
name, read through ``formats.read_columns``); their invariants are
validated at load time, a malformed table raises ``ValueError``, and the
table length bounds the usable truncation.

A kernel line is real.  With w = z/|z| (w = 1 at z = 0) and the unitary
U = diag(conj(w)^k), the kernel vector is k_z = U p, p holding the real
coordinates |z|^k / sqrt(h_k) of the kernel at |z|; so the transform
<X k_z, k_z> is <(U^* X U) p, p>, and ``exprs.rotate(X, w)`` is U^* X U.
``kernel_vector`` forms no complex power: each coefficient is the square
root of its term r2^k / h_k, r2 = fl(|z|^2), and so within a few ulps of
r~^k / sqrt(h_k) with r~ = sqrt(r2).  Where the terms underflow
(|z| below about 1e-5 at the shortest truncation) the coefficients are
the powers of |z| itself instead, which keep their digits down to the
subnormal |z|.

``kernel_vector`` truncates at the smallest index whose tail test passes
(its docstring gives the rule and the bracket the test decides in).  Each
term r2^k / h_k is formed once, in an array of the vector's own that
becomes its zero-padded frame, normalized in place, so a vector stays
valid for its whole life.  The space keeps the longest prefixes it has
formed of its norm table, its shift weights and the int32 exponents
0..n, read-only, and every reader (the kernel vectors, the Gram band,
the probes' weights) takes views of them, extended on demand: one norm
table per space, which serves each vector's tail test and its frame's
weights.  Built-in tables are prefix-stable (h_0..h_n do not depend on
how far the table reaches) and the weights are elementwise, so a view
has the bits of a table formed at its own length, whatever order the
requests come in.

On ``mu``: with the circle part normalized to dtheta/2pi the monomials stay
orthogonal with h_0 = 2, h_k = 1, hence shift weights a_0 = 1/sqrt(2),
a_k = 1.  With unnormalized arc length dtheta one gets h_0 = 2*pi + 1,
h_k = 2*pi instead (a_0 = sqrt(2*pi/(2*pi+1))).  This package uses the
normalized convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .formats import read_columns

#: hard cap for adaptive truncations; exceeding it raises instead of looping
N_CAP = 2 ** 20
# a custom table's weights may exceed 1 by this much and still read as contractive
_CONTRACTIVE_SLACK = 1e-12

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

BUILTIN_KINDS = ("hardy", "bergman", "rs", "mu")


class TruncationError(ValueError):
    """Adaptive truncation could not reach the requested tolerance; a
    parameter error, so the CLI exits 2 on it like on any ``ValueError``."""


def _h_values(kind: str, n: int, s: float | None = None) -> np.ndarray:
    """Squared monomial norms h_0..h_n for a built-in kind."""
    if kind == "hardy":
        return np.ones(n + 1)
    if kind == "bergman":
        h = np.arange(1.0, n + 2.0)
        return np.divide(1.0, h, out=h)
    if kind == "rs":
        # h_{k+1} = h_k * (k+1)/(s+k); avoids binomials of large arguments.
        # The ratios are formed in h itself, and the product runs in place
        k = np.arange(n, dtype=float)
        h = np.empty(n + 1)
        h[0] = 1.0
        ratio = np.add(k, 1.0, out=h[1:])
        ratio /= np.add(k, s, out=k)
        np.cumprod(ratio, out=ratio)
        # for large s the product leaves the normal range, where the norms
        # and every term and tail read from them lose their digits, and
        # then underflows to 0, which is no norm; h is non-increasing
        if h[-1] < _TINY:
            k = int(np.argmax(h < _TINY))
            raise TruncationError(f"rs({s:g}) norm h_{k} = {h[k]:.3g} underflows below the normal range")
        return h
    if kind == "mu":
        h = np.ones(n + 1)
        h[0] = 2.0
        return h
    raise ValueError(f"unknown space kind {kind!r}")


@dataclass(frozen=True)
class KernelSpace:
    """A disk kernel space given by its squared monomial norms.

    A custom table also keeps, of its ratios h_(k+1) / h_k, the suffix
    minima as ``floor`` (the smallest ratio from k to the table's end) and
    the prefix maxima of max(1, ratio) as ``ceiling`` (the largest from 0
    to k, at least 1), formed once where the table is validated and read
    by every kernel vector; both are ``None`` on a built-in kind.

    ``_kept`` holds the longest prefixes formed so far of the norm table
    (``h``, starting as a view of the field), the weights (``a``) and the
    exponents (``k``), each read-only; ``h_table``, ``shift_weights`` and
    ``exponents`` return views of them and replace one that is too short.
    A custom table's weights and exponents reach only as far as asked.
    """

    kind: str
    h: np.ndarray
    label: str
    s: float | None = None
    floor: np.ndarray | None = field(default=None, compare=False, repr=False)
    ceiling: np.ndarray | None = field(default=None, compare=False, repr=False)
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        h = self.h.view()
        h.flags.writeable = False
        self._kept["h"] = h

    @property
    def extendable(self) -> bool:
        return self.kind in BUILTIN_KINDS

    def _prefix(self, name: str, length: int, form) -> np.ndarray:
        """The first ``length`` entries of the kept array ``name``, which
        ``form(length)`` replaces when it is shorter."""
        kept = self._kept.get(name)
        if kept is None or len(kept) < length:
            kept = form(length)
            kept.flags.writeable = False
            self._kept[name] = kept
        return kept[:length]

    def h_table(self, n: int) -> np.ndarray:
        """h_0..h_n, extending a built-in table on demand."""
        if n >= len(self.h) and not self.extendable:
            raise TruncationError(
                f"custom norm table of length {len(self.h)} exhausted; "
                f"requested h_0..h_{n}"
            )
        return self._prefix("h", n + 1, lambda m: _h_values(self.kind, m - 1, self.s))

    def shift_weights(self, n: int) -> np.ndarray:
        """a_k = sqrt(h_{k+1}/h_k) for k = 0..n-1."""
        def form(m):
            h = self.h_table(m)
            a = h[1:] / h[:-1]
            return np.sqrt(a, out=a)

        return self._prefix("a", n, form)

    def exponents(self, n: int) -> np.ndarray:
        """The exponents 0..n as int32 (a truncation never passes
        ``N_CAP``, so int32 holds them)."""
        return self._prefix("k", n + 1, lambda m: np.arange(m, dtype=np.int32))


def monomial_norms(kind: str, n: int, s: float | None = None) -> KernelSpace:
    """Materialize h_0..h_n for one of the built-in families.

    ``rs`` requires a finite kernel exponent ``s >= 1``; rs(1) is the
    Hardy space and rs(2) the Bergman space.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1 monomials, got {n}")
    if kind == "rs":
        if s is None or not 1 <= s < math.inf:
            raise ValueError(f"rs kernel exponent must be finite with s >= 1, got {s}")
        label = f"rs({s:g})"
    elif kind in BUILTIN_KINDS:
        s = None
        label = kind
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    return KernelSpace(kind=kind, h=_h_values(kind, n, s), label=label, s=s)


def custom_space(h: np.ndarray, label: str = "custom") -> KernelSpace:
    """Wrap a user-supplied norm table, validating the space invariants."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or len(h) < 2:
        raise ValueError("norm table needs at least h_0 and h_1")
    bad = ~(np.isfinite(h) & (h > 0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"h_{k} = {h[k]} is not positive and finite")
    ratios = h[1:] / h[:-1]
    a = np.sqrt(ratios)
    bad = ~(a <= 1 + _CONTRACTIVE_SLACK)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"contractivity violated: a_{k} = sqrt(h_{k+1}/h_{k}) = {a[k]:.6g} > 1"
        )
    # a ratio below the smallest float reads as a zero weight, which the
    # table does not describe
    if not np.all(a > 0):
        k = int(np.argmin(a))
        raise ValueError(f"h_{k + 1}/h_{k} = {h[k + 1]:.6g}/{h[k]:.6g} underflows to a zero weight")
    floor = np.minimum.accumulate(ratios[::-1])[::-1]
    ceiling = np.maximum.accumulate(np.maximum(ratios, 1.0))
    return KernelSpace(kind="custom", h=h, label=label, floor=floor, ceiling=ceiling)


def load_h_table(path) -> KernelSpace:
    """Load a norm table from CSV with columns ``k`` and ``h``, labelled by its path."""
    ks, hs = read_columns(path, ("k", "h"))
    if ks != list(range(len(ks))):
        raise ValueError("norm table rows must list k = 0,1,2,... in order")
    return custom_space(np.array(hs), label=str(path))


def space_by_name(name: str) -> KernelSpace:
    """The space a command line names: a built-in kind, ``rs(s)``, or
    ``custom:path`` for a norm table CSV."""
    name = name.strip()
    if name.startswith("rs(") and name.endswith(")"):
        return monomial_norms("rs", 8, s=float(name[3:-1]))
    if name.startswith("custom:"):
        return load_h_table(name.split(":", 1)[1])
    return monomial_norms(name, 8)


@dataclass(frozen=True)
class KernelVector:
    """Truncated, normalized kernel line at a point of the disk, in a
    frame for an expression that raises indices by at most ``pad``.

    ``coeffs`` is the real unit vector p of the kernel line at |z|: entry
    k is |z|^k / sqrt(h_k), renormalized over the kept indices.  The
    kernel vector itself is U p with U = diag(conj(w)^k) and the phase
    ``w`` = z/|z| (1 at z = 0); U is diagonal and unitary, so the truncated
    kernel projection is U p p^T U^*, and a tree X meets p as
    ``exprs.rotate(X, w)`` = U^* X U.  ``norm_sq`` is the partial sum of
    the K(z,z) series over the kept indices, and ``tail`` bounds the
    omitted relative mass (rounded outward by 1 + 4 n eps), so the true
    K(z,z) lies in [norm_sq, norm_sq * (1 + tail)].

    ``v`` is ``coeffs`` followed by ``pad`` zeros (``coeffs`` is its
    leading view), an array of the vector's own, and ``a`` the shift
    weights a_0..a_(n+pad-2) of that frame, a read-only view of the
    space's weights (``KernelSpace.shift_weights``).
    """

    z: complex
    w: complex
    coeffs: np.ndarray
    norm_sq: float
    tail: float
    v: np.ndarray = field(repr=False, compare=False)
    a: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def _first_passing(passes, lo: int, hi: int) -> int:
    """The smallest index in (lo, hi] at which ``passes``, false and then
    true along the indices, holds; hi (never tested) when none below does."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def _stop_bound(space: KernelSpace, r2: float, tol: float, n0: int) -> int:
    """For a built-in space, an index from n0 at which ``kernel_vector``'s
    stop test passes at |z|^2 = r2 (unless it is ``N_CAP``), from closed
    forms.

    The terms t_m = C(s + m - 1, m) r2^m (s = 1 for hardy and mu, 2 for
    bergman; mu differs from hardy only in t_0) sum to K = (1 - r2)^-s,
    less 1/2 on mu.  Their ratios q_m = r2 (s + m - 1) / m (m >= 2) never
    grow, so where q_m < 1 the tail past m is at most T_m = t_m / (1 - q_m),
    falling with m, and the partial sum at least L_m = K - T_m.  The bound
    is the first index S at which T_m / L_m, rounded out as the test
    rounds, is below tol (1 - 1e-6).

    The test reads the same T_m against a partial sum of at least L_m, so
    the slack covers rounding alone: the norm table's cumulative product
    (below m eps < 3e-10), the pairwise sum (a few ulps), ``math.lgamma``
    (below 1e-8 in the logarithm up to N_CAP) and q_m (a few ulps, which
    1/(1 - q_m) amplifies to below 1e-7 where 1 - q_m > 1e-8).  With normal
    norms h_m the test passes at S; ``kernel_vector`` still confirms it and
    raises if it fails, so rounding never loosens a tail."""
    if r2 == 0.0:
        return n0
    s = space.s if space.kind == "rs" else (2.0 if space.kind == "bergman" else 1.0)
    log_r2, log_gamma_s = math.log(r2), math.lgamma(s)
    log_full = -s * math.log1p(-r2)
    if space.kind == "mu":
        log_full += math.log1p(-0.5 * (1.0 - r2))
    log_tol = math.log(tol * (1.0 - 1e-6))

    def passes(m: int) -> bool:
        q = r2 * (s + m - 1.0) / m
        if not q < 1.0:
            return False
        log_tail = m * log_r2 + math.lgamma(s + m) - log_gamma_s - math.lgamma(m + 1.0) - math.log1p(-q)
        if not log_tail < log_full:
            return False
        log_low = log_full + math.log1p(-math.exp(log_tail - log_full))
        return log_tail - log_low + math.log1p(4.0 * m * _EPS) < log_tol

    return _first_passing(passes, max(n0, 2) - 1, N_CAP)


def kernel_vector(
    space: KernelSpace, z: complex, tol: float = 1e-12, pad: int = 0, n_start: int = 32
) -> KernelVector:
    """Truncated kernel vector with relative tail below ``tol``.

    The truncation is the smallest N >= n0 = max(n_start, pad) (for a
    custom table shorter than that, its last index) whose stop test
    passes: rel_N = t_N / (1 - q_N) / partial_N * (1 + 4 N eps) < tol, with
    t_N = r2^N / h_N, partial_N the pairwise ``np.sum`` of the first N
    terms, and q_N = r2 / a^2 the ratio of a geometric majorant of the
    omitted terms: a^2 = h_N / h_(N-1) on a built-in space (whose weights
    never decrease), the smallest ratio h_(k+1) / h_k from k = N - 1 to
    the end of a custom table (assumed not to dip below it past the end).
    The bound falls and the partial sum grows with N, so the test fails
    below N and passes from N on.  Capped at ``N_CAP``.

    A lower bound on the partial sum gives hi, where the test passes:
    ``_stop_bound`` on a built-in space; on a custom table an index (by
    bisection over [n0, end]) that passes against
    (1 - r2^n) / ((1 - r2) h_0 g^n), with g = ``ceiling[n - 1]`` bounding
    the ratios below n, or the table's end.  The terms are formed up to hi
    and the test is confirmed there, else the table-end or cap
    ``TruncationError`` is raised.  partial_hi bounds every shorter partial
    sum, so lo, the last index that fails even against it, takes no sum to
    find (it is hi - 1 at every benchmark point), and the test bisects
    over (lo, hi], forming no further sum when hi - lo = 1.

    The vector is the real kernel line at |z| with the phase w = z/|z|
    beside it (``KernelVector``): coefficient k is sqrt(t_k / partial) for
    the term t_k, in the buffer that held the terms, or
    |z|^k / sqrt(h_k partial) where the terms underflow.  The truncation
    and tail come from the real series alone.

    ``pad`` is the index raise of the expression the vector will meet: the
    truncation starts at max(n_start, pad), so every coordinate a ``Dense``
    block of size ``pad`` reads holds a kernel value, and ``pad`` zeros
    follow the coefficients in ``v`` so that products never hit its top
    edge.

    The space's norm table is read up to h_(hi+pad-1) (h_hi at pad 0, and
    no further than a custom table's end), its weights up to the frame's
    and its exponents up to hi - 1, each a view of the prefix the space
    keeps (``KernelSpace``).  The terms and the frame are one array of the
    vector's own.  The powers r2^k are formed with an array base
    (``fill(r2)``, then ``np.power`` against the exponents), which takes
    numpy's contiguous loop and gives the bits of ``np.power(r2, k)``.
    """
    z = complex(z)
    if not abs(z) < 1:
        raise ValueError(f"point z = {z} lies outside the open unit disk")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    r2 = abs(z) ** 2
    n0 = max(n_start, pad)
    if space.extendable:
        floor = None
        hi = _stop_bound(space, r2, tol, n0)
    else:
        h, floor, ceiling = space.h, space.floor, space.ceiling
        end = min(len(h) - 1, N_CAP)
        n0 = min(n0, end)

    def tail(m: int, partial: float) -> float:
        """rel_m against ``partial``, rounded outward."""
        if r2 == 0.0:
            return 0.0
        q = r2 / (h[m] / h[m - 1] if floor is None else floor[m - 1])
        tail_abs = math.inf if q >= 1 else r2 ** m / h[m] / (1.0 - q)
        # Outward rounding.  With u = eps/2, r2 = fl(|z|^2) = |z|^2 (1 + d),
        # |d| <= 3u (an ulp from abs, half an ulp from squaring).  Where the
        # majorant is exact (a constant ratio past m: hardy, mu) rel equals
        # r2^m / (1 - r2^m), whose logarithmic derivative in r2 is
        # m (1 + rel), so d moves it by at most 3m (1 + tol) u.  The
        # arithmetic adds 2u per term (power, division), log2(m) u for the
        # pairwise sum, 2u for q and 2u for the two last divisions; 1/(1 - q)
        # amplifies the error of q by q/(1 - q) <= m/ln(1 + 1/tol), because
        # rel < tol forces r2^m < tol/(1 + tol).  For tol <= 1e-3 and
        # m >= 32 all of it stays below 4mu = 2m eps; the factor doubles
        # that and stays below 4 N_CAP eps < 1e-9.  On bergman and rs(s),
        # s >= 2, the majorant's ratio exceeds the true one by about
        # (s - 1) r2/m^2, a far larger margin.
        return tail_abs / partial * (1.0 + 4.0 * m * _EPS)

    if not space.extendable:
        # the bound on partial_m, with a slack of 1e-6 against its rounding
        def bound_passes(m: int) -> bool:
            low = (1.0 - r2 ** m) / ((1.0 - r2) * h[0] * float(ceiling[m - 1]) ** m)
            return tail(m, low) * (1.0 + 1e-6) < tol

        hi = _first_passing(bound_passes, n0 - 1, end)

    # one norm table: h_hi for the test, h_(N+pad-1) for the frame's weights
    top = hi + max(pad, 1) - 1
    if not space.extendable:
        top = min(top, len(space.h) - 1)
    h = space.h_table(top)
    # the terms t_k = r2^k / h_k, formed up to hi, become the frame
    terms = np.empty(top + 1)
    formed = terms[:hi]
    formed.fill(r2)
    np.power(formed, space.exponents(hi - 1), out=formed)
    np.divide(formed, h[:hi], out=formed)
    partials = {}

    def passes(m: int) -> bool:
        partials[m] = float(terms[:m].sum())
        return tail(m, partials[m]) < tol

    if not passes(hi):
        rel = tail(hi, partials[hi])
        if not space.extendable and hi >= len(space.h) - 1:
            raise TruncationError(
                f"norm table of length {len(space.h)} cannot reach tail {tol:g} "
                f"at |z| = {abs(z):.4g} (reached {rel:.3g})"
            )
        raise TruncationError(f"kernel tail {rel:.3g} still above {tol:g} at truncation cap {N_CAP}")
    # the partial sums below hi are at most partial_hi (with a slack of 1e-6
    # against their rounding), so a test that fails against it fails
    top = partials[hi] * (1.0 + 1e-6)
    lo = hi - 1
    if lo >= n0 and tail(lo, top) < tol:
        lo = _first_passing(lambda m: tail(m, top) < tol, n0 - 1, lo) - 1
    n = _first_passing(passes, lo, hi)
    partial = partials[n]
    if partial == math.inf:  # where it overflows, the test passes spuriously
        raise TruncationError(f"the kernel series of {space.label} overflows at |z| = {abs(z):.4g}")
    # the frame's weights; past the end of a custom table ``h_table`` raises
    size = n + pad
    a = space.shift_weights(size - 1)
    # the terms become the padded frame, normalized in place; a term below
    # the normal range has lost digits, and then the powers of |z| itself
    # keep them (|z| < 1e-5, where n is short)
    v = terms[:size]
    v[n:] = 0.0
    coeffs = v[:n]
    if coeffs[-1] >= _TINY:
        np.sqrt(coeffs, out=coeffs)
    else:
        np.power(abs(z), np.arange(n, dtype=float), out=coeffs)
        coeffs /= np.sqrt(h[:n])
    coeffs /= math.sqrt(partial)
    w = z / abs(z) if z else 1 + 0j
    return KernelVector(z=z, w=w, coeffs=coeffs, norm_sq=partial, tail=tail(n, partial), v=v, a=a)


# ---------------------------------------------------------------------------
# unit ball spaces (graded monomial norms)


@dataclass(frozen=True)
class BallSpace:
    """Monomial norms of a kernel space on the unit ball of C^n."""

    n: int
    kind: str
    degree_cap: int
    norms: dict = field(compare=False)

    def basis(self):
        """Multi-indices sorted by (degree, lexicographic)."""
        return sorted(self.norms, key=lambda a: (sum(a), a))


def _multi_indices(n: int, degree: int):
    """The C(n + degree, n) multi-indices alpha in N^n with |alpha| <= degree,
    in lexicographic order, one step each: n bars among n + degree slots,
    alpha_i counting the free slots between bar i - 1 and bar i."""
    for bars in combinations(range(n + degree), n):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), bars))


def ball_space(n: int, degree_cap: int, kind: str = "drury_arveson") -> BallSpace:
    """Monomial norms ||z^alpha||^2 = alpha! (s-1)! / (|alpha| + s - 1)! of
    the n-variable space with kernel 1/(1 - <z,w>)^s: s = 1 for
    ``drury_arveson`` and s = n for ``hardy_ball``."""
    if kind not in ("drury_arveson", "hardy_ball"):
        raise ValueError(f"unknown ball space kind {kind!r}")
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    if degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    s = 1 if kind == "drury_arveson" else n
    fact = [1]  # 0!..(degree_cap + s - 1)!, one product each
    for k in range(1, degree_cap + s):
        fact.append(fact[-1] * k)
    norms = {}
    for alpha in _multi_indices(n, degree_cap):
        num = math.prod(fact[a] for a in alpha) * fact[s - 1]
        norms[alpha] = num / fact[sum(alpha) + s - 1]
    return BallSpace(n=n, kind=kind, degree_cap=degree_cap, norms=norms)


def da_norms(n: int, degree_cap: int) -> BallSpace:
    """Drury-Arveson norms, ||z^alpha||^2 = alpha!/|alpha|!."""
    return ball_space(n, degree_cap, "drury_arveson")


def hardy_ball_norms(n: int, degree_cap: int) -> BallSpace:
    """Hardy-space norms on the ball, ||z^alpha||^2 = alpha! (n-1)! / (|alpha| + n - 1)!."""
    return ball_space(n, degree_cap, "hardy_ball")
