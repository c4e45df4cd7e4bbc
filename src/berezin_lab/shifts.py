"""Weighted unilateral shift generators and exact power-norm computations.

A weight sequence a_0, a_1, ... with 0 < a_n <= 1 models coordinate
multiplication T e_n = a_n e_{n+1}.  Because T^m shifts by m with weights
given by products of m consecutive a's, the norm of T^m is the largest
m-fold window product; everything here works on prefix sums of log a_n so
windows of length 10^3 and beyond cause no underflow.  For the simple
generator, ``spectral_radius_estimate`` and ``power_bounded_check`` each
build one prefix table of the exact dyadic exponents.  The first reads
every window of length 2^k off it, with its sandwich test; the second
reads only the smallest and the largest window of each length, which
``_window_extremes`` locates in closed form.

Generators (CLI spellings in parentheses):

    constant(c)            (constant:c=1)     a_n = c
    simple(r)              (simple:r=0.5)     a_n = r^(1 - 2^(-v)),
                                              v = 2-adic valuation of n+1,
                                              equivalently
                                              a_n = r^(1 - gcd(n+1, 2^n)^(-1))
    sigma(set)             (sigma:squares)    a_n = 1/2 on the set, else 1
    cluster(points)        (cluster:file=...) stage k emits the k-th point of
                                              a fixed cycle k times, so every
                                              point recurs in runs of
                                              unbounded length
    space(kernel space)    (space:bergman)    a_k = sqrt(h_{k+1}/h_k)
    explicit(values)       (explicit:file=...)

The prose listing sometimes quoted for ``simple`` (1, r^(1/2), 1, r^(1/4),
...) disagrees with the closed formula at n = 3; the formula is
authoritative here, since only it reproduces the dyadic window estimates
that drive the spectral-radius computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .formats import read_columns
from .spaces import KernelSpace, space_by_name


@dataclass(frozen=True)
class WeightSequence:
    """Positive bounded weights of a unilateral weighted shift.  Its log
    prefix is formed once and kept, as ``KernelSpace`` keeps its norm table."""

    gen: str
    a: np.ndarray
    params: dict = field(default_factory=dict, compare=False)
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.a)

    def log_prefix(self) -> np.ndarray:
        """S_0..S_N with S_k = sum of log a_0..a_{k-1}, read-only."""
        s = self._kept.get("log")
        if s is None:
            s = self._kept["log"] = np.empty(self.n + 1)
            s[0] = 0.0
            np.cumsum(np.log(self.a), out=s[1:])
            s.flags.writeable = False
        return s


def dyadic_valuation(n) -> np.ndarray:
    """2-adic valuation, vectorized; v(0) is undefined and rejected.

    n & -n keeps the lowest set bit 2^v, whose frexp exponent is v + 1.
    """
    n = np.asarray(n, dtype=np.int64)
    if np.any(n <= 0):
        raise ValueError("valuation defined for positive integers only")
    return np.frexp((n & -n).astype(float))[1] - 1


def dyadic_exponents(length: int) -> np.ndarray:
    """Exact dyadic exponents e_n = 1 - 2^(-v(n+1)) of the simple weights.

    Each entry and every window sum of them is an exact double, which lets
    the sandwich checks below run in exact arithmetic.
    """
    v = dyadic_valuation(np.arange(1, length + 1))
    return 1.0 - np.ldexp(1.0, -v)


def constant_weights(c: float, length: int) -> WeightSequence:
    if not 0 < c <= 1:
        raise ValueError(f"constant weight must lie in (0, 1], got {c}")
    _check_length(length)
    return WeightSequence("constant", np.full(length, float(c)), {"c": float(c)})


def simple_weights(r: float, length: int) -> WeightSequence:
    """a_n = r^(1 - 2^(-v)) with v the 2-adic valuation of n+1."""
    if not 0 < r < 1:
        raise ValueError(f"simple generator needs r in (0, 1), got {r}")
    _check_length(length)
    a = float(r) ** dyadic_exponents(length)
    return WeightSequence("simple", a, {"r": float(r)})


_SIGMA_FACTOR = 0.5


def sigma_weights(sigma, length: int) -> WeightSequence:
    """a_n = ``_SIGMA_FACTOR`` on the index set, 1 elsewhere; 'squares'
    selects {1, 4, 9, ...}."""
    _check_length(length)
    if isinstance(sigma, str):
        if sigma != "squares":
            raise ValueError(f"unknown index set name {sigma!r}")
        idx = [k * k for k in range(1, int(np.sqrt(length)) + 2) if k * k < length]
        name = "squares"
    else:
        idx = sorted(int(k) for k in sigma if 0 <= int(k) < length)
        name = "set"
    a = np.ones(length)
    a[idx] = _SIGMA_FACTOR
    return WeightSequence("sigma", a, {"sigma": name, "factor": _SIGMA_FACTOR})


def cluster_weights(points, length: int) -> WeightSequence:
    """Stage k emits the k-th point of the descending cycle k times.

    The enumeration is fixed and deterministic (points sorted descending,
    then cycled), so scans over the resulting sequence are reproducible.
    Every point of the set recurs with unbounded run length.
    """
    pts = sorted({float(p) for p in points}, reverse=True)
    if not pts:
        raise ValueError("cluster set must be non-empty")
    if any(not 0 < p <= 1 for p in pts):
        raise ValueError("cluster points must lie in (0, 1]")
    _check_length(length)
    out = np.empty(length)
    pos = 0
    stage = 1
    while pos < length:
        val = pts[(stage - 1) % len(pts)]
        take = min(stage, length - pos)
        out[pos : pos + take] = val
        pos += take
        stage += 1
    return WeightSequence("cluster", out, {"points": tuple(pts)})


def space_weights(space: KernelSpace, length: int) -> WeightSequence:
    _check_length(length)
    return WeightSequence(f"space:{space.label}", space.shift_weights(length), {"space": space.label})


def explicit_weights(values) -> WeightSequence:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError("need a non-empty 1-d weight list")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("weights must be positive and finite")
    return WeightSequence("explicit", a)


def _check_length(length: int) -> None:
    if length < 1:
        raise ValueError(f"need at least one weight, got length {length}")


def generate_weights(spec: str, length: int) -> WeightSequence:
    """Build a weight sequence from a generator string.

    Accepted forms: ``constant:c=1``, ``simple:r=0.5``, ``sigma:squares``,
    ``cluster:file=points.csv``, ``space:bergman``, ``space:rs(3)``,
    ``space:custom:h.csv``, ``explicit:file=weights.csv``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        return constant_weights(_kv(rest, "c", 1.0), length)
    if kind == "simple":
        return simple_weights(_kv(rest, "r", 0.5), length)
    if kind == "sigma":
        return sigma_weights(rest or "squares", length)
    if kind == "cluster":
        path = _kv_str(rest, "file")
        return cluster_weights(read_columns(path, ("p",))[0], length)
    if kind == "space":
        return space_weights(space_by_name(rest), length)
    if kind == "explicit":
        path = _kv_str(rest, "file")
        w = load_weights(path)
        if w.n < length:
            raise ValueError(f"{path} holds {w.n} weights, need {length}")
        return WeightSequence("explicit", w.a[:length])
    raise ValueError(f"unknown weight generator {spec!r}")


def _kv(rest: str, key: str, default: float) -> float:
    if not rest:
        return default
    k, _, v = rest.partition("=")
    if k != key:
        raise ValueError(f"expected {key}=..., got {rest!r}")
    return float(v)


def _kv_str(rest: str, key: str) -> str:
    k, _, v = rest.partition("=")
    if k != key or not v:
        raise ValueError(f"expected {key}=..., got {rest!r}")
    return v


def load_weights(path) -> WeightSequence:
    """Load weights from the ``a`` column of a CSV written with header ``n,a``."""
    return explicit_weights(read_columns(path, ("a",))[0])


# ---------------------------------------------------------------------------
# power norms and spectral radius


def shift_power_norm(w: WeightSequence, m: int) -> float:
    """||T^m|| = max over complete windows of the m-fold weight product."""
    if not 1 <= m < w.n:
        raise ValueError(
            f"need 1 <= m < {w.n} so that complete windows exist, got m = {m}"
        )
    s = w.log_prefix()
    return float(np.exp(np.max(s[m:] - s[:-m])))


def _dyadic_prefix(length: int) -> np.ndarray:
    """0, e_0, e_0 + e_1, ... over the exact dyadic exponents: each window
    sum s[n + m] - s[n] is log_r of a window product of the simple
    generator, exact in double precision."""
    return np.concatenate(([0.0], np.cumsum(dyadic_exponents(length))))


def _sandwich(win, k: int) -> tuple:
    """Lower and upper half, one flag per window, of the exact test
    r^(2^(1-k)/3) < r^(-2^k/3) b_n <= r^(-2^(-k)/3) on the window products
    b_n = r^E of length 2^k, given E = ``win``.  In exponent form (r < 1
    flips inequalities) it reads 2^k - 2^(-k) <= 3 E < 2^k + 2^(1-k), and
    both sides are exact dyadic doubles, so the comparison is exact."""
    ex3 = 3.0 * win
    return 2.0**k - np.ldexp(1.0, -k) <= ex3, ex3 < 2.0**k + np.ldexp(1.0, 1 - k)


def spectral_radius_estimate(w: WeightSequence, k_max: int) -> dict:
    """Power norms along m = 2^k, k <= k_max, with root estimates.

    For the ``simple`` generator one prefix table of the exact dyadic
    exponents serves every k: its windows give the power norm and the
    root, and the dyadic sandwich bounds are verified for every complete
    window (``violations`` lists each failing (k, n)), with per-m
    enclosures of the root estimate.  Other generators report no bounds
    and ``sandwich_checked`` false.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    # w.n >= 2^(k_max+1), read off its bit length: the power is never formed
    if k_max + 1 >= w.n.bit_length():
        raise ValueError(f"need at least 2^(k_max+1) = 2^{k_max + 1} weights for complete windows, have {w.n}")
    checked = w.gen == "simple"
    s = _dyadic_prefix(w.n) if checked else None
    power_norms = {}
    roots = {}
    bounds = {}
    violations: list = []
    for k in range(k_max + 1):
        m = 2**k
        if checked:
            r = w.params["r"]
            win = s[m:] - s[:-m]
            # exact dyadic window exponents: ||T^m|| = r^(min_n log_r b_n)
            e_min = float(np.min(win))
            power_norms[m] = r ** e_min
            roots[m] = r ** (e_min / m)
            # root estimate enclosure induced by the window sandwich
            bounds[m] = (r ** (1 / 3 + 2 * 4.0 ** (-k) / 3), r ** (1 / 3 - 4.0 ** (-k) / 3))
            lower, upper = _sandwich(win, k)
            violations.extend((k, int(n)) for n in np.nonzero(~(lower & upper))[0])
        else:
            power_norms[m] = shift_power_norm(w, m)
            roots[m] = power_norms[m] ** (1.0 / m)
    return {
        "power_norms": power_norms,
        "root_estimates": roots,
        "bounds": bounds,
        "sandwich_checked": checked,
        "sandwich_ok": checked and not violations,
        "violations": violations,
    }


def _window_extremes(s: np.ndarray, m_max: int) -> tuple:
    """Smallest and largest window sums s[n + m] - s[n], 0 <= n <= N - m,
    of the dyadic prefix ``s`` = s[0..N], for m = 1..m_max, without a scan.

    The prefix is s[k] = sum_(t >= 1) floor(k/2^t) / 2^t (Legendre's
    formula in base 2), so a window sum is

        E(n, m) = s[m] + sum_(t >= 1) kappa_t / 2^t,

    kappa_t = floor((n+m)/2^t) - floor(n/2^t) - floor(m/2^t) in {0, 1}
    being the carry out of the low t bits of n + m (Kummer).  Hence the
    smallest window is s[m], at n = 0.  The largest is at n = 0 or at
    a start c_L = (-m) mod 2^L with 2^L <= N, whichever of these fit
    (c_L <= N - m).

    Proof.  With v = v(m), no n carries out of bit t <= v, and none out of
    t >= B = N.bit_length(), as n + m <= N < 2^B.  Take a start n <= N - m
    and let b <= B be its first position above v with no carry.  It
    carries out of every t in (v, b), so n mod 2^(b-1) >= c_(b-1)
    (c_v = 0 is the start n = 0), and it has no carry at b, so bit b - 1
    of m is 0 (b - 1 > v) or bit v of n is 0 (b - 1 = v).  The start
    c_(b-1) <= n carries out of exactly the same t in (v, b) and nowhere
    else.  If n carries nowhere above b either, the two tie.  Otherwise n
    carries at some t in (b, B), so b < B - 1 and n has a set bit at b or
    above: n >= 2^b + c_(b-1) > c_(b-1) + 2^(b-1) = c_b.  Then c_b, which
    carries at every t in (v, b], beats n: by 2^(-b) against n's carries
    above b, which sum to less.  Either way a start c_L <= n with
    L < B fits and reaches E(n, m) or more.

    Every value is a dyadic rational of at most about 2 log2 N bits, an
    exact double, so these are the bits a scan of every window finds.
    One pass per L over arrays of length m_max: O(m_max log N) time and
    O(m_max) memory.
    """
    n_w = len(s) - 1
    m = np.arange(1, m_max + 1)
    room = n_w - m
    e_min = s[1 : m_max + 1]
    e_max = e_min.copy()
    for big_l in range(1, n_w.bit_length()):  # 2^L <= N
        c = -m & ((1 << big_l) - 1)
        c[c > room] = 0  # a start that does not fit falls back to n = 0
        np.maximum(e_max, s[m + c] - s[c], out=e_max)
    return e_min, e_max


def power_bounded_check(w: WeightSequence, r: float, m_max: int | None = None) -> dict:
    """Uniform bounds for powers of A = r^(-1/3) T on the simple weights.

    Reports sup and inf over m <= m_max of the rescaled extreme window
    products r^(-m/3) * (max / min m-window product), and checks the
    dyadic-power bound ||A^(2^k)|| <= r^(-2^(-k)/3), the lower half of the
    sandwich, exactly for every k with complete windows.  One prefix table
    of the exact dyadic exponents serves every m, and ``_window_extremes``
    reads its smallest and largest m-window in closed form (its docstring
    has the identity and the proof), so the loop over m does O(1) work per
    m where a scan of every window would cost O(N m_max).
    """
    if w.gen != "simple":
        raise ValueError("power boundedness check applies to the simple generator")
    if not 0 < r < 1:
        raise ValueError(f"need r in (0, 1), got {r}")
    if abs(w.params["r"] - r) > 1e-15:
        raise ValueError(f"weights were generated with r = {w.params['r']}, got {r}")
    if m_max is None:
        m_max = w.n // 2
    if not 1 <= m_max < w.n:
        raise ValueError(f"need 1 <= m_max < {w.n}, got {m_max}")

    e_min, e_max = _window_extremes(_dyadic_prefix(w.n), m_max)
    sup_norm = 0.0
    sup_at = 0
    inf_low = np.inf
    inf_at = 0
    dyadic = {}
    for m, (e_lo, e_hi) in enumerate(zip(map(float, e_min), map(float, e_max)), start=1):
        hi = r ** (e_lo - m / 3.0)  # ||A^m||
        lo = r ** (e_hi - m / 3.0)  # min rescaled window product
        if hi > sup_norm:
            sup_norm, sup_at = hi, m
        if lo < inf_low:
            inf_low, inf_at = lo, m
        if m & (m - 1) == 0:  # m = 2^k: the bound is the sandwich's lower half
            k = m.bit_length() - 1
            dyadic[m] = {
                "norm": hi,
                "bound": r ** (-np.ldexp(1.0, -k) / 3.0),
                # 3 E is exact and the lower half monotone in it, so every
                # window passes exactly when the smallest one does
                "ok": bool(_sandwich(e_lo, k)[0]),
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
