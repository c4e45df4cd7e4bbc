"""Weighted unilateral shift generators and exact power-norm computations.

A weight sequence a_0, a_1, ... with 0 < a_n <= 1 models coordinate
multiplication T e_n = a_n e_{n+1}.  Because T^m shifts by m with weights
given by products of m consecutive a's, the norm of T^m is the largest
m-fold window product; everything here works on prefix sums of log a_n so
windows of length 10^3 and beyond cause no underflow.

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

import csv
from dataclasses import dataclass, field

import numpy as np

from .spaces import KernelSpace, space_by_name


@dataclass(frozen=True)
class WeightSequence:
    """Positive bounded weights of a unilateral weighted shift."""

    gen: str
    a: np.ndarray
    params: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return len(self.a)

    def log_prefix(self) -> np.ndarray:
        """S_0..S_N with S_k = sum of log a_0..a_{k-1}."""
        s = np.empty(self.n + 1)
        s[0] = 0.0
        np.cumsum(np.log(self.a), out=s[1:])
        return s


def dyadic_valuation(n) -> np.ndarray:
    """2-adic valuation, vectorized; v(0) is undefined and rejected."""
    n = np.asarray(n, dtype=np.int64)
    if np.any(n <= 0):
        raise ValueError("valuation defined for positive integers only")
    v = np.zeros(n.shape, dtype=np.int64)
    m = n.copy()
    while True:
        even = (m % 2 == 0) & (m > 0)
        if not np.any(even):
            return v
        v[even] += 1
        m[even] //= 2


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


def sigma_weights(sigma, length: int, factor: float = 0.5) -> WeightSequence:
    """a_n = factor on the index set, 1 elsewhere; 'squares' selects
    {1, 4, 9, ...}."""
    _check_length(length)
    if not 0 < factor <= 1:
        raise ValueError(f"damping factor must lie in (0, 1], got {factor}")
    if isinstance(sigma, str):
        if sigma != "squares":
            raise ValueError(f"unknown index set name {sigma!r}")
        idx = [k * k for k in range(1, int(np.sqrt(length)) + 2) if k * k < length]
        name = "squares"
    else:
        idx = sorted(int(k) for k in sigma if 0 <= int(k) < length)
        name = "set"
    a = np.ones(length)
    a[idx] = factor
    return WeightSequence("sigma", a, {"sigma": name, "factor": factor})


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
    if np.any(a <= 0):
        raise ValueError("weights must be positive")
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
        return cluster_weights(_load_column(path, "p"), length)
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
    """Load weights from CSV with header ``n,a``."""
    return explicit_weights(_load_column(path, "a"))


def _load_column(path, col: str) -> list[float]:
    vals = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = [c.strip() for c in next(reader)]
        if col not in header:
            raise ValueError(f"expected a {col!r} column in {path}, got {header!r}")
        j = header.index(col)
        for row in reader:
            if row:
                vals.append(float(row[j]))
    return vals


def save_weights(w: WeightSequence, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "a"])
        for n, an in enumerate(w.a):
            writer.writerow([n, repr(float(an))])


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


def min_window_product(w: WeightSequence, m: int) -> float:
    if not 1 <= m < w.n:
        raise ValueError(
            f"need 1 <= m < {w.n} so that complete windows exist, got m = {m}"
        )
    s = w.log_prefix()
    return float(np.exp(np.min(s[m:] - s[:-m])))


@dataclass(frozen=True)
class SpectralEstimate:
    """Power norms at m = 2^k and the induced spectral-radius estimates."""

    power_norms: dict
    root_estimates: dict
    bounds: dict | None = None
    sandwich_checked: bool = False
    sandwich_violations: tuple = ()

    @property
    def sandwich_ok(self) -> bool:
        return self.sandwich_checked and not self.sandwich_violations


def _simple_window_exponents(w: WeightSequence, m: int) -> np.ndarray:
    """Window sums of the exact dyadic exponents; log_r of the window
    products of the simple generator, exact in double precision."""
    e = dyadic_exponents(w.n)
    s = np.concatenate(([0.0], np.cumsum(e)))
    return s[m:] - s[:-m]


def _check_sandwich(w: WeightSequence, k: int) -> list:
    """Exact check of r^(2^(1-k)/3) < r^(-2^k/3) b_n <= r^(-2^(-k)/3) for
    every complete window product b_n of length 2^k.

    In exponent form (r < 1 flips inequalities) with E = log_r b_n:
    2^k - 2^(-k) <= 3 E < 2^k + 2^(1-k), and both sides are exact dyadic
    doubles, so the comparison is exact.
    """
    m = 2**k
    ex3 = 3.0 * _simple_window_exponents(w, m)
    lo = float(m) - np.ldexp(1.0, -k)
    hi = float(m) + np.ldexp(1.0, 1 - k)
    bad = np.nonzero(~((lo <= ex3) & (ex3 < hi)))[0]
    return [(k, int(n)) for n in bad]


def spectral_radius_estimate(w: WeightSequence, k_max: int) -> SpectralEstimate:
    """Power norms along m = 2^k, k <= k_max, with root estimates.

    For the ``simple`` generator the dyadic sandwich bounds are verified
    for every complete window, and per-m enclosures of the root estimate
    are reported.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if w.n < 2 ** (k_max + 1):
        raise ValueError(
            f"need at least 2^(k_max+1) = {2 ** (k_max + 1)} weights for "
            f"complete windows at k_max = {k_max}, have {w.n}"
        )
    power_norms = {}
    roots = {}
    for k in range(k_max + 1):
        m = 2**k
        if w.gen == "simple":
            # exact dyadic window exponents: ||T^m|| = r^(min_n log_r b_n)
            e_min = float(np.min(_simple_window_exponents(w, m)))
            power_norms[m] = w.params["r"] ** e_min
            roots[m] = w.params["r"] ** (e_min / m)
        else:
            power_norms[m] = shift_power_norm(w, m)
            roots[m] = power_norms[m] ** (1.0 / m)

    bounds = None
    checked = False
    violations: list = []
    if w.gen == "simple":
        r = w.params["r"]
        bounds = {}
        for k in range(k_max + 1):
            m = 2**k
            # root estimate enclosure induced by the window sandwich
            bounds[m] = (r ** (1 / 3 + 2 * 4.0 ** (-k) / 3), r ** (1 / 3 - 4.0 ** (-k) / 3))
            violations.extend(_check_sandwich(w, k))
        checked = True
    return SpectralEstimate(
        power_norms=power_norms,
        root_estimates=roots,
        bounds=bounds,
        sandwich_checked=checked,
        sandwich_violations=tuple(violations),
    )


def power_bounded_check(w: WeightSequence, r: float, m_max: int | None = None) -> dict:
    """Uniform bounds for powers of A = r^(-1/3) T on the simple weights.

    Reports sup and inf over m <= m_max of the rescaled extreme window
    products r^(-m/3) * (max / min m-window product), and checks the
    dyadic-power bound ||A^(2^k)|| <= r^(-2^(-k)/3) exactly for every k
    with complete windows.
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

    e = dyadic_exponents(w.n)
    s = np.concatenate(([0.0], np.cumsum(e)))
    sup_norm = 0.0
    sup_at = 0
    inf_low = np.inf
    inf_at = 0
    for m in range(1, m_max + 1):
        win = s[m:] - s[:-m]
        hi = r ** (float(np.min(win)) - m / 3.0)  # ||A^m||
        lo = r ** (float(np.max(win)) - m / 3.0)  # min rescaled window product
        if hi > sup_norm:
            sup_norm, sup_at = hi, m
        if lo < inf_low:
            inf_low, inf_at = lo, m

    dyadic = {}
    k = 0
    while 2**k <= m_max:
        m = 2**k
        win3 = 3.0 * (s[m:] - s[:-m])
        # ||A^m|| <= r^(-2^(-k)/3)  <=>  3 min window exponent >= m - 2^(-k)
        exact_ok = bool(np.min(win3) >= float(m) - np.ldexp(1.0, -k))
        dyadic[m] = {
            "norm": r ** (float(np.min(win3)) / 3.0 - m / 3.0),
            "bound": r ** (-np.ldexp(1.0, -k) / 3.0),
            "ok": exact_ok,
        }
        k += 1

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
