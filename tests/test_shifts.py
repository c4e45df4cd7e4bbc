"""Weight generators, window power norms, spectral-radius sandwich checks."""

from fractions import Fraction

import numpy as np
import pytest

from berezin_lab import shifts
from berezin_lab.formats import write_csv
from berezin_lab.shifts import (
    WeightSequence,
    _dyadic_prefix,
    _sandwich,
    _window_extremes,
    cluster_weights,
    constant_weights,
    dyadic_valuation,
    explicit_weights,
    generate_weights,
    load_weights,
    shift_power_norm,
    sigma_weights,
    simple_weights,
    space_weights,
    spectral_radius_estimate,
    power_bounded_check,
)
from berezin_lab.spaces import monomial_norms
from oracles import reference_power_bounded_check

rng = np.random.default_rng(96017)


def dense_shift_power(a, m):
    """Oracle: largest singular value of the dense truncation of T^m built
    from all given weights (size len(a)+1 so every window appears)."""
    n = len(a) + 1
    t = np.zeros((n, n))
    t[np.arange(1, n), np.arange(n - 1)] = a
    tm = np.linalg.matrix_power(t, m)
    return np.linalg.svd(tm, compute_uv=False)[0]


# ---------------------------------------------------------------------------
# generators


def _valuation_by_halving(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def test_dyadic_valuation():
    assert list(dyadic_valuation(np.array([1, 2, 3, 4, 6, 8, 12]))) == [0, 1, 0, 2, 1, 3, 2]
    ns = [*range(1, 2**12 + 1), 3 * 2**40, 2**52 + 2**51, 2**62, 2**63 - 1]
    assert list(dyadic_valuation(np.array(ns))) == [_valuation_by_halving(n) for n in ns]
    with pytest.raises(ValueError):
        dyadic_valuation(np.array([0]))
    with pytest.raises(ValueError):
        dyadic_valuation(np.array([-4]))


def test_simple_weights_first_values():
    # oracle: direct gcd/valuation evaluation, a_n = r^(1 - 2^(-v(n+1)))
    w = simple_weights(0.5, 8)
    expected = [1.0, 2 ** -0.5, 1.0, 2 ** -0.75, 1.0, 2 ** -0.5, 1.0, 2 ** -0.875]
    assert np.allclose(w.a, expected, atol=1e-15)
    # cross-check against the gcd form r^(1 - gcd(n+1, 2^n)^(-1))
    import math

    for n in range(1, 8):
        g = math.gcd(n + 1, 2 ** n)
        assert w.a[n] == pytest.approx(0.5 ** (1 - 1 / g), abs=1e-15)


def test_sigma_weights_squares():
    w = sigma_weights("squares", 5)
    assert np.array_equal(w.a, [1, 0.5, 1, 1, 0.5])


def test_cluster_weights_emission_pattern():
    w = cluster_weights([1.0, 0.5], 7)
    # descending cycle 1, 0.5, 1, ... with stage k emitted k times
    assert np.array_equal(w.a, [1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        cluster_weights([], 5)
    with pytest.raises(ValueError):
        cluster_weights([1.5], 5)


def test_constant_weights_bounds():
    assert np.all(constant_weights(1.0, 4).a == 1.0)
    with pytest.raises(ValueError):
        constant_weights(0.0, 4)
    with pytest.raises(ValueError):
        constant_weights(1.2, 4)


def test_space_weights_identities():
    w = space_weights(monomial_norms("hardy", 4), 16)
    assert np.allclose(w.a, 1.0, atol=1e-15)
    w = space_weights(monomial_norms("bergman", 4), 16)
    k = np.arange(16)
    assert np.allclose(w.a, np.sqrt((k + 1) / (k + 2)), atol=1e-15)


def test_generator_strings():
    assert np.allclose(generate_weights("constant:c=0.7", 3).a, 0.7)
    assert np.allclose(generate_weights("simple:r=0.5", 2).a, [1, 2 ** -0.5])
    assert generate_weights("sigma:squares", 6).a[4] == 0.5
    assert np.allclose(generate_weights("space:bergman", 3).a, np.sqrt([1 / 2, 2 / 3, 3 / 4]))
    assert np.allclose(generate_weights("space:rs(3)", 3).a, np.sqrt([1 / 3, 2 / 4, 3 / 5]))
    with pytest.raises(ValueError):
        generate_weights("simple:q=0.5", 4)
    with pytest.raises(ValueError):
        generate_weights("wat:x=1", 4)


def test_weights_csv_roundtrip(tmp_path):
    w = simple_weights(0.5, 20)
    path = tmp_path / "w.csv"
    write_csv(path, ("n", "a"), enumerate(w.a))
    loaded = load_weights(path)
    assert np.array_equal(loaded.a, w.a)


def test_cluster_generator_string(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("p\n1.0\n0.5\n0.25\n")
    w = generate_weights(f"cluster:file={path}", 6)
    assert np.array_equal(w.a, [1.0, 0.5, 0.5, 0.25, 0.25, 0.25])


# ---------------------------------------------------------------------------
# power norms


def test_power_norm_constant_is_one():
    assert shift_power_norm(constant_weights(1.0, 16), 7) == pytest.approx(1.0)


def test_power_norm_simple_small_m():
    w = simple_weights(0.5, 64)
    # oracles: exhaustive max over weights / adjacent products
    assert shift_power_norm(w, 1) == pytest.approx(float(np.max(w.a)), abs=1e-15)
    assert shift_power_norm(w, 1) == pytest.approx(1.0)
    pairs = w.a[:-1] * w.a[1:]
    assert shift_power_norm(w, 2) == pytest.approx(float(np.max(pairs)), rel=1e-14)
    assert shift_power_norm(w, 2) == pytest.approx(2 ** -0.5, rel=1e-12)


@pytest.mark.parametrize(
    "gen",
    [
        lambda: constant_weights(0.8, 200),
        lambda: simple_weights(0.5, 200),
        lambda: sigma_weights("squares", 200),
        lambda: cluster_weights([1.0, 0.5, 0.25], 200),
        lambda: explicit_weights(rng.uniform(0.2, 1.0, 200)),
    ],
)
def test_power_norm_matches_dense_svd(gen):
    w = gen()
    for m in [1, 2, 3, 5, 8]:
        assert shift_power_norm(w, m) == pytest.approx(
            dense_shift_power(w.a, m), abs=1e-10
        )


def test_power_norm_window_preconditions():
    w = constant_weights(0.9, 8)
    with pytest.raises(ValueError):
        shift_power_norm(w, 8)
    with pytest.raises(ValueError):
        shift_power_norm(w, 0)


def test_submultiplicativity():
    w = explicit_weights(rng.uniform(0.1, 1.0, 300))
    for _ in range(40):
        m1 = int(rng.integers(1, 100))
        m2 = int(rng.integers(1, 100))
        lhs = shift_power_norm(w, m1 + m2)
        rhs = shift_power_norm(w, m1) * shift_power_norm(w, m2)
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# spectral radius of the dyadic-valuation weights


def test_spectral_radius_constant():
    est = spectral_radius_estimate(constant_weights(1.0, 64), 4)
    assert all(v == pytest.approx(1.0) for v in est["root_estimates"].values())


def test_root_estimates_non_increasing_dyadically():
    w = simple_weights(0.5, 2**11)
    est = spectral_radius_estimate(w, 9)
    roots = [est["root_estimates"][2**k] for k in range(10)]
    assert all(roots[i + 1] <= roots[i] + 1e-12 for i in range(9))


def test_spectral_radius_simple_r_half():
    w = simple_weights(0.5, 2**12)
    est = spectral_radius_estimate(w, 10)
    target = 0.5 ** (1 / 3)
    assert abs(est["root_estimates"][2**10] - target) < 0.01
    assert est["sandwich_checked"] and est["sandwich_ok"]
    lo, hi = est["bounds"][2**10]
    assert lo - 1e-12 <= est["root_estimates"][2**10] <= hi + 1e-12


def test_spectral_radius_other_r():
    w = simple_weights(0.3, 2**11)
    est = spectral_radius_estimate(w, 9)
    assert abs(est["root_estimates"][2**9] - 0.3 ** (1 / 3)) < 0.01
    assert est["sandwich_ok"]


def test_spectral_radius_needs_enough_weights():
    with pytest.raises(ValueError):
        spectral_radius_estimate(simple_weights(0.5, 100), 7)


def test_dyadic_exponent_window_counts():
    # any window of 2^k consecutive integers has exactly 2^(k-1-j) members
    # of valuation j < k and one member of valuation >= k
    v = dyadic_valuation(np.arange(1, 257))
    k = 4
    m = 2**k
    for start in range(0, 256 - m):
        win = v[start : start + m]
        for j in range(k):
            assert np.count_nonzero(win == j) == 2 ** (k - 1 - j)
        assert np.count_nonzero(win >= k) == 1


def test_sandwich_halves_match_exact_rationals():
    # reference: 2^k - 2^(-k) <= 3 E < 2^k + 2^(1-k) in rational arithmetic,
    # on the simple windows and on a grid of dyadic E straddling both ends
    s = _dyadic_prefix(2**10)
    for k in range(9):
        m = 2**k
        step = 2.0 ** -(k + 2)
        lo_i = int((m - 2.0**-k) / 3 / step)
        hi_i = int((m + 2.0 ** (1 - k)) / 3 / step)
        grid = np.array([i * step for i in (*range(lo_i - 3, lo_i + 4), *range(hi_i - 3, hi_i + 4))])
        win = np.concatenate((s[m:] - s[:-m], grid))
        lower, upper = _sandwich(win, k)
        three_e = [3 * Fraction(e) for e in win]
        assert lower.tolist() == [x >= m - Fraction(1, m) for x in three_e]
        assert upper.tolist() == [x < m + Fraction(2, m) for x in three_e]
        assert lower[: len(s) - m].all() and upper[: len(s) - m].all()
        # the grid reaches both bounds exactly and straddles them
        assert set(lower[-14:-7].tolist()) == set(upper[-7:].tolist()) == {False, True}


# ---------------------------------------------------------------------------
# power boundedness of A = r^(-1/3) T


def test_power_bound_dyadic_k4():
    w = simple_weights(0.5, 2**6)
    rep = power_bounded_check(w, 0.5, m_max=16)
    assert rep["dyadic_bounds"][16]["bound"] == pytest.approx(0.5 ** (-1 / 48), rel=1e-12)
    assert 0.5 ** (-1 / 48) == pytest.approx(1.01454, abs=5e-5)
    assert rep["all_dyadic_ok"]


def test_power_bound_sup_reported():
    w = simple_weights(0.5, 2**10)
    rep = power_bounded_check(w, 0.5, m_max=256)
    assert np.isfinite(rep["sup_power_norm"])
    assert rep["sup_power_norm"] >= 1.0
    # powers stay uniformly bounded below as well
    assert rep["inf_lower_window"] > 0.0


def test_window_extremes_match_every_window_up_to_400():
    # brute force from the longest prefix (each shorter one is its prefix):
    # row m - 1 of ``lows`` and ``highs`` holds at column j the extreme over
    # the m-windows starting at n <= j, so for N weights column N - m
    s = _dyadic_prefix(400)
    lows, highs = np.zeros((2, 399, 400))
    for m in range(1, 400):
        win = s[m:] - s[:-m]
        lows[m - 1, : len(win)] = np.minimum.accumulate(win)
        highs[m - 1, : len(win)] = np.maximum.accumulate(win)
    for n_w in range(2, 401):
        m = np.arange(1, n_w)
        e_min, e_max = _window_extremes(s[: n_w + 1], n_w - 1)
        assert e_min.tobytes() == lows[m - 1, n_w - m].tobytes(), n_w
        assert e_max.tobytes() == highs[m - 1, n_w - m].tobytes(), n_w


@pytest.mark.parametrize("n_w", [511, 512, 513, 1000, 1023, 1024, 1025, 4095, 4097, 6000, 8192, 16383, 16384])
def test_window_extremes_match_every_window_at_larger_lengths(n_w):
    s = _dyadic_prefix(n_w)
    e_min, e_max = _window_extremes(s, n_w - 1)
    # every m up to 1025; beyond, the shortest and longest 128 and every 61st
    ms = range(1, n_w) if n_w <= 1025 else sorted({*range(1, 129), *range(n_w - 128, n_w), *range(1, n_w, 61)})
    for m in ms:
        win = s[m:] - s[:-m]
        assert e_min[m - 1].tobytes() == win.min().tobytes(), m
        assert e_max[m - 1].tobytes() == win.max().tobytes(), m


@pytest.mark.parametrize(
    "n_w, m_max, r",
    [(2**14, 8192, 0.5), (2**13, 2**12, 0.5), (64, 16, 0.5), (1000, 999, 0.3), (777, 300, 0.9), (1024, 256, 0.5),
     (2**16, 2**15, 0.7)],
)
def test_power_bound_equals_the_scan_of_every_window(n_w, m_max, r):
    w = simple_weights(r, n_w)
    assert power_bounded_check(w, r, m_max) == reference_power_bounded_check(w, r, m_max)


def test_power_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        power_bounded_check(constant_weights(1.0, 64), 1.0)
    with pytest.raises(ValueError):
        power_bounded_check(simple_weights(0.5, 64), 1.0)
    with pytest.raises(ValueError):
        power_bounded_check(simple_weights(0.5, 64), 0.25)


def test_weight_sequence_log_prefix():
    w = explicit_weights([0.5, 0.25, 1.0])
    s = w.log_prefix()
    assert s[0] == 0.0
    assert s[3] == pytest.approx(np.log(0.125))
    assert isinstance(w, WeightSequence)
    # the smallest 2-fold window product, from the prefix
    assert np.exp(np.min(s[2:] - s[:-2])) == pytest.approx(0.125)


def test_one_spectral_radius_estimate_forms_one_log_prefix(monkeypatch):
    # every power norm of one sequence reads the prefix it kept (its one
    # np.log), with the bits of a prefix formed per call
    w = generate_weights("space:bergman", 2 ** 12)
    s = np.concatenate(([0.0], np.cumsum(np.log(w.a))))
    logs = []
    log = np.log
    monkeypatch.setattr(shifts.np, "log", lambda x, *args, **kwargs: logs.append(np.shape(x)) or log(x, *args, **kwargs))
    est = spectral_radius_estimate(w, 10)
    assert shift_power_norm(w, 3) == float(np.exp(np.max(s[3:] - s[:-3])))
    assert logs == [(2 ** 12,)] and not w.log_prefix().flags.writeable
    for m, norm in est["power_norms"].items():
        assert norm == float(np.exp(np.max(s[m:] - s[:-m]))), m


@pytest.mark.parametrize("values", [[0.5, np.nan], [0.5, np.inf]], ids=["nan", "inf"])
def test_explicit_weights_reject_non_finite(values):
    with pytest.raises(ValueError, match="positive and finite"):
        explicit_weights(values)
