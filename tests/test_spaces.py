"""Kernel-space construction, kernel vectors, Gram matrices, ball norms."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from berezin_lab import spaces
from berezin_lab.formats import write_csv
from berezin_lab.spaces import (
    N_CAP,
    KernelVector,
    TruncationError,
    ball_space,
    custom_space,
    da_norms,
    hardy_ball_norms,
    kernel_vector,
    load_h_table,
    monomial_norms,
)
from oracles import (
    count_table_builds,
    fresh_h_table,
    fresh_shift_weights,
    fresh_space,
    kernel_at,
    reference_kernel_frame,
    reference_kernel_vector,
    table_reach,
)

rng = np.random.default_rng(20260808)


# ---------------------------------------------------------------------------
# monomial norms


def test_hardy_norms_are_one():
    space = monomial_norms("hardy", 3)
    assert np.array_equal(space.h, [1, 1, 1, 1])


def test_bergman_norms_match_radial_integral():
    # oracle: h_k = integral_0^1 r^{2k} * 2r dr by Gauss-Legendre quadrature
    x, w = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (x + 1.0)
    space = monomial_norms("bergman", 2)
    for k in range(3):
        oracle = 0.5 * np.sum(w * r ** (2 * k) * 2 * r)
        assert space.h[k] == pytest.approx(oracle, abs=1e-14)
    assert np.allclose(space.h, [1, 1 / 2, 1 / 3], atol=1e-15)


def test_mu_norms_match_measure_gram():
    # oracle: Gram of monomials under circle average dtheta/2pi plus a unit
    # atom at the origin, the circle part evaluated by trapezoid quadrature
    # (exact for trigonometric polynomials on >= 2K+2 points)
    kmax = 5
    m = 64
    theta = 2 * np.pi * np.arange(m) / m
    zs = np.exp(1j * theta)
    gram = np.empty((kmax + 1, kmax + 1), dtype=complex)
    for i in range(kmax + 1):
        for j in range(kmax + 1):
            circ = np.mean(zs**i * np.conj(zs) ** j)
            atom = (1.0 + 0j) if i == 0 and j == 0 else 0.0
            gram[i, j] = circ + atom
    offdiag = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(offdiag)) < 1e-14  # monomials stay orthogonal
    space = monomial_norms("mu", kmax)
    assert np.allclose(np.diag(gram).real, space.h, atol=1e-14)
    assert np.array_equal(space.h[:3], [2, 1, 1])


def test_rs_family_interpolates_hardy_and_bergman():
    assert np.allclose(monomial_norms("rs", 10, s=1).h, monomial_norms("hardy", 10).h)
    assert np.allclose(monomial_norms("rs", 10, s=2).h, monomial_norms("bergman", 10).h)


@pytest.mark.parametrize("kind,s", [("hardy", None), ("bergman", None), ("rs", 1.5), ("rs", 3.0), ("mu", None)])
def test_builtin_tables_are_prefix_stable(kind, s):
    # a kernel frame reads prefixes of one long table; they must hold the
    # bits of a table of their own length, which for rs is the running
    # product of (k + 1)/(s + k)
    long = monomial_norms(kind, 70000, s=s).h
    for n in (1, 2, 31, 32, 33, 4097, 65536):
        assert monomial_norms(kind, n, s=s).h.tobytes() == long[: n + 1].tobytes(), n
    if kind == "rs":
        k = np.arange(70000, dtype=float)
        assert long.tobytes() == np.concatenate(([1.0], np.cumprod((k + 1.0) / (s + k)))).tobytes()


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0, 4.5])
def test_rs_shift_weights_closed_form(s):
    space = monomial_norms("rs", 40, s=s)
    k = np.arange(40)
    assert np.allclose(space.shift_weights(40), np.sqrt((k + 1) / (s + k)), atol=1e-14)


@pytest.mark.parametrize("kind,s", [("hardy", None), ("bergman", None), ("rs", 3.0), ("mu", None)])
def test_builtin_weights_contractive(kind, s):
    space = monomial_norms(kind, 200, s=s)
    assert np.all(space.shift_weights(200) <= 1 + 1e-15)


def test_monomial_norms_rejections():
    with pytest.raises(ValueError):
        monomial_norms("hardy", 0)
    with pytest.raises(ValueError):
        monomial_norms("rs", 5, s=0.5)
    with pytest.raises(ValueError):
        monomial_norms("nope", 5)


# ---------------------------------------------------------------------------
# kernel vectors


def test_kernel_vector_at_origin_is_first_basis_vector():
    kv = kernel_vector(monomial_norms("hardy", 4), 0.0)
    k_z = kernel_at(kv)
    assert k_z[0] == 1.0
    assert np.all(k_z[1:] == 0)
    assert kv.norm_sq == 1.0


def test_hardy_point_norm_partial_geometric_sum():
    # oracle: partial sums of sum_k r^{2k}
    oracle = sum(0.25**k for k in range(200))
    val = kernel_vector(monomial_norms("hardy", 4), 0.5).norm_sq
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(4 / 3, rel=1e-12)


def test_bergman_point_norm_partial_sum():
    # oracle: partial sums of sum_k (k+1) r^{2k}
    oracle = sum((k + 1) * 0.25**k for k in range(300))
    val = kernel_vector(monomial_norms("bergman", 4), 0.5).norm_sq
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(16 / 9, rel=1e-12)


def test_kernel_vector_unit_norm_and_tail():
    for kind, s in [("hardy", None), ("bergman", None), ("rs", 3.0), ("mu", None)]:
        space = monomial_norms(kind, 4, s=s)
        for z in [0.3, 0.9, 0.5j, -0.85 + 0.3j]:
            kv = kernel_vector(space, z, tol=1e-12)
            assert abs(np.linalg.norm(kv.coeffs) - 1.0) < 1e-13
            assert 0 <= kv.tail < 1e-12


@pytest.mark.parametrize("kind,s", [("hardy", None), ("bergman", None), ("rs", 3.0), ("mu", None)])
def test_reproducing_property(kind, s):
    # <p, k_z> = p(z) for polynomials of degree < truncation, exactly up to
    # floating point; the module norm of p is sqrt(sum |c_k|^2 h_k)
    space = monomial_norms(kind, 25, s=s)
    for _ in range(25):
        deg = int(rng.integers(0, 21))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = (rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())).item()
        kv = kernel_vector(space, z, tol=1e-14)
        h = space.h_table(kv.n)[: kv.n]
        p_coords = np.zeros(kv.n, dtype=complex)
        p_coords[: deg + 1] = c * np.sqrt(h[: deg + 1])
        # unnormalized kernel vector = coeffs * sqrt(norm_sq)
        inner = np.vdot(kernel_at(kv), p_coords) * np.sqrt(kv.norm_sq)
        p_z = np.polyval(c[::-1], z)
        p_norm = np.linalg.norm(p_coords)
        assert abs(inner - p_z) <= 1e-10 * max(p_norm, 1.0)


# |z| = 0.9999 reaches a truncation of 138149 on hardy
POWER_POINTS = [0.5 * np.exp(0.7j), 0.99 * np.exp(2.1j), 0.9999 * np.exp(-1.3j)]


@pytest.mark.parametrize("kind,s", [("hardy", None), ("rs", 3.0)])
def test_kernel_powers_match_mpmath(kind, s):
    # oracle: |z|^k in 50-digit arithmetic; the real line times
    # sqrt(norm_sq * h_k) recovers the power, with relative error of about
    # k*eps, bounded here by 8*n*2^-52 as for the direct power
    space = monomial_norms(kind, 4, s=s)
    kvs = [kernel_vector(space, z) for z in POWER_POINTS]
    r = np.random.default_rng(52)
    with mpmath.workdps(50):
        for z, kv in zip(POWER_POINTS, kvs):
            n = kv.n
            h = space.h_table(n)[:n]
            b = math.isqrt(n)
            ks = {0, 1, b - 1, b, b + 1, n // 2, n - 1, *r.integers(0, n, 24).tolist()}
            rad = abs(mpmath.mpc(z.real, z.imag))
            for k in sorted(ks):
                got = kv.coeffs[k] * math.sqrt(kv.norm_sq) * math.sqrt(h[k])
                want = rad**k
                assert abs(got - float(want)) <= 8 * n * 2.0**-52 * float(want)


# at |z| = 0.9838 and 0.9999 an unrounded hardy tail falls below the exact
# omitted mass; a seeded sweep adds points in the annulus 0.5 <= |z| <= 0.9999
_r = np.random.default_rng(5301)
TAIL_POINTS = [0.9838, 0.9999, 0.9838j, -0.9999] + [
    (rad * np.exp(2j * np.pi * th)).item()
    for rad, th in zip(_r.uniform(0.5, 0.9999, 8), _r.uniform(0, 1, 8))
]


def _exact_relative_tail(kind, s, x, n):
    """(K - S_n) / S_n at x = |z|^2: the relative mass a truncation to n
    terms omits from K(z,z), with the exact norms h_k."""
    if kind == "mu":
        # K = 1/2 + x/(1 - x) and the omitted mass is x^n/(1 - x)
        omitted = x**n / (1 - x)
        return omitted / (mpmath.mpf(1) / 2 + x / (1 - x) - omitted)
    # K = (1 - x)^(-s) and (K - S_n)/K is the regularized incomplete beta I_x(n, s)
    frac = mpmath.betainc(n, s, 0, x, regularized=True)
    return frac / (1 - frac)


@pytest.mark.parametrize("kind,s", [("hardy", 1), ("bergman", 2), ("rs", 3), ("mu", None)])
@pytest.mark.parametrize("tol", [1e-12, 1e-15])
def test_kernel_tail_bounds_exact_omitted_mass(kind, s, tol):
    space = monomial_norms(kind, 4, s=s if kind == "rs" else None)
    with mpmath.workdps(50):
        for z in TAIL_POINTS:
            kv = kernel_vector(space, z, tol=tol)
            # |z|^2 of the double z is exact at 50 digits
            x = mpmath.mpf(complex(z).real) ** 2 + mpmath.mpf(complex(z).imag) ** 2
            assert kv.tail < tol
            assert kv.tail >= _exact_relative_tail(kind, s, x, kv.n), (z, kv.n)


# one norm table, one buffer of terms and in-place normalization must give
# the bits of the allocating reference loop; the custom table ends at 3000
# entries, so the points near the boundary exhaust it
BIT_SPACES = [
    monomial_norms("hardy", 4),
    monomial_norms("bergman", 4),
    monomial_norms("rs", 4, s=3.0),
    monomial_norms("mu", 4),
    custom_space(np.arange(1.0, 3001.0) ** -0.7, label="custom"),
]
# a custom table whose ratios h_(k+1) / h_k are 1 + 2e-13 (weights within
# the contractive slack) over its first 200 entries, so that its stop
# search reads a bound g > 1
_RISE = np.arange(3000.0)
RISING = custom_space((1.0 + 2e-13) ** np.minimum(_RISE, 199.0) * np.maximum(_RISE - 198.0, 1.0) ** -0.7, label="rising")
_rk = np.random.default_rng(1318)
BIT_POINTS = [0j, 0.9999j] + [
    ((1 - 10 ** -u) * np.exp(2j * np.pi * th)).item()
    for u, th in zip(_rk.uniform(0.3, 4, 10), _rk.uniform(0, 1, 10))
]


def _kernel_or_error(fn, *args):
    try:
        return fn(*args)
    except TruncationError as exc:
        return str(exc)


@pytest.mark.parametrize("space", [*BIT_SPACES, RISING], ids=lambda sp: sp.label)
@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_kernel_vector_bits_match_the_allocating_loop(space, tol):
    for z in BIT_POINTS:
        got = _kernel_or_error(kernel_vector, space, z, tol)
        want = _kernel_or_error(reference_kernel_vector, space, z, tol)
        if isinstance(want, str):
            assert got == want, z
            continue
        coeffs, norm_sq, tail = want
        assert got.n == len(coeffs), z
        assert got.coeffs.tobytes() == coeffs.tobytes(), z
        assert (got.norm_sq, got.tail) == (norm_sq, tail), z


def test_long_custom_table_bits_and_its_end():
    # a 2^16-entry table: the bits are the oracle's out to truncations near
    # 1.5e4, and past the table's reach its end error is the oracle's
    space = custom_space((1.0 + np.arange(2.0**16)) ** -0.7, label="custom")
    for r in (0.1, 0.9, 0.999, 0.99999):
        z = r * np.exp(0.4j)
        got = _kernel_or_error(kernel_vector, space, z, 1e-12)
        want = _kernel_or_error(reference_kernel_vector, space, z, 1e-12)
        if r == 0.99999:
            assert got == want and want.startswith("norm table of length 65536 cannot reach tail 1e-12 at |z| = 1 ("), got
            continue
        coeffs, norm_sq, tail = want
        assert got.coeffs.tobytes() == coeffs.tobytes(), r
        assert (got.norm_sq, got.tail) == (norm_sq, tail), r


@pytest.mark.parametrize("space", BIT_SPACES, ids=lambda sp: sp.label)
def test_kernel_vector_bisects_the_real_sums_where_the_bound_is_loose(space, monkeypatch):
    # at a loose tolerance the partial sums still grow between the bottom
    # that the bound against partial_hi leaves and hi, so the test with the
    # real sums bisects between them (its predicate is ``passes``, over
    # more than one index); N and the bits of coeffs and tail are the oracle's
    names = []
    first_passing = spaces._first_passing

    def recorded(test, lo, hi):
        if hi - lo > 1:
            names.append(test.__name__)
        return first_passing(test, lo, hi)

    monkeypatch.setattr(spaces, "_first_passing", recorded)
    r = np.random.default_rng(4051)
    bisected = 0
    for tol in (0.5, 0.3):
        for mod in r.uniform(0.95, 0.999, 8):
            z = complex(mod * np.exp(2j * np.pi * r.uniform()))
            names.clear()
            got = kernel_vector(space, z, tol)
            coeffs, norm_sq, tail = reference_kernel_vector(space, z, tol)
            assert got.n == len(coeffs), z
            assert got.coeffs.tobytes() == coeffs.tobytes(), z
            assert (got.norm_sq, got.tail) == (norm_sq, tail), z
            bisected += "passes" in names
    assert bisected >= 8, bisected


def test_kernel_frame_past_a_custom_tables_end_raises():
    # the frame's weights reach h_(N + pad - 1); past the end of a custom
    # table that is a TruncationError naming the table, not a short frame.
    # N = 32 here, so pad 8 reads h_0..h_39, the whole table
    space = custom_space(np.arange(1.0, 41.0) ** -0.7, label="short")
    assert len(kernel_vector(space, 0.1, 1e-12, pad=8).a) == 39
    with pytest.raises(TruncationError, match=r"custom norm table of length 40 exhausted; requested h_0\.\.h_40$"):
        kernel_vector(space, 0.1, 1e-12, pad=9)


@pytest.mark.parametrize("space", BIT_SPACES, ids=lambda sp: sp.label)
def test_kernel_frame_bits_and_one_norm_table(space, monkeypatch):
    # the frame's vector is the truncation's own array of terms and its
    # weights are views of the space's; a kernel vector builds at most one
    # norm table, none where the space's table reaches its frame, and a
    # custom table none at all
    space = fresh_space(space)
    builds = count_table_builds(monkeypatch)
    for i, z in enumerate(BIT_POINTS):
        pad = i % 5
        reach = table_reach(space)
        del builds[:]
        got = _kernel_or_error(kernel_vector, space, z, 1e-12, pad)
        built = builds[:]
        assert len(built) <= (1 if space.extendable else 0), (z, built)
        want = _kernel_or_error(reference_kernel_frame, space, z, 1e-12, pad)
        if isinstance(want, str):
            assert got == want, z
            continue
        assert not built or built[0] >= reach, (z, built, reach)
        assert not built or got.n + pad - 1 <= built[0] <= got.n + max(pad, 1) + 1, (z, built)
        coeffs, a_ref, v_ref = want
        assert got.coeffs.tobytes() == coeffs.tobytes(), z
        assert got.a.tobytes() == a_ref.tobytes() and got.v.tobytes() == v_ref.tobytes(), z
        assert np.shares_memory(got.coeffs, got.v), z
        assert np.shares_memory(got.a, space._kept["a"]), z
        assert len(got.v) == got.n + pad and not np.any(got.v[got.n :]), z
        assert len(got.a) == got.n + pad - 1, z


# ---------------------------------------------------------------------------
# the space's kept prefixes


@pytest.mark.parametrize("space", [*BIT_SPACES, monomial_norms("rs", 4, s=2.5)], ids=lambda sp: sp.label)
def test_space_prefixes_have_the_bits_of_fresh_tables(space):
    # every view of the kept table, weights and exponents has the bits of
    # a table formed at its own length, whether a longer or a shorter one
    # was asked for first; and on a built-in space the table a kernel
    # vector at |z| = 0.9999 extends it to is its closed-form bracket
    sizes = [1, 2, 33, 300] + ([1000, 4097] if space.extendable else [len(space.h) - 1])
    for order in (sizes[::-1], sizes):
        fresh = fresh_space(space)
        for n in order + order[::-1]:
            assert fresh.h_table(n).tobytes() == fresh_h_table(space, n).tobytes(), n
            assert fresh.shift_weights(n).tobytes() == fresh_shift_weights(space, n).tobytes(), n
            k = fresh.exponents(n)
            assert k.dtype == np.int32 and np.array_equal(k, np.arange(n + 1)), n
    if not space.extendable:
        return
    fresh = fresh_space(space)
    kv = kernel_vector(fresh, 0.9999, 1e-12, pad=3)
    size = table_reach(fresh) - 1
    assert size == spaces._stop_bound(space, 0.9999**2, 1e-12, 32) + 2
    assert len(kv.a) == kv.n + 2 <= size
    for n in (1, 2, 33, 1000, size // 2, size - 1, size):
        assert fresh.h_table(n).tobytes() == fresh_h_table(space, n).tobytes(), n
        assert fresh.shift_weights(n).tobytes() == fresh_shift_weights(space, n).tobytes(), n


@pytest.mark.parametrize("space", BIT_SPACES, ids=lambda sp: sp.label)
def test_kernel_vectors_keep_their_bits_after_later_vectors(space):
    # each vector owns its frame: later vectors on the same space, nearer
    # the circle (which extend its prefixes) or not, leave it as it was,
    # and it has the bits of a vector formed on a fresh space
    space = fresh_space(space)
    points = [0.9, 0.5j, 0.95, -0.3, 0.99]
    vectors = [kernel_vector(space, z, 1e-12, pad=2) for z in points]
    for z, kv in zip(points, vectors):
        lone = kernel_vector(fresh_space(space), z, 1e-12, pad=2)
        assert kv.v.tobytes() == lone.v.tobytes() and kv.a.tobytes() == lone.a.tobytes(), z
        assert kv.coeffs.tobytes() == lone.coeffs.tobytes(), z
    for first, second in itertools.combinations(vectors, 2):
        assert not np.shares_memory(first.v, second.v)


@pytest.mark.parametrize("space", [BIT_SPACES[0], BIT_SPACES[-1]], ids=lambda sp: sp.label)
def test_writing_into_a_kept_prefix_raises(space):
    # the table, weights and exponents are read-only, and so the weights a
    # kernel vector reads; its frame is its own to write
    space = fresh_space(space)
    kv = kernel_vector(space, 0.9, 1e-12, pad=1)
    for view in (space.h_table(40), space.shift_weights(40), space.exponents(40), kv.a):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.5
    kv.v[-1] = 0.0


# (|z|, tol, pad) at which a table sized from a majorant at half the stop
# reached 2.5x (rs(20)) and 2.8x (rs(7)) past the truncation
LOOSE_TABLE_CASES = {20.0: [(0.99944, 2e-5, 200)], 7.0: [(0.999, 1e-2, 0)]}


@pytest.mark.parametrize(
    "kind,s", [("hardy", None), ("bergman", None), ("rs", 1.5), ("rs", 7.0), ("rs", 20.0), ("mu", None)]
)
def test_one_norm_table_across_points_tolerances_and_pads(kind, s, monkeypatch):
    # on a fresh built-in space a kernel vector builds one table, reaching
    # the truncation's frame and at most two indices past it (the top of
    # the closed-form bracket); on a space shared by every case it builds
    # that same table, or none where the space's table reaches that far
    shared = monomial_norms(kind, 4, s=s)
    built = count_table_builds(monkeypatch)
    r = np.random.default_rng(2113)
    cases = [
        (
            ((1 - 10 ** -r.uniform(0, 3.3)) * np.exp(2j * np.pi * r.uniform())).item(),
            float(10 ** -r.uniform(2, 15)),
            int(r.choice([0, 1, 2, 5, 40])),
        )
        for _ in range(60)
    ]
    for z, tol, pad in cases + LOOSE_TABLE_CASES.get(s, []):
        fresh = monomial_norms(kind, 4, s=s)
        del built[:]
        kv = kernel_vector(fresh, z, tol, pad)
        assert len(built) == 1 and kv.n + pad - 1 <= built[0] <= kv.n + max(pad, 1) + 1, (z, tol, pad, built)
        top, reach = built[0], table_reach(shared)
        del built[:]
        assert kernel_vector(shared, z, tol, pad).v.tobytes() == kv.v.tobytes(), (z, tol, pad)
        assert built == ([] if top < reach else [top]), (z, tol, pad, built, reach)


def _smallest_passing_truncation(space, z, tol, n0, n_max):
    """Brute force: the smallest n in [n0, n_max] whose relative tail bound,
    by kernel_vector's formula with partial sums from one cumulative sum,
    is below tol (n_max when none is)."""
    r2 = abs(z) ** 2
    if r2 == 0:
        return n0
    h = space.h_table(n_max + 1) if space.extendable else space.h
    ns = np.arange(n0, min(n_max, len(h) - 1) + 1)
    partial = np.cumsum(r2 ** np.arange(len(h)) / h)[ns - 1]
    if space.extendable:
        a_min_sq = h[ns] / h[ns - 1]
    else:
        ratios = space.h[1:] / space.h[:-1]
        a_min_sq = np.minimum.accumulate(ratios[::-1])[::-1][ns - 1]
    q = r2 / a_min_sq
    with np.errstate(divide="ignore"):
        tail = np.where(q < 1, r2 ** ns / h[ns] / (1.0 - q), np.inf)
    passing = ns[tail / partial * (1.0 + 4.0 * ns * 2.0**-52) < tol]
    return int(passing[0]) if len(passing) else n_max


@pytest.mark.parametrize("space", BIT_SPACES, ids=lambda sp: sp.label)
@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_kernel_truncation_stops_within_5_percent_of_the_smallest_passing_one(space, tol):
    # the stop test is unchanged, so the tail stays below tol and bounds
    # the exact omitted mass; the truncation is the smallest index that
    # passes the test
    s = {"hardy": 1, "bergman": 2, "rs(3)": 3}.get(space.label)
    with mpmath.workdps(50):
        for i, z in enumerate(BIT_POINTS):
            pad = i % 5
            try:
                kv = kernel_vector(space, z, tol, pad)
            except TruncationError:
                assert not space.extendable, z  # only the custom table ends
                continue
            assert kv.tail < tol, z
            n0 = max(32, pad)
            # the brute force reads its partial sums off one cumulative sum,
            # which may round the test across by one index
            assert kv.n <= _smallest_passing_truncation(space, z, tol, n0, kv.n) + 1, (z, kv.n)
            x = mpmath.mpf(complex(z).real) ** 2 + mpmath.mpf(complex(z).imag) ** 2
            if space.label == "custom":
                # the mass its stored entries omit, relative to the kept mass
                mass = [x**k / mpmath.mpf(space.h[k]) for k in range(len(space.h))]
                exact = mpmath.fsum(mass[kv.n :]) / mpmath.fsum(mass[: kv.n])
            else:
                exact = _exact_relative_tail("mu" if space.label == "mu" else "rs", s, x, kv.n)
            assert kv.tail >= exact, (z, kv.n)


def test_truncation_stops_at_the_cap_and_the_table_end_keep_their_errors():
    with pytest.raises(TruncationError, match=rf"^kernel tail \S+ still above 1e-12 at truncation cap {N_CAP}$"):
        kernel_vector(monomial_norms("bergman", 4), 1 - 1e-7, tol=1e-12)
    with pytest.raises(
        TruncationError, match=r"^norm table of length 16 cannot reach tail 1e-12 at \|z\| = 0\.99 \(reached \S+\)$"
    ):
        kernel_vector(custom_space(np.ones(16)), 0.99, tol=1e-12)
    # a stop predicted past the end of a custom table is moved to its end
    with pytest.raises(TruncationError, match=r"^norm table of length 3000 cannot reach tail 1e-12"):
        kernel_vector(BIT_SPACES[-1], 0.9999j, tol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_kernel_series_raises():
    # an infinite partial sum would pass the stop test with a zero tail.
    # Here 1/h_k = 1e307 for k >= 1, so K(z, z) exceeds the largest float at
    # |z| = 0.99 while every norm is normal
    table = custom_space(np.r_[1.0, np.full(4095, 1e-307)], label="flat")
    with pytest.raises(TruncationError, match=r"^the kernel series of flat overflows at \|z\| = 0\.99$"):
        kernel_vector(table, 0.99, tol=1e-4)
    # K(z, z) = (1 - |z|^2)^-300 overflows too, but on rs(300) the norms
    # leave the normal range first (from h_1044), and that is what raises
    with pytest.raises(TruncationError, match=r"^rs\(300\) norm h_1044 = \S+ underflows below the normal range$"):
        kernel_vector(monomial_norms("rs", 4, s=300.0), 0.99, tol=1e-4)


def test_rs_norms_below_the_normal_range_raise():
    # h_14343 of rs(124.6) is subnormal; a truncation near 2 * 10^4 would
    # read norms down to 4e-322 that have lost their digits
    with pytest.raises(TruncationError, match=r"^rs\(124\.6\) norm h_14343 = \S+ underflows below the normal range$"):
        kernel_vector(monomial_norms("rs", 4, s=124.6), 0.99574, tol=1.9e-8)
    assert monomial_norms("rs", 14342, s=124.6).h[-1] >= np.finfo(float).tiny


def test_kernel_vector_domain_errors():
    space = monomial_norms("hardy", 4)
    with pytest.raises(ValueError):
        kernel_vector(space, 1.0)
    with pytest.raises(ValueError):
        kernel_vector(space, 1.2j)
    # a NaN point is rejected before any norm table is built, not after
    # the truncation has grown up to N_CAP
    for z in (complex("nan"), complex(0.3, math.nan)):
        with pytest.raises(ValueError, match="outside the open unit disk"):
            kernel_vector(space, z)


# ---------------------------------------------------------------------------
# Gram matrices


def kernel_gram(space, points, tol):
    """G[i, j] = K(z_i, z_j) = <k_{z_j}, k_{z_i}>, from the unnormalized
    kernel vectors, all at the truncation of the largest modulus."""
    n = max(kernel_vector(space, z, tol).n for z in points)
    kvs = [kernel_vector(space, z, tol, n_start=n) for z in points]
    cols = np.array([kernel_at(kv) * math.sqrt(kv.norm_sq) for kv in kvs])
    return cols.conj() @ cols.T


def test_gram_hardy_examples():
    space = monomial_norms("hardy", 4)
    g = kernel_gram(space, [0.0], tol=1e-12)
    assert g.shape == (1, 1) and g[0, 0] == pytest.approx(1.0, abs=1e-14)
    g = kernel_gram(space, [0.0, 0.5], tol=1e-12)
    assert np.allclose(g, [[1, 1], [1, 4 / 3]], atol=1e-12)


def test_gram_closed_forms():
    # oracle: K(w, z) = (1 - w conj(z))^(-s) for the rs family
    pts = [0.2 + 0.3j, -0.5, 0.1 - 0.7j]
    for s in [1.0, 2.0, 3.0]:
        space = monomial_norms("rs", 4, s=s)
        g = kernel_gram(space, pts, tol=1e-14)
        for i, w in enumerate(pts):
            for j, z in enumerate(pts):
                assert g[i, j] == pytest.approx(
                    (1 - w * np.conj(z)) ** (-s), rel=1e-12
                )
    # mu: K(w, z) = 1/2 + x/(1 - x) with x = w conj(z), from h_0 = 2, h_k = 1
    g = kernel_gram(monomial_norms("mu", 4), pts, tol=1e-14)
    for i, w in enumerate(pts):
        for j, z in enumerate(pts):
            x = w * np.conj(z)
            assert g[i, j] == pytest.approx(0.5 + x / (1 - x), rel=1e-12)


# ---------------------------------------------------------------------------
# custom tables


def test_custom_space_roundtrip(tmp_path):
    space = monomial_norms("bergman", 12)
    path = tmp_path / "h.csv"
    write_csv(path, ("k", "h"), enumerate(space.h))
    loaded = load_h_table(path)
    assert np.array_equal(loaded.h, space.h)
    kv = kernel_vector(loaded, 0.2, tol=1e-10)
    assert isinstance(kv, KernelVector)


def test_custom_space_validation():
    for h in ([1.0, -1.0], [1.0, np.nan, 0.5], [np.inf, 1.0, 1.0]):
        with pytest.raises(ValueError, match="not positive"):
            custom_space(np.array(h))
    with pytest.raises(ValueError, match="contractivity"):
        custom_space(np.array([1.0, 4.0]))
    # h_1/h_0 = 1e-600 underflows: a zero weight the table does not describe
    with pytest.raises(ValueError, match="underflows"):
        custom_space(np.array([1e300, 1e-300, 1e-300]))


def test_custom_table_exhaustion():
    space = custom_space(np.ones(16))
    with pytest.raises(TruncationError):
        kernel_vector(space, 0.99, tol=1e-12)


def test_custom_table_with_decaying_norms_usable():
    # bergman-style table: the tail majorant must use ratios from the
    # truncation point, not the global minimum ratio
    space = custom_space(1.0 / np.arange(1.0, 402.0), label="bergman-table")
    kv = kernel_vector(space, 0.9, tol=1e-10)
    assert kv.tail < 1e-10
    assert kv.norm_sq == pytest.approx(1 / (1 - 0.81) ** 2, rel=1e-9)


def test_custom_table_tail_reads_every_ratio_past_the_truncation():
    # a dip of 20 weights a_k = 0.1 (k = 40..59) past the first truncation:
    # a majorant built from the two ratios at n = 32 would omit almost all
    # of the table's K(z,z)
    a_sq = np.ones(199)
    a_sq[40:60] = 0.01
    h = np.concatenate(([1.0], np.cumprod(a_sq)))
    space = custom_space(h)
    with mpmath.workdps(50):
        for z in [0.5, 0.45j, 0.3, -0.7, 0.1]:
            kv = kernel_vector(space, z, tol=1e-12)
            x = mpmath.mpf(complex(z).real) ** 2 + mpmath.mpf(complex(z).imag) ** 2
            omitted = mpmath.fsum(x**k / mpmath.mpf(h[k]) for k in range(kv.n, len(h)))
            assert omitted <= kv.tail * kv.norm_sq, (z, kv.n)


def test_truncation_cap_fails_loudly():
    space = monomial_norms("hardy", 4)
    with pytest.raises(TruncationError, match="cap"):
        kernel_vector(space, 1 - 1e-7, tol=1e-12)


def test_rs3_norms_match_weighted_area_integral():
    # oracle: for s = 3 the norms come from the probability measure
    # 2(1-r^2) 2r dr dtheta/2pi on the disk: h_k = 2/((k+1)(k+2))
    x, wq = np.polynomial.legendre.leggauss(96)
    r = 0.5 * (x + 1.0)
    space = monomial_norms("rs", 6, s=3.0)
    for k in range(7):
        oracle = 0.5 * np.sum(wq * r ** (2 * k) * 2 * (1 - r**2) * 2 * r)
        assert space.h[k] == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# ball norms


def _ball_kernel_expansion_oracle(n, s_power, degree):
    """Coefficients of (1 - <z,w>)^(-s_power) for integer s_power >= 1 by
    brute-force polynomial multiplication over multi-index dictionaries."""
    # <z,w>^m expanded by repeated convolution; the kernel coefficient of
    # z^alpha conj(w)^alpha determines 1/||z^alpha||^2
    base = {tuple(int(i == j) for j in range(n)): 1.0 for i in range(n)}
    coeffs = {}
    power = {tuple([0] * n): 1.0}  # <z,w>^0
    total = int(s_power)
    # (1 - x)^(-s) = sum_m C(s+m-1, m) x^m with x = <z,w>
    from math import comb

    for m in range(degree + 1):
        for alpha, c in power.items():
            coeffs[alpha] = coeffs.get(alpha, 0.0) + comb(total + m - 1, m) * c
        nxt = {}
        for alpha, c in power.items():
            for beta, cb in base.items():
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                nxt[gamma] = nxt.get(gamma, 0.0) + c * cb
        power = nxt
    return coeffs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_da_norms_match_kernel_expansion(n):
    space = da_norms(n, 6)
    oracle = _ball_kernel_expansion_oracle(n, 1, 6)
    for alpha, norm in space.norms.items():
        assert norm == pytest.approx(1.0 / oracle[alpha], rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_hardy_ball_norms_match_kernel_expansion(n):
    space = hardy_ball_norms(n, 6)
    oracle = _ball_kernel_expansion_oracle(n, n, 6)
    for alpha, norm in space.norms.items():
        assert norm == pytest.approx(1.0 / oracle[alpha], rel=1e-12)


def test_da_norms_examples():
    space = da_norms(2, 4)
    assert space.norms[(1, 1)] == pytest.approx(0.5)
    assert space.norms[(2, 0)] == pytest.approx(1.0)
    assert space.norms[(0, 0)] == 1.0


def _separate_ball_norm(alpha, kind):
    """The two per-kind formulas ``ball_space`` merged: alpha!/|alpha|! for
    Drury-Arveson, alpha! (n-1)! / (|alpha| + n - 1)! for the Hardy ball."""
    num = math.prod(math.factorial(a) for a in alpha)
    if kind == "drury_arveson":
        return num / math.factorial(sum(alpha))
    n = len(alpha)
    return num * math.factorial(n - 1) / math.factorial(sum(alpha) + n - 1)


def _separate_ball_norms(n, degree_cap, kind):
    alphas = sorted(a for a in itertools.product(range(degree_cap + 1), repeat=n) if sum(a) <= degree_cap)
    return {alpha: _separate_ball_norm(alpha, kind) for alpha in alphas}


@pytest.mark.parametrize("kind", ["drury_arveson", "hardy_ball"])
def test_ball_norms_bits_match_the_separate_formulas(kind):
    # s = 1 folds (s - 1)! = 0! = 1 into the numerator, an exact integer product
    for n in range(1, 5):
        for d in range(9):
            got = ball_space(n, d, kind).norms
            want = _separate_ball_norms(n, d, kind)
            assert list(got) == list(want)
            assert all(got[a].hex() == want[a].hex() for a in want), (kind, n, d)
    # the one factorial table out to the largest sizes ``probe spherical``
    # accepts, at every 97th multi-index and the last
    for n, d in [(1, 2895), (2, 62), (12, 3)]:
        got = ball_space(n, d, kind).norms
        alphas = list(got)
        for alpha in alphas[::97] + alphas[-1:]:
            assert got[alpha].hex() == _separate_ball_norm(alpha, kind).hex(), (kind, n, d, alpha)
    assert da_norms(3, 4).norms == ball_space(3, 4).norms
    assert hardy_ball_norms(3, 4).norms == ball_space(3, 4, "hardy_ball").norms


def test_ball_space_dispatch_and_errors():
    assert ball_space(2, 3).kind == "drury_arveson"
    assert ball_space(2, 3, "hardy_ball").kind == "hardy_ball"
    with pytest.raises(ValueError):
        ball_space(0, 3)
    with pytest.raises(ValueError):
        da_norms(2, -1)
    with pytest.raises(ValueError):
        ball_space(2, 3, "wat")
