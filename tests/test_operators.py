"""Truncated multiplication operators, projections, commutators, probes."""

import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from berezin_lab.exprs import MPoly, MPolyAdj, apply, materialize, rotate
from berezin_lab.operators import (
    BlaschkeProduct,
    _gram_band,
    _gram_lambda_min,
    closed_range_probe,
    commutator_norm_PzMphi,
    fredholm_probe,
    norm_lower_bound_check,
    poly_eval,
    spherical_contraction_check,
    sup_on_circle,
    wot_dilation_probe,
)
from berezin_lab.spaces import (
    TruncationError,
    ball_space,
    custom_space,
    da_norms,
    hardy_ball_norms,
    kernel_vector,
    monomial_norms,
)

from oracles import (
    ball_coordinate_matrices,
    count_table_builds,
    band_by_entries,
    band_from_dense,
    column_sigma_min,
    dense_mult,
    dense_sum_sigma_max,
    kernel_at,
    projection_Pz,
    table_reach,
    tall_mult_matrix,
    wot_deviation,
)

rng = np.random.default_rng(515253)

hardy = monomial_norms("hardy", 4)
bergman = monomial_norms("bergman", 4)
rs3 = monomial_norms("rs", 4, s=3.0)
mu = monomial_norms("mu", 4)
SPACES = [hardy, bergman, rs3, mu]


def gram_mult_oracle(space, coeffs, n):
    """Dense construction of <phi e_j, e_i>: phi * e_j expands over the
    monomials, and the module inner product reduces the entry to
    c_{i-j} sqrt(h_i / h_j)."""
    h = space.h_table(n + len(coeffs))
    mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k, c in enumerate(coeffs):
            i = j + k
            if i < n:
                mat[i, j] = c * np.sqrt(h[i] / h[j])
    return mat


def quadrature_mult_oracle_hardy(coeffs, n):
    """<phi e_j, e_i> on the circle by trapezoid quadrature (exact for
    trigonometric polynomials)."""
    m = 4 * (n + len(coeffs) + 2)
    theta = 2 * np.pi * np.arange(m) / m
    zs = np.exp(1j * theta)
    phi = poly_eval(coeffs, zs)
    mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        f = phi * zs**j
        for i in range(n):
            mat[i, j] = np.mean(f * np.conj(zs**i))
    return mat


def quadrature_mult_oracle_bergman(coeffs, n):
    """<phi e_j, e_i> over the disk: Gauss-Legendre radially, trapezoid
    angularly, against the normalized monomials z^k sqrt(k+1)."""
    m = 4 * (n + len(coeffs) + 2)
    theta = 2 * np.pi * np.arange(m) / m
    x, wq = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (x + 1)
    wr = 0.5 * wq * 2 * r  # area element 2 r dr with dtheta/2pi normalized
    zs = r[:, None] * np.exp(1j * theta)[None, :]
    phi = poly_eval(coeffs, zs)
    mat = np.zeros((n, n), dtype=complex)
    norm = np.sqrt(np.arange(n + len(coeffs)) + 1.0)
    for j in range(n):
        f = phi * zs**j * norm[j]
        for i in range(n):
            g = np.conj(zs**i) * norm[i]
            mat[i, j] = np.sum(wr[:, None] * f * g) / m
    return mat


# ---------------------------------------------------------------------------
# multiplication matrices


def test_mult_matrix_hardy_shift():
    m = dense_mult(hardy, [0, 1], 3)
    want = np.zeros((3, 3))
    want[1, 0] = want[2, 1] = 1.0
    assert np.array_equal(m, want)


def test_mult_matrix_bergman_subdiagonal():
    m = dense_mult(bergman, [0, 1], 3)
    assert m[1, 0] == pytest.approx(np.sqrt(1 / 2), abs=1e-15)
    assert m[2, 1] == pytest.approx(np.sqrt(2 / 3), abs=1e-15)


def test_mult_matrix_identity():
    for sp in SPACES:
        assert np.array_equal(dense_mult(sp, [1], 5), np.eye(5))


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_banded_matches_gram_construction(space):
    for _ in range(5):
        deg = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        n = int(rng.integers(deg + 1, 257))
        banded = dense_mult(space, coeffs, n)
        oracle = gram_mult_oracle(space, coeffs, n)
        assert np.max(np.abs(banded - oracle)) <= 1e-12 * max(1, np.abs(coeffs).sum())


def test_banded_matches_quadrature_oracles():
    coeffs = np.array([0.3, -0.5 + 0.2j, 0.1, 0.7j])
    got = dense_mult(hardy, coeffs, 12)
    assert np.max(np.abs(got - quadrature_mult_oracle_hardy(coeffs, 12))) < 1e-12
    got = dense_mult(bergman, coeffs, 12)
    assert np.max(np.abs(got - quadrature_mult_oracle_bergman(coeffs, 12))) < 1e-11


def test_nested_truncations():
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for sp in SPACES:
        big = dense_mult(sp, coeffs, 33)
        small = dense_mult(sp, coeffs, 32)
        assert np.array_equal(big[:32, :32], small)


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_truncation_contractivity(space):
    # sigma_max never exceeds the circle sup by more than 1e-8; the sup is
    # evaluated on a dense grid so its own defect stays below that
    for _ in range(4):
        deg = int(rng.integers(1, 9))
        coeffs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / (deg + 1)
        op = dense_mult(space, coeffs, 128)
        sup, _ = sup_on_circle(coeffs, 2**20)
        assert np.linalg.svd(op, compute_uv=False)[0] <= sup + 1e-8


def test_adjoint_coherence():
    coeffs = np.array([0.2, 0.4 - 0.3j, 0.1j])
    for sp in SPACES:
        op = dense_mult(sp, coeffs, 64)
        kv = kernel_vector(sp, 0.4 + 0.2j, tol=1e-14)
        v = np.zeros(64, dtype=complex)
        v[: kv.n] = kernel_at(kv)
        val = np.vdot(v, op.conj().T @ v)
        assert val == pytest.approx(np.conj(poly_eval(coeffs, 0.4 + 0.2j)), abs=1e-10)


# ---------------------------------------------------------------------------
# kernel projections


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_projection_idempotent_hermitian_trace(space):
    for z in (0.0, 0.5, -0.3 + 0.6j):
        p = projection_Pz(space, z, 48)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_projection_at_origin():
    p = projection_Pz(hardy, 0.0, 5)
    want = np.zeros((5, 5))
    want[0, 0] = 1.0
    assert np.allclose(p, want, atol=1e-15)


def test_projection_reproduces_kernel_vector():
    kv = kernel_vector(hardy, 0.5, tol=1e-13)
    p = projection_Pz(hardy, 0.5, kv.n)
    v = kernel_at(kv)
    assert np.linalg.norm(p @ v - v) <= 1e-10


# ---------------------------------------------------------------------------
# commutator with the kernel projection


def dense_commutator_oracle(space, coeffs, z, n):
    p = projection_Pz(space, z, n, tol=1e-14)
    m = dense_mult(space, coeffs, n)
    return np.linalg.svd(p @ m - m @ p, compute_uv=False)[0]


def test_commutator_hardy_origin_attains_bound():
    val = commutator_norm_PzMphi(hardy, [0, 1], 0.0)
    assert val == pytest.approx(1.0, abs=1e-12)
    # oracle: dense SVD of [Mz, e0 e0^*]
    assert dense_commutator_oracle(hardy, [0, 1], 0.0, 16) == pytest.approx(1.0, abs=1e-12)


def test_commutator_bound_near_boundary():
    for sp in (hardy, bergman):
        for z in (0.5, 0.9, 0.99):
            val = commutator_norm_PzMphi(sp, [0, 1], z)
            assert val <= np.sqrt(1 - z**2) + 1e-8


def test_commutator_constant_symbol_vanishes():
    assert commutator_norm_PzMphi(hardy, [0.5], 0.3) == pytest.approx(0.0, abs=1e-13)


def test_commutator_lowrank_matches_dense_svd():
    for sp in (hardy, bergman, mu):
        for _ in range(4):
            deg = int(rng.integers(1, 5))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            c /= np.abs(c).sum() * 1.01  # sup-norm below 1
            z = complex(rng.uniform(0, 0.6) * np.exp(2j * np.pi * rng.uniform()))
            # the dense oracle at the adaptive frame the probe uses
            n = len(kernel_vector(sp, z, tol=1e-13, pad=deg).v)
            got = commutator_norm_PzMphi(sp, c, z)
            want = dense_commutator_oracle(sp, c, z, n)
            assert got == pytest.approx(want, abs=1e-10)


def test_commutator_supnorm_precondition():
    with pytest.raises(ValueError, match="sup-norm"):
        commutator_norm_PzMphi(hardy, [0, 2.0], 0.3)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="np.longdouble is no wider than float64 here, so it cannot be the extended-precision reference",
)
@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.kind)
def test_commutator_matches_extended_precision_projections(space):
    # the probe's value is max ||(I - P) x|| over x in {M v, M^* v}, P the
    # orthogonal projection onto the real kernel line v and M the tree
    # rotated by its phase; the reference takes the same float64 vectors
    # and projects them in np.clongdouble, so what is left is the probe's
    # own rounding
    r = np.random.default_rng(2020)
    for _ in range(3):
        deg = int(r.integers(1, 4))
        c = r.standard_normal(deg + 1) + 1j * r.standard_normal(deg + 1)
        c *= 0.95 / sup_on_circle(c)[0]
        node = MPoly(tuple(c))
        for rad in (0.5, 0.9, 0.99, 0.999, 0.9999):
            z = rad * np.exp(2j * np.pi * r.uniform())
            kv = kernel_vector(space, z, tol=1e-13, pad=deg)
            v = kv.v.astype(np.clongdouble)
            want = 0.0
            rotated = rotate(node, kv.w)
            for x in (apply(rotated, kv.a, kv.v), apply(MPolyAdj(rotated.coeffs), kv.a, kv.v)):
                x = x.astype(np.clongdouble)
                x -= np.sum(np.conj(v) * x) / np.sum(v.real ** 2 + v.imag ** 2) * v
                want = max(want, np.sqrt(np.sum(x.real ** 2 + x.imag ** 2)))
            got = commutator_norm_PzMphi(space, c, z)
            assert abs(got - want) <= 1e-13 * want, (space.kind, c, z, got, float(want))


# ---------------------------------------------------------------------------
# column operators


def test_column_sigma_min_shift_pair():
    n = 64
    mz = dense_mult(hardy, [0, 1], n)
    got = column_sigma_min([mz, mz.conj().T])
    # oracle: dense eigensolve of Mz^*Mz + Mz Mz^* = 2I - e0 e0^* (hardy)
    acc = mz.conj().T @ mz + mz @ mz.conj().T
    want = np.sqrt(np.linalg.eigvalsh(acc)[0])
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_column_sigma_min_matches_stacked_svd():
    n = 48
    for sp in (hardy, bergman):
        blocks = [
            dense_mult(sp, rng.standard_normal(3) + 1j * rng.standard_normal(3), n)
            for _ in range(3)
        ]
        flags = [bool(rng.integers(0, 2)) for _ in range(3)]
        col = [b.conj().T if f else b for b, f in zip(blocks, flags)]
        got = column_sigma_min(col)
        want = np.linalg.svd(np.vstack(col), compute_uv=False)[-1]
        assert got == pytest.approx(want, abs=1e-10)


def test_column_boundary_point_trend_to_zero():
    # [Mz - 1; (Mz - 1)^*]: sigma_min decays as the truncation grows
    vals = []
    for n in (64, 128, 256, 512):
        op = dense_mult(hardy, [-1, 1], n)
        vals.append(column_sigma_min([op, op.conj().T]))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_column_identity():
    assert column_sigma_min([np.eye(8, dtype=complex)]) == pytest.approx(1.0, abs=1e-12)


def test_column_dimension_mismatch():
    with pytest.raises(ValueError):
        column_sigma_min([np.eye(4, dtype=complex), np.eye(5, dtype=complex)])
    with pytest.raises(ValueError):
        column_sigma_min([])


# ---------------------------------------------------------------------------
# boundary norm lower bound


def test_norm_lower_bound_shift_pair():
    rep = norm_lower_bound_check(hardy, [[0, 1]], [[0, 1]], 64)
    # Mz Mz^* is a projection on hardy: sigma_max = 1 = sup |z|^2
    assert rep["sigma_max"] == pytest.approx(1.0, abs=1e-12)
    assert rep["passed"]


def test_norm_lower_bound_constants():
    rep = norm_lower_bound_check(hardy, [[1]], [[1]], 16)
    assert rep["sigma_max"] == pytest.approx(1.0, abs=1e-12)
    assert rep["grid_sup"] == pytest.approx(1.0, abs=1e-12)
    assert rep["passed"]


def _normalized_family(r, k, deg=5):
    j = np.arange(deg + 1)
    scale = 1.0 / (1.0 + j) ** 2
    phis = [(r.standard_normal(deg + 1) + 1j * r.standard_normal(deg + 1)) * scale for _ in range(k)]
    psis = [(r.standard_normal(deg + 1) + 1j * r.standard_normal(deg + 1)) * scale for _ in range(k)]
    theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    zs = np.exp(1j * theta)
    tot = sum(poly_eval(p, zs) * np.conj(poly_eval(q, zs)) for p, q in zip(phis, psis))
    s = np.sqrt(np.max(np.abs(tot)))
    return [p / s for p in phis], [q / s for q in psis]


def test_norm_lower_bound_random_families():
    r = np.random.default_rng(11)
    for _ in range(10):
        phis, psis = _normalized_family(r, int(r.integers(1, 4)))
        for sp in (hardy, bergman):
            rep = norm_lower_bound_check(sp, phis, psis, 256, tol=0.01)
            assert rep["passed"], rep["margin"]


def test_norm_lower_bound_empty_rejected():
    with pytest.raises(ValueError):
        norm_lower_bound_check(hardy, [], [], 16)


def test_norm_sigma_max_matches_dense_svd():
    # the band of A^H A against the dense sum and its SVD: five spaces,
    # truncations 1-256, degrees 0-6 (so 2q + 1 >= N at small N, where
    # the comb block is the identity), and families of 1-3 pairs whose
    # phi and psi differ in length
    r = np.random.default_rng(2024)
    table = custom_space(np.cumprod(np.r_[1.0, r.uniform(0.5, 1.0, 299)]))
    for space in (hardy, bergman, rs3, mu, table):
        for n in (1, 2, 3, 8, 16, 64, 256):
            for _ in range(6):
                k = int(r.integers(1, 4))
                lengths = r.integers(1, min(7, n) + 1, size=(2, k))
                phis, psis = (
                    [r.standard_normal(m) + 1j * r.standard_normal(m) for m in row] for row in lengths
                )
                got = norm_lower_bound_check(space, phis, psis, n)["sigma_max"]
                want = dense_sum_sigma_max(space, phis, psis, n)
                assert got == pytest.approx(want, rel=1e-12), (space.kind, n, lengths)


def test_norm_lower_bound_degree_needs_truncation_above_it():
    with pytest.raises(ValueError, match="degree 3 needs truncation above 3"):
        norm_lower_bound_check(hardy, [[1, 0, 0, 1]], [[1]], 3)


def test_norm_lower_bound_memory_is_banded():
    # at N = 2048 one dense complex N x N array alone is 67 MB; the band
    # path holds O(N q) entries, q = 10 here
    r = np.random.default_rng(7)
    phis, psis = _normalized_family(r, 3)
    norm_lower_bound_check(hardy, phis, psis, 64)  # LAPACK modules loaded outside the trace
    tracemalloc.start()
    try:
        norm_lower_bound_check(hardy, phis, psis, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# ball coordinate columns


def test_spherical_contraction_drury_arveson():
    rep = spherical_contraction_check(da_norms(2, 10))
    assert rep["passed"]
    assert rep["row_norm"] <= 1 + 1e-10
    # oracle: dense SVD of the adjoint-stacked block
    mats = ball_coordinate_matrices(da_norms(2, 10))
    stacked = np.vstack([m.T for m in mats])  # real symmetric-free transpose
    assert np.linalg.svd(stacked, compute_uv=False)[0] == pytest.approx(rep["row_norm"], abs=1e-12)
    # the literal column reaches sqrt(2) at the vacuum vector
    assert rep["column_norm_literal"] == pytest.approx(np.sqrt(2), abs=1e-10)


def test_spherical_contraction_hardy_ball():
    rep = spherical_contraction_check(hardy_ball_norms(2, 8))
    assert rep["passed"]


def test_spherical_contraction_one_variable_reduces_to_disk():
    rep = spherical_contraction_check(da_norms(1, 12))
    assert rep["row_norm"] == pytest.approx(1.0, abs=1e-12)
    mats = ball_coordinate_matrices(da_norms(1, 12))
    sub = np.diag(mats[0], -1)
    assert np.allclose(sub, 1.0)  # hardy weights


def _stack_sigma_max(mats) -> float:
    return float(np.linalg.svd(np.vstack(mats), compute_uv=False)[0])


@pytest.mark.parametrize("kind", ["drury_arveson", "hardy_ball"])
@pytest.mark.parametrize("n, d", [(1, 5), (2, 10), (3, 8), (4, 6), (7, 3), (1, 0), (3, 0)])
def test_spherical_diagonals_match_dense_svd(kind, n, d):
    # both Grams are diagonal on the monomial basis; the probe reads them
    # without the dense coordinate matrices the oracle stacks and factors
    ball = ball_space(n, d, kind)
    rep = spherical_contraction_check(ball)
    mats = ball_coordinate_matrices(ball)
    for got, want in (
        (rep["row_norm"], _stack_sigma_max([m.T for m in mats])),
        (rep["column_norm_literal"], _stack_sigma_max(mats)),
    ):
        if d == 0:
            assert got == want == 0.0
        else:
            assert abs(got - want) <= 4 * np.spacing(want), (got, want)


@pytest.mark.parametrize("n, d", [(1, 5), (2, 10), (3, 8), (4, 6), (7, 3), (2, 62)])
def test_spherical_analytic_values(n, d):
    # Drury-Arveson: sum_i M_i M_i^* is 1 off the constants and the literal
    # column reaches sqrt(n) there; Hardy ball: the row peaks at degree d
    # with d / (d + n - 1), and sum_i M_i^* M_i is 1 below the cap
    da = spherical_contraction_check(da_norms(n, d))
    assert da["row_norm"] == 1.0
    assert da["column_norm_literal"] == math.sqrt(n)
    hb = spherical_contraction_check(hardy_ball_norms(n, d))
    want = math.sqrt(d / (d + n - 1))
    assert abs(hb["row_norm"] - want) <= 2 * np.spacing(want)
    assert abs(hb["column_norm_literal"] - 1.0) <= 2 * np.spacing(1.0)


def test_constant_function_row_vs_column():
    # sum_i ||M_{z_i} 1||^2 = n on the vacuum: the literal column norm
    # squared at e_0 equals n, the certified orientation stays <= 1
    ball = da_norms(3, 4)
    mats = ball_coordinate_matrices(ball)
    e0 = np.zeros(len(ball.basis()))
    e0[0] = 1.0
    total = sum(np.linalg.norm(m @ e0) ** 2 for m in mats)
    assert total == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# symbol dilation


def test_wot_dilation_shift():
    rep = wot_dilation_probe(hardy, [0, 1], [0.9], block=8)
    assert rep["deviations"][0] == pytest.approx(0.1, abs=1e-12)


def test_wot_dilation_geometric_series():
    coeffs = 0.9 ** np.arange(40)
    rep = wot_dilation_probe(hardy, coeffs, [0.9, 0.99, 0.999], block=20)
    d = rep["deviations"]
    assert d[0] > d[1] > d[2]
    assert rep["non_increasing"]
    # oracle: explicit geometric coefficients 0.9^j (1 - t^j) on hardy
    j = np.arange(20)
    for t, dev in zip((0.9, 0.99, 0.999), d):
        assert dev == pytest.approx(np.max(0.9**j * (1 - t**j)), rel=1e-12)


def test_wot_dilation_constant():
    rep = wot_dilation_probe(bergman, [2.0], [0.5, 0.9], block=6)
    assert rep["deviations"] == [0.0, 0.0]


def test_wot_dilation_validation():
    with pytest.raises(ValueError):
        wot_dilation_probe(hardy, [np.inf], [0.9])
    with pytest.raises(ValueError):
        wot_dilation_probe(hardy, [0, 1], [0.99, 0.9])
    with pytest.raises(ValueError, match="block"):
        wot_dilation_probe(hardy, [0, 1], [0.9], block=0)


def _wot_cases(r, count):
    """(space, coefficients, block): five spaces, a seeded custom table
    among them; blocks 1-64 and degrees up to one past the block, so some
    series are cut at it; about one coefficient in five is zero."""
    table = custom_space(np.cumprod(np.r_[1.0, r.uniform(0.5, 1.0, 99)]))
    for space in (hardy, bergman, rs3, mu, table):
        for _ in range(count):
            block = int(r.integers(1, 65))
            deg = int(r.integers(0, block + 1))
            c = r.standard_normal(deg + 1) + 1j * r.standard_normal(deg + 1)
            c[r.uniform(size=deg + 1) < 0.2] = 0
            yield space, c, block


def test_wot_deviations_match_dense_oracle():
    # the closed form against the definition, the largest entry of the
    # dense M_phi - M_phi_t (``oracles.wot_deviation``).  Near t = 1 that
    # difference cancels, to a relative error of about eps / (1 - t), so
    # the random t stay below 0.99; t = 0 and t = 1 are exact on both sides
    r = np.random.default_rng(1616)
    for space, c, block in _wot_cases(r, 20):
        ts = [0.0, *np.sort(r.uniform(0.0, 0.99, 4)), 1.0]
        got = wot_dilation_probe(space, c, ts, block=block)["deviations"]
        want = [wot_deviation(space, c, t, block) for t in ts]
        assert got == pytest.approx(want, rel=1e-12, abs=0), (space.kind, block, len(c))


def test_wot_deviations_never_increase():
    # no slack: every increasing schedule, t = 0 and t = 1 included, gives
    # non-increasing deviations, also between neighbours one ulp apart,
    # where only rounding separates the values
    r = np.random.default_rng(1617)
    below_one = np.nextafter(1.0, 0.0)
    for space, c, block in _wot_cases(r, 20):
        t = float(r.uniform(0.0, 1.0))
        ts = sorted({
            0.0, 1.0, t, float(np.nextafter(t, 0.0)), float(np.nextafter(t, 1.0)),
            float(below_one), float(np.nextafter(below_one, 0.0)), *r.uniform(0.0, 1.0, 3),
        })
        rep = wot_dilation_probe(space, c, ts, block=block)
        d = rep["deviations"]
        assert all(b <= a for a, b in zip(d, d[1:])), (space.kind, block, ts, d)
        assert rep["non_increasing"] and d[-1] == 0.0


def test_wot_dilation_memory_is_linear_in_block():
    # block = 2^14, the CLI's cap, with every band nonzero: one dense
    # block x block complex array alone would be 4 GB
    c = 1.0 / (1.0 + np.arange(2 ** 14))
    tracemalloc.start()
    try:
        rep = wot_dilation_probe(bergman, c, [0.0, 0.9, 1.0], block=2 ** 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert rep["non_increasing"] and rep["deviations"][0] > 0.49


# ---------------------------------------------------------------------------
# Fredholm probe


def test_fredholm_hardy_origin_exact():
    # M_z is an isometry on hardy: its Gram is the identity
    rep = fredholm_probe(hardy, 0.0)
    assert rep["residual"] == 0.0
    assert rep["lambda_min"][128] == pytest.approx(1.0, abs=1e-12)
    lo, hi = rep["lambda_min_bracket"][128]
    assert lo <= 1.0 <= hi
    assert rep["classification"] == "bounded_below"


@pytest.mark.parametrize("z0", [0.4, 0.2])
def test_fredholm_bergman_interior_point(z0):
    rep = fredholm_probe(bergman, z0)
    assert rep["residual"] <= 10 * rep["tail"]
    assert min(rep["lambda_min"].values()) > 0.01
    assert rep["classification"] == "bounded_below"


def test_fredholm_rejects_boundary():
    with pytest.raises(ValueError):
        fredholm_probe(hardy, 1.0)


# ---------------------------------------------------------------------------
# closed range probes


def test_blaschke_coefficients_accurate():
    b = BlaschkeProduct((0.5,))
    coeffs, tail = b.coefficients(64)
    zs = 0.3 * np.exp(2j * np.pi * np.arange(7) / 7)
    series = poly_eval(coeffs, zs)
    assert np.max(np.abs(series - b.eval(zs))) <= tail + 1e-13
    assert tail < 1e-12


def test_blaschke_multifactor_coefficients():
    b = BlaschkeProduct((0.5, -0.3 + 0.4j, 0.2j))
    coeffs, tail = b.coefficients(96)
    zs = 0.45 * np.exp(2j * np.pi * np.arange(9) / 9)
    series = poly_eval(coeffs, zs)
    assert np.max(np.abs(series - b.eval(zs))) <= tail + 1e-12
    # inner functions are unimodular on the circle
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.allclose(np.abs(b.eval(circle)), 1.0, atol=1e-12)


def _mp_blaschke_mass_past(zeros, lengths, m=400):
    """The l^1 mass of the product's Taylor series past each of ``lengths``,
    at 50 digits: coefficients up to ``m`` by exact convolution, plus the
    analytic bound on the mass past ``m`` (each factor (z - a)/(1 - conj(a) z)
    has l^1 norm 1 + 2|a|, so this over-counts by at most that bound)."""
    with mp.workdps(50):
        zs = [mp.mpc(complex(a)) for a in zeros]
        prod = [mp.mpc(1)] + [mp.mpc(0)] * (m - 1)
        for a in zs:
            fac = [-a] + [(1 - abs(a) ** 2) * mp.conj(a) ** (n - 1) for n in range(1, m)]
            prod = [mp.fsum(prod[j] * fac[n - j] for j in range(n + 1)) for n in range(m)]
        l1 = [1 + 2 * abs(a) for a in zs]
        beyond = mp.fsum(
            (1 - abs(a) ** 2) * abs(a) ** (m - 1) / (1 - abs(a)) * mp.fprod(l1[:i] + l1[i + 1 :])
            for i, a in enumerate(zs)
        )
        return {n: mp.fsum(abs(c) for c in prod[n:]) + beyond for n in lengths}


@pytest.mark.parametrize("zeros", [
    (0.5, -0.5),
    (0.8, 0.8j, -0.6),
    (0.7, 0.7, 0.7, 0.7),
    (0.8, -0.8, 0.8j, -0.8j, 0.5 + 0.5j),
])
def test_blaschke_tail_bounds_the_mass_past_length(zeros):
    # the running product is cut to length + 64 terms after each factor;
    # at short lengths the products of 4-5 zeros at 0.7-0.8 still have
    # most of their mass past the cut, which the tail must count
    lengths = (2, 4, 8, 16, 32, 64)
    true = _mp_blaschke_mass_past(zeros, lengths)
    for n in lengths:
        coeffs, tail = BlaschkeProduct(zeros).coefficients(n)
        assert len(coeffs) == n
        assert tail >= true[n], (n, tail, true[n])


def test_closed_range_two_factor_blaschke_on_bergman():
    # well-separated zeros: the product multiplier stays bounded below
    b = BlaschkeProduct((0.5, -0.5))
    rep = closed_range_probe(bergman, b, n_schedule=(128, 256, 512, 1024))
    assert rep["classification"] == "bounded_below"
    assert min(rep["lambda_min"].values()) > 0.01


def test_blaschke_rejects_outer_zero():
    with pytest.raises(ValueError):
        BlaschkeProduct((1.2,))


def test_closed_range_hardy_blaschke_isometry():
    rep = closed_range_probe(hardy, BlaschkeProduct((0.5,)), n_schedule=(128, 256))
    for v in rep["lambda_min"].values():
        assert v == pytest.approx(1.0, abs=1e-10)
    assert rep["kernel_bound_inf"] == pytest.approx(1.0, abs=1e-9)


def test_closed_range_bergman_blaschke_bounded_below():
    rep = closed_range_probe(bergman, BlaschkeProduct((0.5,)), n_schedule=(128, 256, 512, 1024))
    assert rep["classification"] == "bounded_below"
    assert min(rep["lambda_min"].values()) > 0.1


def test_closed_range_boundary_zero_vanishes():
    rep = closed_range_probe(hardy, [-1.0, 1.0], n_schedule=(128, 256, 512, 1024))
    assert rep["classification"] == "vanishing"
    # oracle: the Gram is the Toeplitz tridiagonal [-1, 2, -1] whose
    # smallest eigenvalue is 2 - 2 cos(pi/(N+1))
    for n, v in rep["lambda_min"].items():
        assert v == pytest.approx(2 - 2 * np.cos(np.pi / (n + 1)), rel=1e-8)


# Narrow and wide Gram bands, and series longer than N = 128, where the
# band is full.
# z - z0 with |z0| < 1 is the fredholm probe's symbol too (z0 given).
@pytest.mark.parametrize(
    "space, phi, z0",
    [
        (hardy, BlaschkeProduct((0.3,)), None),
        (bergman, BlaschkeProduct((0.5 * np.exp(1j),)), None),
        (bergman, BlaschkeProduct((0.5, -0.5)), None),
        (rs3, BlaschkeProduct((0.5, -0.3 + 0.4j, 0.2j)), None),
        (bergman, BlaschkeProduct((0.9,)), None),
        (hardy, BlaschkeProduct((0.95j,)), None),
        (hardy, [-1.0, 1.0], None),
        (bergman, [-1.0, 1.0], None),
        (rs3, [-1.0, 1.0], None),
        (bergman, [-0.4, 1.0], 0.4),
        (hardy, [-(0.4 + 0.3j), 1.0], 0.4 + 0.3j),
        (rs3, [-0.9, 1.0], 0.9),
    ],
    ids=["hardy-0.3", "bergman-0.5e^i", "bergman-0.5,-0.5", "rs3-three-zeros",
         "bergman-0.9", "hardy-0.95i", "hardy-z-1", "bergman-z-1", "rs3-z-1",
         "bergman-z-0.4", "hardy-z-(0.4+0.3i)", "rs3-z-0.9"],
)
def test_closed_range_gram_solves_match_dense_oracle(space, phi, z0):
    tol = 1e-12
    rep = closed_range_probe(space, phi, grid=[0j], n_schedule=(128, 1024), tol=tol)
    assert rep["series_tail"] <= tol
    if isinstance(phi, BlaschkeProduct):
        coeffs, tail = phi.series(tol)
        assert tail == rep["series_tail"]
    else:
        coeffs = np.asarray(phi, dtype=complex)
    for n, lam in rep["lambda_min"].items():
        b = tall_mult_matrix(space, coeffs, n)
        want = np.linalg.eigvalsh(b.conj().T @ b)[0]
        assert abs(lam - want) <= 1e-13, (n, lam, want)
        lo, hi = rep["lambda_min_bracket"][n]
        assert 0 <= lo <= want <= hi, (n, lo, want, hi)
        assert lo <= lam <= hi
    if z0 is not None:
        # one path: the same solves, so the same brackets around the oracle
        fred = fredholm_probe(space, z0, (128, 1024), tol=tol)
        assert fred["lambda_min"] == rep["lambda_min"]
        assert fred["lambda_min_bracket"] == rep["lambda_min_bracket"]
        assert fred["classification"] == rep["classification"]


@pytest.mark.parametrize(
    "space, absa, n",
    [
        (bergman, 0.3, 40),
        (rs3, 0.7, 100),
        (rs3, 0.9, 700),
        (bergman, 0.9, 100),
        (hardy, 0.9, 2),
    ],
    ids=["sums", "sums-p-above-n", "blocks", "blocks-p-above-n", "full-band"],
)
def test_gram_band_matches_dense_gram(space, absa, n):
    # narrow (p < 400, ids "sums") and wide ("blocks") bands, each with p
    # below and above N (several blocks of N values of s, the last one
    # partial), and a full band once p >= N - 1
    coeffs, _ = BlaschkeProduct((absa * np.exp(0.4j),)).series(1e-12)
    band = _gram_band(space, coeffs, n)
    assert band.shape == (min(len(coeffs) - 1, n - 1) + 1, n)
    b = tall_mult_matrix(space, coeffs, n)
    gram = b.conj().T @ b
    assert np.max(np.abs(band - band_from_dense(gram, band.shape[0] - 1))) <= 1e-14 * np.max(np.abs(gram))


def test_gram_band_memory_is_bounded_past_n():
    # p = 4095 >= N = 256: no array of the multiplier's size, (N + p) x N
    import tracemalloc

    coeffs = BlaschkeProduct((0.99,)).series(1e-12)[0]
    n, p = 256, len(coeffs) - 1
    assert p == 4095
    tracemalloc.start()
    try:
        band = _gram_band(bergman, coeffs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * band.nbytes + 16 * (n + p), (peak, band.nbytes)


def _gram_in_50_digits(space, coeffs, n):
    """G[i + d, i] = sum_s conj(c_s) c_{s+d} h_{i+d+s} / sqrt(h_i h_{i+d}),
    exactly from the stored c and h."""
    h = [mp.mpf(float(x)) for x in space.h_table(n + len(coeffs) - 2)]
    c = [mp.mpc(complex(x)) for x in coeffs]
    g = mp.matrix(n, n)
    for i in range(n):
        for m in range(i, n):
            d = m - i
            g[m, i] = mp.fsum(
                mp.conj(c[s]) * c[s + d] * h[m + s] for s in range(len(c) - d)
            ) / mp.sqrt(h[i] * h[m])
            g[i, m] = mp.conj(g[m, i])
    return g


def test_gram_bracket_holds_in_50_digits():
    # the bracket covers the Gram of the stored c and h exactly, formation
    # rounding included; at the 1e-155 scale the coefficient products are
    # subnormal, so the underflow term is needed
    coeffs = BlaschkeProduct((0.5 * np.exp(1j), -0.3)).coefficients(6)[0]
    cases = ((bergman, 7, 1.0), (hardy, 5, 1.0), (rs3, 12, 1.0), (bergman, 7, 1e-155))
    for space, n, scale in cases:
        lam, (lo, hi) = _gram_lambda_min(space, scale * coeffs, n)
        with mp.workdps(50):
            exact = min(mp.eighe(_gram_in_50_digits(space, scale * coeffs, n), eigvals_only=True))
            assert mp.mpf(lo) <= exact <= mp.mpf(hi)
            assert abs(exact - mp.mpf(lam)) <= 1e-15
        assert 0 < lo <= lam <= hi


def test_gram_lambda_min_reads_at_least_the_proven_lo(monkeypatch):
    # a Gram whose lambda_min is at rounding level: the band's quotient and
    # lo round below zero, the proven lo is clamped to 0, and lambda_min
    # must not be reported below it
    import berezin_lab.operators as ops

    monkeypatch.setattr(ops, "band_lambda_min", lambda band: (-6e-15, -1e-13, 1e-12))
    lam, (lo, hi) = _gram_lambda_min(hardy, np.array([1.0, -1.0]), 8)
    assert lo == 0.0 and lam == 0.0 and hi > 1e-12


def test_blaschke_series_is_shortest_meeting_tol():
    coeffs, tail = BlaschkeProduct((0.5,)).series(1e-12)
    assert len(coeffs) == 64 and tail <= 1e-12
    assert BlaschkeProduct((0.5,)).coefficients(32)[1] > 1e-12


def test_closed_range_forms_one_table_per_grid_ring_and_gram(monkeypatch):
    # the 49 kernel vectors of the 5 grid rings and the Gram bands of the
    # 4 truncations read one norm table, which the space extends at most
    # once for each (the grid goes outwards, the schedule upwards); with a
    # table per kernel vector and per Gram read the probe formed 58
    built = count_table_builds(monkeypatch)
    space = monomial_norms("bergman", 4)
    rep = closed_range_probe(space, BlaschkeProduct((0.5,)))
    assert len(rep["kernel_values"]) == 49 and len(rep["lambda_min"]) == 4
    assert 1 <= len(built) <= 5 + 4 and built == sorted(built), built
    assert table_reach(space) == built[-1] + 1 == 1024 + 63


def test_closed_range_series_cap_raises_fast():
    t0 = time.perf_counter()
    with pytest.raises(TruncationError):
        closed_range_probe(hardy, BlaschkeProduct((0.99999,)))
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.parametrize("schedule", [(0,), (1,), (64, 32), (128, 128), (), (128.0,)])
def test_probe_schedules_are_validated(schedule):
    with pytest.raises(ValueError):
        closed_range_probe(hardy, BlaschkeProduct((0.5,)), grid=[0j], n_schedule=schedule)
    with pytest.raises(ValueError):
        fredholm_probe(hardy, 0.0, n_schedule=schedule)


def test_tall_mult_matrix_exact_products():
    coeffs = np.array([0.5, -0.25, 1.0 + 0.5j])
    b = tall_mult_matrix(hardy, coeffs, 8)
    assert b.shape == (10, 8)
    p = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    prod = np.convolve(coeffs, p)
    assert np.max(np.abs(b @ p - prod)) < 1e-13
    # the norm-table entries against the weight products, on every space
    for sp in SPACES:
        want = band_by_entries(coeffs, sp.shift_weights(9), 10, 8)
        assert np.max(np.abs(tall_mult_matrix(sp, coeffs, 8) - want)) <= 1e-15


def test_banded_multipliers_match_entry_build_exactly():
    r = np.random.default_rng(4)
    a = r.uniform(0.05, 1.0, 64)
    for deg, n in ((0, 5), (3, 9), (6, 7), (11, 6), (2, 1)):
        coeffs = r.standard_normal(deg + 1) + 1j * r.standard_normal(deg + 1)
        coeffs[1::3] = 0  # zero coefficients are skipped, not left as holes
        want = band_by_entries(coeffs, a, n, n)
        assert np.array_equal(materialize(MPoly(tuple(coeffs)), a, n), want)
