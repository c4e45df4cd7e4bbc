"""Truncated multiplication operators, projections, commutators, probes."""

import numpy as np
import pytest

from berezin_lab.exprs import MPoly, materialize
from berezin_lab.operators import (
    BlaschkeProduct,
    ColumnOperator,
    TruncatedOperator,
    ball_coordinate_matrices,
    closed_range_probe,
    column_sigma_min,
    commutator_norm_PzMphi,
    fredholm_probe,
    mult_matrix,
    norm_lower_bound_check,
    poly_eval,
    projection_Pz,
    spherical_contraction_check,
    sup_on_circle,
    tall_mult_matrix,
    wot_dilation_probe,
)
from berezin_lab.spaces import da_norms, hardy_ball_norms, kernel_vector, monomial_norms
from berezin_lab.shifts import constant_weights

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
    m = mult_matrix(hardy, [0, 1], 3).mat
    want = np.zeros((3, 3))
    want[1, 0] = want[2, 1] = 1.0
    assert np.array_equal(m, want)


def test_mult_matrix_bergman_subdiagonal():
    m = mult_matrix(bergman, [0, 1], 3).mat
    assert m[1, 0] == pytest.approx(np.sqrt(1 / 2), abs=1e-15)
    assert m[2, 1] == pytest.approx(np.sqrt(2 / 3), abs=1e-15)


def test_mult_matrix_identity():
    for sp in SPACES:
        assert np.array_equal(mult_matrix(sp, [1], 5).mat, np.eye(5))


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_banded_matches_gram_construction(space):
    for _ in range(5):
        deg = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        n = int(rng.integers(deg + 1, 257))
        banded = mult_matrix(space, coeffs, n).mat
        oracle = gram_mult_oracle(space, coeffs, n)
        assert np.max(np.abs(banded - oracle)) <= 1e-12 * max(1, np.abs(coeffs).sum())


def test_banded_matches_quadrature_oracles():
    coeffs = np.array([0.3, -0.5 + 0.2j, 0.1, 0.7j])
    got = mult_matrix(hardy, coeffs, 12).mat
    assert np.max(np.abs(got - quadrature_mult_oracle_hardy(coeffs, 12))) < 1e-12
    got = mult_matrix(bergman, coeffs, 12).mat
    assert np.max(np.abs(got - quadrature_mult_oracle_bergman(coeffs, 12))) < 1e-11


def test_nested_truncations():
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for sp in SPACES:
        big = mult_matrix(sp, coeffs, 33).mat
        small = mult_matrix(sp, coeffs, 32).mat
        assert np.array_equal(big[:32, :32], small)


def test_mult_matrix_degree_rejection():
    with pytest.raises(ValueError):
        mult_matrix(hardy, np.ones(10), 8)


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_truncation_contractivity(space):
    # sigma_max never exceeds the circle sup by more than 1e-8; the sup is
    # evaluated on a dense grid so its own defect stays below that
    for _ in range(4):
        deg = int(rng.integers(1, 9))
        coeffs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / (deg + 1)
        op = mult_matrix(space, coeffs, 128)
        sup, _ = sup_on_circle(coeffs, 2**20)
        assert op.norm() <= sup + 1e-8


def test_adjoint_coherence():
    coeffs = np.array([0.2, 0.4 - 0.3j, 0.1j])
    for sp in SPACES:
        op = mult_matrix(sp, coeffs, 64)
        assert np.array_equal(op.adjoint().mat, op.mat.conj().T)
        kv = kernel_vector(sp, 0.4 + 0.2j, tol=1e-14)
        v = np.zeros(64, dtype=complex)
        v[: kv.n] = kv.coeffs
        val = np.vdot(v, op.mat.conj().T @ v)
        assert val == pytest.approx(np.conj(poly_eval(coeffs, 0.4 + 0.2j)), abs=1e-10)


# ---------------------------------------------------------------------------
# kernel projections


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_projection_idempotent_hermitian_trace(space):
    for z in (0.0, 0.5, -0.3 + 0.6j):
        p = projection_Pz(space, z, 48).mat
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_projection_at_origin():
    p = projection_Pz(hardy, 0.0, 5).mat
    want = np.zeros((5, 5))
    want[0, 0] = 1.0
    assert np.allclose(p, want, atol=1e-15)


def test_projection_reproduces_kernel_vector():
    kv = kernel_vector(hardy, 0.5, tol=1e-13)
    p = projection_Pz(hardy, 0.5, kv.n).mat
    v = kv.coeffs
    assert np.linalg.norm(p @ v - v) <= 1e-10


# ---------------------------------------------------------------------------
# commutator with the kernel projection


def dense_commutator_oracle(space, coeffs, z, n):
    p = projection_Pz(space, z, n, tol=1e-14).mat
    m = mult_matrix(space, coeffs, n).mat
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
            kv = kernel_vector(sp, z, tol=1e-13)
            n = kv.n + deg + 1
            got = commutator_norm_PzMphi(sp, c, z, n=n)
            want = dense_commutator_oracle(sp, c, z, n)
            assert got == pytest.approx(want, abs=1e-10)


def test_commutator_supnorm_precondition():
    with pytest.raises(ValueError, match="sup-norm"):
        commutator_norm_PzMphi(hardy, [0, 2.0], 0.3)


# ---------------------------------------------------------------------------
# column operators


def test_column_sigma_min_shift_pair():
    n = 64
    mz = mult_matrix(hardy, [0, 1], n)
    col = ColumnOperator([mz, mz], adjoint_flags=[False, True])
    got = column_sigma_min(col)
    # oracle: dense eigensolve of Mz^*Mz + Mz Mz^* = 2I - e0 e0^* (hardy)
    acc = mz.mat.conj().T @ mz.mat + mz.mat @ mz.mat.conj().T
    want = np.sqrt(np.linalg.eigvalsh(acc)[0])
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_column_sigma_min_matches_stacked_svd():
    n = 48
    for sp in (hardy, bergman):
        blocks = [
            mult_matrix(sp, rng.standard_normal(3) + 1j * rng.standard_normal(3), n)
            for _ in range(3)
        ]
        flags = [bool(rng.integers(0, 2)) for _ in range(3)]
        col = ColumnOperator(blocks, adjoint_flags=flags)
        got = column_sigma_min(col)
        want = np.linalg.svd(col.stacked(), compute_uv=False)[-1]
        assert got == pytest.approx(want, abs=1e-10)


def test_column_boundary_point_trend_to_zero():
    # [Mz - 1; (Mz - 1)^*]: sigma_min decays as the truncation grows
    vals = []
    for n in (64, 128, 256, 512):
        op = mult_matrix(hardy, [-1, 1], n)
        col = ColumnOperator([op, op], adjoint_flags=[False, True])
        vals.append(column_sigma_min(col))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_column_identity():
    col = ColumnOperator([TruncatedOperator(np.eye(8, dtype=complex))])
    assert column_sigma_min(col) == pytest.approx(1.0, abs=1e-12)


def test_column_dimension_mismatch():
    with pytest.raises(ValueError):
        ColumnOperator(
            [TruncatedOperator(np.eye(4, dtype=complex)), TruncatedOperator(np.eye(5, dtype=complex))]
        )
    with pytest.raises(ValueError):
        ColumnOperator([])


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


# ---------------------------------------------------------------------------
# ball coordinate columns


def test_spherical_contraction_drury_arveson():
    rep = spherical_contraction_check(da_norms(2, 10))
    assert rep["passed"]
    assert rep["row_norm"] <= 1 + 1e-10
    # oracle: dense SVD of the adjoint-stacked block
    mats = ball_coordinate_matrices(da_norms(2, 10))
    stacked = np.vstack([m.mat.T for m in mats])  # real symmetric-free transpose
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
    sub = np.diag(mats[0].mat, -1)
    assert np.allclose(sub, 1.0)  # hardy weights


def test_constant_function_row_vs_column():
    # sum_i ||M_{z_i} 1||^2 = n on the vacuum: the literal column norm
    # squared at e_0 equals n, the certified orientation stays <= 1
    ball = da_norms(3, 4)
    mats = ball_coordinate_matrices(ball)
    e0 = np.zeros(len(ball.basis()))
    e0[0] = 1.0
    total = sum(np.linalg.norm(m.mat @ e0) ** 2 for m in mats)
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


# ---------------------------------------------------------------------------
# Fredholm probe


def test_fredholm_hardy_origin_exact():
    rep = fredholm_probe(hardy, 0.0)
    assert rep["residual"] == 0.0
    assert rep["sigma2"][128] == pytest.approx(1.0, abs=1e-12)
    assert rep["sigma2_trend"] == "bounded_below"


@pytest.mark.parametrize("z0", [0.4, 0.2])
def test_fredholm_bergman_interior_point(z0):
    rep = fredholm_probe(bergman, z0)
    assert rep["residual"] <= 10 * rep["tail"]
    vals = list(rep["sigma2"].values())
    assert min(vals) > 0.1
    assert rep["sigma2_trend"] == "bounded_below"


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


def test_tall_mult_matrix_exact_products():
    coeffs = np.array([0.5, -0.25, 1.0 + 0.5j])
    b = tall_mult_matrix(hardy, coeffs, 8)
    assert b.shape == (10, 8)
    p = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    prod = np.convolve(coeffs, p)
    assert np.max(np.abs(b @ p - prod)) < 1e-13


def _band_by_entries(coeffs, a, n_rows, n_cols):
    """Entry (i+j, i) = c_j a_i a_{i+1} ... a_{i+j-1}, one entry at a time,
    the weight product formed left to right."""
    mat = np.zeros((n_rows, n_cols), dtype=complex)
    for j, c in enumerate(coeffs):
        for i in range(min(n_cols, n_rows - j)):
            p = 1.0
            for t in range(j):
                p *= a[i + t]
            mat[i + j, i] = c * p
    return mat


def test_banded_multipliers_match_entry_build_exactly():
    r = np.random.default_rng(4)
    a = r.uniform(0.05, 1.0, 64)
    for deg, n in ((0, 5), (3, 9), (6, 7), (11, 6), (2, 1)):
        coeffs = r.standard_normal(deg + 1) + 1j * r.standard_normal(deg + 1)
        coeffs[1::3] = 0  # zero coefficients are skipped, not left as holes
        want = _band_by_entries(coeffs, a, n, n)
        assert np.array_equal(materialize(MPoly(tuple(coeffs)), a, n), want)
        if deg < n:
            assert np.array_equal(mult_matrix(a, coeffs, n).mat, want)
        tall = tall_mult_matrix(a, coeffs, n)
        assert np.array_equal(tall, _band_by_entries(coeffs, a, n + deg, n))


def test_weights_input_for_mult():
    w = constant_weights(0.5, 16)
    m = mult_matrix(w, [0, 1], 8).mat
    assert np.allclose(np.diag(m, -1), 0.5)
