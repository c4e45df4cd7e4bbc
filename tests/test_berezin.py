"""Symbol transform values, axioms, commutator decay, boundary limits."""

import numpy as np
import pytest

from berezin_lab import exprs
from berezin_lab.berezin import (
    BerezinProfile,
    boundary_limit_estimate,
    disk_grid,
    gbt_axiom_check,
    gbt_commutator_decay,
    gbt_profile,
    gbt_sample,
    positivity_gap,
    profile_from_csv,
    profile_report,
    profile_to_csv,
    radial_path,
)
from berezin_lab.operators import TruncatedOperator, mult_matrix
from berezin_lab.spaces import kernel_vector, monomial_norms

rng = np.random.default_rng(616263)

hardy = monomial_norms("hardy", 4)
bergman = monomial_norms("bergman", 4)
rs3 = monomial_norms("rs", 4, s=3.0)
mu = monomial_norms("mu", 4)
SPACES = [hardy, bergman, rs3, mu]


# ---------------------------------------------------------------------------
# values


def test_symbol_value_hardy_shift():
    op = mult_matrix(hardy, [0, 1], 64)
    assert gbt_sample(hardy, op, 0.3).value == pytest.approx(0.3, abs=1e-12)


def test_value_products_at_origin():
    # Mz Mz^* kills the kernel line at 0; Mz^* Mz sees a0^2
    mz = mult_matrix(hardy, [0, 1], 32).mat
    down_up = TruncatedOperator(mz @ mz.conj().T)
    assert gbt_sample(hardy, down_up, 0.0).value == pytest.approx(0.0, abs=1e-14)
    mzb = mult_matrix(bergman, [0, 1], 32).mat
    up_down = TruncatedOperator(mzb.conj().T @ mzb)
    assert gbt_sample(bergman, up_down, 0.0).value == pytest.approx(0.5, abs=1e-14)


def test_noncommutativity_witness():
    mz = mult_matrix(hardy, [0, 1], 32).mat
    a = gbt_sample(hardy, TruncatedOperator(mz @ mz.conj().T), 0.0).value
    b = gbt_sample(hardy, TruncatedOperator(mz.conj().T @ mz), 0.0).value
    assert a == pytest.approx(0.0, abs=1e-14)
    assert b == pytest.approx(1.0, abs=1e-14)


def test_short_truncation_is_compression_value():
    # an 8 x 8 truncation below the adaptive kernel size acts on the
    # leading block: the value is <X P_8 v, P_8 v> for the unit kernel vector v
    op = mult_matrix(hardy, [0, 1], 8)
    v = kernel_vector(hardy, 0.95, 1e-12).coeffs
    assert len(v) > 8
    want = np.vdot(v[:8], op.mat @ v[:8])
    got = gbt_sample(hardy, op, 0.95, tol=1e-12).value
    assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_symbol_fidelity_property(space):
    # |Gamma(M_phi)(z) - phi(z)| <= reported tail <= 1e-8 for deg <= 10
    for _ in range(12):
        deg = int(rng.integers(0, 11))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = complex(rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
        smp = gbt_sample(space, exprs.MPoly(tuple(coeffs)), z, tol=1e-12)
        target = np.polyval(coeffs[::-1], z)
        assert abs(smp.value - target) <= max(smp.tail, 1e-13)
        assert smp.tail <= 1e-8


def test_expression_vs_matrix_agree():
    node = exprs.parse("Mz Mz^* + 0.5*M(0,0,1)")
    n = 128
    mat = TruncatedOperator(exprs.materialize(node, hardy.shift_weights(n - 1), n))
    for z in (0.2, 0.5j, -0.4 + 0.3j):
        assert gbt_sample(hardy, mat, z).value == pytest.approx(
            gbt_sample(hardy, node, z).value, abs=1e-10
        )


def _reversed_word_quadrature_hardy(phi, psi, z, m=2048):
    """Independent oracle for Gamma(M_psi^* M_phi)(z) on the circle:
    <M_phi k_z, M_psi k_z> / K(z,z) with k_z(w) = 1/(1 - w conj(z)),
    integrated by trapezoid; never touches the monomial frame."""
    theta = 2 * np.pi * np.arange(m) / m
    w = np.exp(1j * theta)
    kz = 1.0 / (1.0 - w * np.conj(z))
    num = np.mean(
        np.polyval(np.array(phi)[::-1], w)
        * kz
        * np.conj(np.polyval(np.array(psi)[::-1], w) * kz)
    )
    return num / np.mean(np.abs(kz) ** 2)


def _reversed_word_quadrature_bergman(phi, psi, z, m=512, nr=96):
    """Same oracle over the area measure with k_z(w) = (1 - w conj(z))^-2."""
    x, wq = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * (x + 1.0)
    theta = 2 * np.pi * np.arange(m) / m
    w = r[:, None] * np.exp(1j * theta)[None, :]
    weight = (wq * r)[:, None]  # radial quadrature times r from the area element
    kz = (1.0 - w * np.conj(z)) ** -2.0
    f = np.polyval(np.array(phi)[::-1], w) * kz
    g = np.polyval(np.array(psi)[::-1], w) * kz
    num = np.sum(weight * f * np.conj(g))
    den = np.sum(weight * np.abs(kz) ** 2)
    return num / den


def test_word_values_match_quadrature_oracles():
    # two word orders: Gamma(M_phi M_psi^*) collapses to the symbol
    # product, while Gamma(M_psi^* M_phi) does not; the latter is checked
    # against a quadrature oracle that never touches the monomial frame,
    # the series truncation, or the banded construction
    r = np.random.default_rng(24)
    for _ in range(6):
        phi = r.standard_normal(3) + 1j * r.standard_normal(3)
        psi = r.standard_normal(3) + 1j * r.standard_normal(3)
        z = complex(r.uniform(0, 0.7) * np.exp(2j * np.pi * r.uniform()))
        multiplicative = exprs.Product((exprs.MPoly(tuple(phi)), exprs.MPolyAdj(tuple(psi))))
        reversed_word = exprs.Product((exprs.MPolyAdj(tuple(psi)), exprs.MPoly(tuple(phi))))
        symbol = np.polyval(phi[::-1], z) * np.conj(np.polyval(psi[::-1], z))

        got = gbt_sample(hardy, multiplicative, z, tol=1e-13).value
        assert got == pytest.approx(symbol, abs=1e-10)
        got_rev = gbt_sample(hardy, reversed_word, z, tol=1e-13).value
        assert got_rev == pytest.approx(_reversed_word_quadrature_hardy(phi, psi, z), abs=1e-7)

        got = gbt_sample(bergman, multiplicative, z, tol=1e-13).value
        assert got == pytest.approx(symbol, abs=1e-10)
        got_rev = gbt_sample(bergman, reversed_word, z, tol=1e-13).value
        assert got_rev == pytest.approx(_reversed_word_quadrature_bergman(phi, psi, z), abs=1e-7)


# ---------------------------------------------------------------------------
# axioms


def test_axioms_random_instances():
    n = 128
    worst = {"contractivity": 0.0, "linearity": 0.0, "self_adjointness": 0.0}
    for _ in range(25):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        zs = [complex(rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())) for _ in range(2)]
        rep = gbt_axiom_check(
            hardy,
            TruncatedOperator(x),
            TruncatedOperator(y),
            scalars=(0.7 - 0.2j, 1.1j),
            grid=zs,
        )
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    assert worst["contractivity"] <= 1e-10
    assert worst["linearity"] <= 1e-10 * n
    assert worst["self_adjointness"] <= 1e-12 * n


def test_axioms_identity_and_products():
    # Gamma(I) = 1; Gamma(Mz)(0.4) + Gamma(Mz^*)(0.4) = 0.8;
    # Gamma(Mz Mz^*)(0.4) = 0.16 on hardy
    ident = TruncatedOperator(np.eye(64, dtype=complex))
    assert gbt_sample(hardy, ident, 0.37).value == pytest.approx(1.0, abs=1e-12)
    mz = mult_matrix(hardy, [0, 1], 256)
    gz = gbt_sample(hardy, mz, 0.4).value
    gza = gbt_sample(hardy, mz.adjoint(), 0.4).value
    assert gz + gza == pytest.approx(0.8, abs=1e-10)
    prod = TruncatedOperator(mz.mat @ mz.mat.conj().T)
    assert gbt_sample(hardy, prod, 0.4).value == pytest.approx(0.16, abs=1e-10)


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_covariance_invariant(space):
    # Gamma(M_phi X)(z) = phi(z) Gamma(X)(z) and the adjoint twin, 1e-10
    n = 520
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x /= np.linalg.svd(x, compute_uv=False)[0]
    mz = mult_matrix(space, [0, 1], n).mat
    X = TruncatedOperator(x)
    MzX = TruncatedOperator(mz @ x)
    XMza = TruncatedOperator(x @ mz.conj().T)
    for z in (0.45, -0.6j, 0.63 + 0.63j):
        gx = gbt_sample(space, X, z, tol=1e-21).value
        gmzx = gbt_sample(space, MzX, z, tol=1e-21).value
        gxmza = gbt_sample(space, XMza, z, tol=1e-21).value
        assert gmzx == pytest.approx(complex(z) * gx, abs=1e-10)
        assert gxmza == pytest.approx(np.conj(complex(z)) * gx, abs=1e-10)


# ---------------------------------------------------------------------------
# commutator decay under the transform


def test_commutator_decay_bound_and_floor():
    for sp in (hardy, bergman):
        rep = gbt_commutator_decay(sp, [0, 1], [0, 1], None, 0.0, (0.9, 0.99, 0.999))
        assert rep["bound_ok"]
        vals = rep["values"]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 0.05


def test_commutator_decay_constant_symbol_zero():
    rep = gbt_commutator_decay(hardy, [0.7], [0, 1], None, 0.0, (0.5, 0.9))
    assert max(rep["values"]) <= 1e-13


def test_commutator_decay_random_s():
    s_node = exprs.parse("Mz Mz^* + 0.3*M(0.2,0.4)")
    rep = gbt_commutator_decay(bergman, [0, 1], [0, 1], s_node, 0.7, (0.9, 0.99, 0.999))
    assert rep["bound_ok"]
    assert rep["values"][-1] <= 0.05 * max(1.0, rep["s_norm"])


def test_commutator_decay_sup_precondition():
    with pytest.raises(ValueError, match="sup-norm"):
        gbt_commutator_decay(hardy, [0, 1.5], [0, 1])


# ---------------------------------------------------------------------------
# positivity gap


def test_positivity_gap_examples():
    rep = positivity_gap(hardy, [0, 1], grid=[0.0])
    assert rep["gaps"][0j] == pytest.approx(1.0, abs=1e-12)
    rep = positivity_gap(bergman, [0, 1], grid=[0.0])
    assert rep["gaps"][0j] == pytest.approx(0.5, abs=1e-12)
    rep = positivity_gap(mu, [0.3 + 0.1j], grid=[0.2, 0.5j])
    assert abs(rep["min_gap"]) <= 1e-12


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_positivity_gap_nonnegative(space):
    for _ in range(5):
        deg = int(rng.integers(0, 6))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        rep = positivity_gap(space, coeffs)
        assert rep["passed"], rep["min_gap"]


# ---------------------------------------------------------------------------
# profiles and boundary limits


def test_radial_path_geometry():
    pts = radial_path(0.0, 0.999, 20)
    assert len(pts) == 20
    assert abs(pts[-1] - 0.999) < 1e-12
    gaps = 1 - np.abs(pts)
    ratios = gaps[1:] / gaps[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_boundary_limit_symbol_reaches_one():
    prof = gbt_profile(
        hardy, exprs.Mz(), {"kind": "radial", "theta": 0.0, "r_max": 1 - 2e-5, "count": 40},
        tol=1e-9,
    )
    est = boundary_limit_estimate(prof)
    assert est["converged"]
    assert est["dispersion"] <= 1e-4
    assert est["limit"] == pytest.approx(1.0, abs=1e-3)


def test_boundary_limit_commutator_dies():
    comm = exprs.Commutator(exprs.MzAdj(), exprs.Mz())
    prof = gbt_profile(
        hardy, comm, {"kind": "radial", "theta": 0.0, "r_max": 1 - 5e-5, "count": 30},
        tol=1e-9,
    )
    # oracle: Gamma([Mz^*, Mz])(r) = (1 - r^2)^2 / ... reduces to 1 - r^2
    # for the rank-one commutator e0 e0^* against |k_r(0)|^2
    for s in prof.samples[-3:]:
        r = abs(s.z)
        assert s.value.real == pytest.approx((1 - r**2), rel=1e-5)
    est = boundary_limit_estimate(prof, dispersion_threshold=1e-3)
    assert est["converged"]
    assert abs(est["limit"]) < 1e-3


def test_boundary_limit_constant_exact():
    ident = TruncatedOperator(np.eye(512, dtype=complex) * (2 - 1j))
    prof = gbt_profile(hardy, ident, [0.5, 0.6, 0.7, 0.8, 0.9], tol=1e-10)
    est = boundary_limit_estimate(prof)
    assert est["dispersion"] <= 1e-14
    assert est["limit"] == pytest.approx(2 - 1j)


def test_boundary_limit_needs_samples():
    prof = gbt_profile(hardy, exprs.Mz(), [0.1, 0.2], tol=1e-10)
    with pytest.raises(ValueError):
        boundary_limit_estimate(prof)


def test_profile_contractivity_invariant():
    node = exprs.parse("[Mz^*, Mz]")
    prof = gbt_profile(bergman, node, {"kind": "radial", "theta": 0.3, "r_max": 0.99, "count": 12})
    n = max(s.trunc_n for s in prof.samples)
    mat = exprs.materialize(node, bergman.shift_weights(n - 1), n)
    norm = np.linalg.svd(mat, compute_uv=False)[0]
    for s in prof.samples:
        assert abs(s.value) <= norm + s.tail + 1e-12


def test_profile_conjugation_symmetry():
    # profile of X^* is the conjugate of the profile of X
    coeffs = (0.2 + 0.1j, 0.5, -0.3j)
    pts = [0.3, 0.5j, -0.2 - 0.4j]
    prof = gbt_profile(hardy, exprs.MPoly(coeffs), pts)
    prof_adj = gbt_profile(hardy, exprs.MPolyAdj(coeffs), pts)
    assert np.allclose(prof_adj.values(), np.conj(prof.values()), atol=1e-12)


def test_disk_grid_sizes():
    pts = disk_grid(40)
    assert len(pts) >= 30
    assert max(abs(p) for p in pts) <= 0.95 + 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_profile_csv_roundtrip(tmp_path):
    prof = gbt_profile(hardy, exprs.Mz(), [0.1, 0.5j, -0.3])
    path = tmp_path / "p.csv"
    profile_to_csv(prof, path)
    loaded = profile_from_csv(path)
    assert np.array_equal(loaded.points(), prof.points())
    assert np.array_equal(loaded.values(), prof.values())
    assert [s.trunc_n for s in loaded.samples] == [s.trunc_n for s in prof.samples]


def test_profile_report_json():
    import json

    prof = gbt_profile(hardy, exprs.Mz(), [0.1, 0.2])
    doc = json.loads(profile_report(prof, {"passed": True}))
    assert doc["spec_version"] == "1"
    assert doc["op"] == "Mz"
    assert len(doc["samples"]) == 2
    assert doc["verdicts"]["passed"] is True


def test_profile_determinism():
    prof1 = gbt_profile(bergman, exprs.Mz(), {"kind": "radial", "theta": 0.1, "r_max": 0.9, "count": 8})
    prof2 = gbt_profile(bergman, exprs.Mz(), {"kind": "radial", "theta": 0.1, "r_max": 0.9, "count": 8})
    assert profile_report(prof1) == profile_report(prof2)
    assert isinstance(prof1, BerezinProfile)
