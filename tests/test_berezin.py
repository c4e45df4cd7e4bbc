"""Symbol transform values, axioms, commutator decay, boundary limits."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from berezin_lab import exprs
from berezin_lab.berezin import (
    PROFILE_HEADER,
    BerezinProfile,
    disk_grid,
    gbt_axiom_check,
    gbt_commutator_decay,
    gbt_profile,
    gbt_sample,
    profile_report,
    profile_to_csv,
    radial_path,
)
from berezin_lab.exprs import Dense
from berezin_lab.formats import read_columns, to_json
from berezin_lab.operators import poly_eval
from berezin_lab.spaces import KernelSpace, TruncationError, custom_space, kernel_vector, monomial_norms

from oracles import count_table_builds, dense_mult, fresh_space, kernel_at, reference_apply

rng = np.random.default_rng(616263)

hardy = monomial_norms("hardy", 4)
bergman = monomial_norms("bergman", 4)
rs3 = monomial_norms("rs", 4, s=3.0)
mu = monomial_norms("mu", 4)
SPACES = [hardy, bergman, rs3, mu]


# ---------------------------------------------------------------------------
# values


def test_symbol_value_hardy_shift():
    op = Dense(dense_mult(hardy, [0, 1], 64))
    assert gbt_sample(hardy, op, 0.3).value == pytest.approx(0.3, abs=1e-12)


def test_value_products_at_origin():
    # Mz Mz^* kills the kernel line at 0; Mz^* Mz sees a0^2
    mz = dense_mult(hardy, [0, 1], 32)
    down_up = Dense(mz @ mz.conj().T)
    assert gbt_sample(hardy, down_up, 0.0).value == pytest.approx(0.0, abs=1e-14)
    mzb = dense_mult(bergman, [0, 1], 32)
    up_down = Dense(mzb.conj().T @ mzb)
    assert gbt_sample(bergman, up_down, 0.0).value == pytest.approx(0.5, abs=1e-14)


def test_noncommutativity_witness():
    mz = dense_mult(hardy, [0, 1], 32)
    a = gbt_sample(hardy, Dense(mz @ mz.conj().T), 0.0).value
    b = gbt_sample(hardy, Dense(mz.conj().T @ mz), 0.0).value
    assert a == pytest.approx(0.0, abs=1e-14)
    assert b == pytest.approx(1.0, abs=1e-14)


def test_short_truncation_is_compression_value():
    # an 8 x 8 truncation below the adaptive kernel size acts on the
    # leading block: the value is <X P_8 v, P_8 v> for the unit kernel vector v
    op = dense_mult(hardy, [0, 1], 8)
    v = kernel_at(kernel_vector(hardy, 0.95, 1e-12))
    assert len(v) > 8
    want = np.vdot(v[:8], op @ v[:8])
    got = gbt_sample(hardy, Dense(op), 0.95, tol=1e-12).value
    assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("space", [hardy, bergman, mu], ids=["hardy", "bergman", "mu"])
def test_dense_block_tail_is_honest(space):
    # a block larger than the adaptive kernel size must read kernel values,
    # not zero padding; oracle: the materialized X_M and Mz X_M against a
    # kernel vector at tail 1e-30 that reaches past the block
    r = np.random.default_rng(200)
    for m in (40, 128, 200):
        x = r.standard_normal((m, m)) + 1j * r.standard_normal((m, m))
        x /= np.linalg.norm(x, 2)
        for z in (0.3, 0.89j, -0.95):
            v = kernel_at(kernel_vector(space, z, 1e-30, n_start=256))
            n = len(v)
            big = np.zeros((n, n), dtype=complex)
            big[:m, :m] = x
            mz = exprs.materialize(exprs.Mz(), space.shift_weights(n - 1), n)
            mz_x = exprs.Product((exprs.Mz(), exprs.Dense(x)))
            for node, mat in ((exprs.Dense(x), big), (mz_x, mz @ big)):
                smp = gbt_sample(space, node, z, tol=1e-12)
                assert abs(smp.value - np.vdot(v, mat @ v)) <= smp.tail + 1e-14


def _kernel_from_50_digit_powers(space, z, n, size):
    """The unit kernel vector on its first n coordinates, then zeros up to
    ``size``: conj(z)^k in 50-digit arithmetic, rounded, over sqrt(h_k),
    normalized; no rotation and no real line."""
    k_z = np.zeros(size, dtype=complex)
    with mpmath.workdps(50):
        c = mpmath.conj(mpmath.mpc(z.real, z.imag))
        power = mpmath.mpc(1)
        for k in range(n):
            k_z[k] = complex(power)
            power *= c
    k_z[:n] /= np.sqrt(space.h_table(n - 1)[:n])
    k_z /= np.linalg.norm(k_z)
    return k_z


def _random_tree(r, depth):
    """A random tree whose nodes may be of every kind, ``Dense`` leaves of
    size 1 to 12 among them; coefficients in the unit square."""
    leaves = ["Mz", "MzAdj", "MPoly", "MPolyAdj", "Dense"]
    kind = r.choice(leaves + (["Scale", "Product", "Sum", "Commutator"] if depth > 0 else []))

    def coeffs(m):
        return tuple(complex(*r.uniform(-1, 1, 2)) for _ in range(m))

    if kind == "Mz":
        return exprs.Mz()
    if kind == "MzAdj":
        return exprs.MzAdj()
    if kind in ("MPoly", "MPolyAdj"):
        node = exprs.MPoly if kind == "MPoly" else exprs.MPolyAdj
        return node(coeffs(int(r.integers(1, 5))))
    if kind == "Dense":
        m = int(r.integers(1, 13))
        return Dense(r.uniform(-1, 1, (m, m)) + 1j * r.uniform(-1, 1, (m, m)))
    if kind == "Scale":
        return exprs.Scale(coeffs(1)[0], _random_tree(r, depth - 1))
    if kind == "Product":
        return exprs.Product(tuple(_random_tree(r, depth - 1) for _ in range(int(r.integers(2, 4)))))
    if kind == "Sum":
        return exprs.Sum(((1, _random_tree(r, depth - 1)), (-1, _random_tree(r, depth - 1))))
    return exprs.Commutator(_random_tree(r, depth - 1), _random_tree(r, depth - 1))


ORACLE_SPACES = SPACES + [custom_space((1.0 + np.arange(40000.0)) ** -0.5, label="custom")]


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=[s.label for s in ORACLE_SPACES])
def test_rotated_sample_matches_the_kernel_from_50_digit_powers(space):
    # the sample applies the tree rotated by w = z/|z| to the real kernel
    # line; the oracle applies the tree itself (the allocating evaluator)
    # to k_z built from 50-digit powers conj(z)^k, on the same frame, with
    # arguments spread around the circle
    r = np.random.default_rng([ord(ch) for ch in space.label])
    every_kind = exprs.Sum((
        (1, exprs.Product((exprs.Mz(), Dense(r.uniform(-1, 1, (7, 7)) + 0.5j)))),
        (-1, exprs.Scale(0.5 - 0.25j, exprs.Commutator(exprs.MzAdj(), exprs.MPoly((0.1, 0.2j, -0.3))))),
        (1, exprs.MPolyAdj((0.3, -0.1 + 0.4j))),
    ))
    for j, rad in enumerate((0.999, 0.95, 0.6, 0.2, 0.0)):
        z = rad * cmath.exp(2j * np.pi * (j + r.uniform()) / 5)
        powers = {}
        for node in [every_kind] + [_random_tree(r, 2) for _ in range(4)]:
            smp = gbt_sample(space, node, z)
            kv = kernel_vector(space, z, pad=exprs.raise_degree(node))
            if kv.n not in powers:
                powers[kv.n] = _kernel_from_50_digit_powers(space, z, kv.n, kv.n)
            k_z = np.concatenate((powers[kv.n], np.zeros(len(kv.v) - kv.n)))
            want = np.vdot(k_z, reference_apply(node, kv.a, k_z))
            assert abs(smp.value - want) <= smp.tail + 1e-14, (z, node)


def _closed_form_transform(s, op, z):
    """B(X)(z) on the space with kernel (1 - |z|^2)^-s (h_k = k! / (s)_k,
    a_k^2 = (k + 1) / (k + s)), in 50 digits.  M_z^* k_z = conj(z) k_z gives
    B(S S^* ...) in terms of the diagonal S^* S; the series of S^* S and
    S^* S S are hypergeometric:
    B(S^* S) = 1 - (s - 1)/s (1 - t)^s 2F1(s, s; s + 1; t) and
    B(S^* S S) = z (1 - (s - 1)/(s + 1) (1 - t)^s 2F1(s, s + 1; s + 2; t)),
    t = |z|^2, so B([S^*, S] S) = B(S^* S S) - z B(S^* S)."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z.real, z.imag)
        t = abs(z) ** 2
        s_s = 1 - mpmath.mpf(s - 1) / s * (1 - t) ** s * mpmath.hyp2f1(s, s, s + 1, t)
        s_ss = z * (1 - mpmath.mpf(s - 1) / (s + 1) * (1 - t) ** s * mpmath.hyp2f1(s, s + 1, s + 2, t))
        return complex({"Mz^* Mz": s_s, "[Mz^*, Mz] Mz": s_ss - z * s_s, "2i*M(0,0,1)": 2j * z * z}[op])


@pytest.mark.parametrize("space,s", [(hardy, 1), (bergman, 2), (rs3, 3)], ids=["hardy", "bergman", "rs3"])
def test_transform_off_the_axis_matches_50_digit_closed_forms(space, s):
    # at theta = 0.7 the rotated tree carries the phase conj(w) w (or
    # conj(w) w w) as one scalar over a real core; at tol 1e-16 the tail is
    # at the rounding level, and every value lies within its tail plus
    # 8 eps times the norm bound (the largest error measured is 2.0 eps
    # times the norm bound, at rs(3), 2i*M(0,0,1), |z| = 0.999).
    # On Hardy the weights are 1, so [S^*, S] S is 0 exactly
    for op in ("Mz^* Mz", "[Mz^*, Mz] Mz", "2i*M(0,0,1)"):
        node = exprs.parse(op)
        for rad in (0.9, 0.999, 0.9999):
            z = rad * cmath.exp(0.7j)
            smp = gbt_sample(space, node, z, tol=1e-16)
            err = abs(smp.value - _closed_form_transform(s, op, z))
            assert err <= smp.tail + 8 * np.finfo(float).eps * exprs.norm_bound(node), (op, rad, err)
            if s == 1 and op == "[Mz^*, Mz] Mz":
                assert smp.value == 0, (rad, smp.value)


@pytest.mark.parametrize("space", [hardy, bergman, rs3, mu], ids=["hardy", "bergman", "rs3", "mu"])
def test_mz_and_its_multiplier_spelling_give_the_same_bits(space):
    # Mz is the multiplier M(0,1): the parser builds equal trees, the
    # printer writes both as Mz, and the rotation gives both the scalar
    # phase w over a real core, so every sample has the same bits
    assert exprs.parse("Mz") == exprs.parse("M(0,1)") == exprs.MPoly((0.0, 1.0))
    assert exprs.to_text(exprs.parse("M(0,1)^* M(0,1)")) == exprs.to_text(exprs.parse("Mz^* Mz")) == "Mz^* Mz"
    z = 0.9 * cmath.exp(0.7j)
    for short, spelled in (("Mz^* Mz", "M(0,1)^* M(0,1)"), ("[Mz^*, Mz] Mz", "[M(0,1)^*, M(0,1)] M(0,1)"),
                           ("Mz + 2*Mz^*", "M(0,1) + 2*M(0,1)^*")):
        want = gbt_sample(space, exprs.parse(short), z)
        got = gbt_sample(space, exprs.parse(spelled), z)
        assert (got.value, got.trunc_n, got.tail) == (want.value, want.trunc_n, want.tail), short
        assert repr(got.value) == repr(want.value), short


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_transform_of_mz_at_tiny_points(space):
    # below |z| = 1.5e-154 the squared modulus is subnormal or 0, so the
    # kernel line is formed from |z| itself: B(M_z)(z) = z to 1e-14
    for rad in (1e-100, 1e-155, 1e-160, 1e-200, 1e-310):
        for theta in (0.0, 2.1, -1.3):
            z = rad * cmath.exp(1j * theta)
            got = gbt_sample(space, exprs.Mz(), z).value
            assert abs(got - z) <= 1e-14 * abs(z), (rad, theta, got)


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
    mat = Dense(exprs.materialize(node, hardy.shift_weights(n - 1), n))
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
            x,
            y,
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
    ident = Dense(np.eye(64, dtype=complex))
    assert gbt_sample(hardy, ident, 0.37).value == pytest.approx(1.0, abs=1e-12)
    mz = dense_mult(hardy, [0, 1], 256)
    gz = gbt_sample(hardy, Dense(mz), 0.4).value
    gza = gbt_sample(hardy, Dense(mz.conj().T), 0.4).value
    assert gz + gza == pytest.approx(0.8, abs=1e-10)
    prod = Dense(mz @ mz.conj().T)
    assert gbt_sample(hardy, prod, 0.4).value == pytest.approx(0.16, abs=1e-10)


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_covariance_invariant(space):
    # Gamma(M_phi X)(z) = phi(z) Gamma(X)(z) and the adjoint twin, 1e-10
    n = 520
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x /= np.linalg.svd(x, compute_uv=False)[0]
    mz = dense_mult(space, [0, 1], n)
    X = Dense(x)
    MzX = Dense(mz @ x)
    XMza = Dense(x @ mz.conj().T)
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


def positivity_gaps(space, coeffs, grid):
    """Gamma(M_phi^* M_phi)(z) - |phi(z)|^2 over a grid, by ``gbt_sample``;
    Cauchy-Schwarz for the rank-one compression makes it non-negative up
    to tails."""
    coeffs = tuple(np.atleast_1d(np.asarray(coeffs, dtype=complex)))
    node = exprs.Product((exprs.MPolyAdj(coeffs), exprs.MPoly(coeffs)))
    return {
        complex(z): gbt_sample(space, node, z).value.real - abs(poly_eval(coeffs, z)) ** 2
        for z in grid
    }


def test_positivity_gap_examples():
    assert positivity_gaps(hardy, [0, 1], [0.0])[0j] == pytest.approx(1.0, abs=1e-12)
    assert positivity_gaps(bergman, [0, 1], [0.0])[0j] == pytest.approx(0.5, abs=1e-12)
    gaps = positivity_gaps(mu, [0.3 + 0.1j], [0.2, 0.5j])
    assert max(abs(g) for g in gaps.values()) <= 1e-12


@pytest.mark.parametrize("space", SPACES, ids=[s.label for s in SPACES])
def test_positivity_gap_nonnegative(space):
    for _ in range(5):
        deg = int(rng.integers(0, 6))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        gaps = positivity_gaps(space, coeffs, disk_grid(40, r_max=0.9))
        assert min(gaps.values()) >= -1e-10, min(gaps.values())


# ---------------------------------------------------------------------------
# profiles and boundary limits


def test_radial_path_geometry():
    pts = radial_path(0.0, 0.999, 20)
    assert len(pts) == 20
    assert abs(pts[-1] - 0.999) < 1e-12
    gaps = 1 - np.abs(pts)
    ratios = gaps[1:] / gaps[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)
    assert abs(pts[0] - 0.5) < 1e-15
    # at r_max <= 0.5 the path starts at r_max / 2
    pts = radial_path(0.0, 0.4, 5)
    assert abs(pts[0] - 0.2) < 1e-15 and abs(pts[-1] - 0.4) < 1e-15
    for bad in (0.0, -0.1, 1.0):
        with pytest.raises(ValueError, match="r_max"):
            radial_path(0.0, bad, 5)


def test_boundary_limit_symbol_reaches_one():
    prof = gbt_profile(hardy, exprs.Mz(), radial_path(0.0, 1 - 2e-5, 40), tol=1e-9)
    last = prof.values()[-5:]
    assert np.max(np.abs(last - np.mean(last))) <= 1e-4
    assert last[-1] == pytest.approx(1.0, abs=1e-3)


def test_boundary_limit_commutator_dies():
    comm = exprs.Commutator(exprs.MzAdj(), exprs.Mz())
    prof = gbt_profile(hardy, comm, radial_path(0.0, 1 - 5e-5, 30), tol=1e-9)
    # oracle: Gamma([Mz^*, Mz])(r) = (1 - r^2)^2 / ... reduces to 1 - r^2
    # for the rank-one commutator e0 e0^* against |k_r(0)|^2
    for s in prof.samples[-3:]:
        r = abs(s.z)
        assert s.value.real == pytest.approx((1 - r**2), rel=1e-5)
    last = prof.values()[-5:]
    assert np.max(np.abs(last - np.mean(last))) <= 1e-3
    assert abs(last[-1]) < 1e-3


def test_boundary_limit_constant_exact():
    ident = Dense(np.eye(512, dtype=complex) * (2 - 1j))
    prof = gbt_profile(hardy, ident, [0.5, 0.6, 0.7, 0.8, 0.9], tol=1e-10)
    assert np.max(np.abs(prof.values() - (2 - 1j))) <= 1e-14


def test_profile_of_tree_holding_dense_leaf_has_empty_label():
    # the label is the caller's (a Dense leaf has no text form), wherever
    # the leaf sits in the tree; the path record defaults to the count
    for node in (
        exprs.Product((exprs.Mz(), Dense(np.eye(4)))),
        exprs.Sum(((1, exprs.Mz()), (-1, exprs.Scale(2.0, Dense(np.eye(4)))))),
        exprs.Commutator(Dense(np.eye(4)), exprs.MzAdj()),
    ):
        prof = gbt_profile(hardy, node, [0.5])
        assert prof.op_label == ""
        assert prof.path == {"kind": "points", "count": 1}
        assert len(prof.samples) == 1


def _lone_samples(space, node, points, tol):
    """The samples of separate ``gbt_sample`` calls, up to the first error."""
    out = []
    for z in points:
        try:
            out.append(gbt_sample(space, node, z, tol=tol))
        except TruncationError as exc:
            return out, str(exc)
    return out, None


_rs25 = monomial_norms("rs", 4, s=2.5)
_short_custom = custom_space(np.arange(1.0, 3001.0) ** -0.7, label="custom")


@pytest.mark.parametrize("space", [*SPACES, _rs25, _short_custom], ids=lambda sp: sp.label)
def test_profile_samples_are_lone_samples_bit_for_bit(space):
    # one workspace per profile changes no bit of any value, trunc_n or
    # tail: radial paths to the boundary, a grid path (whose rings share
    # |z| and whose points change w) and a tree holding a Dense leaf
    r = np.random.default_rng(9127)
    dense = Dense(r.normal(size=(6, 6)) + 1j * r.normal(size=(6, 6)))
    nodes = [
        exprs.parse("[Mz^*, Mz] Mz"),
        exprs.parse("M(0.3,-0.2i,0.1)^* M(0.1,0.4,0.2i,-0.1)"),
        exprs.Sum(((1, exprs.Product((exprs.Mz(), dense))), (-1, exprs.MzAdj()))),
    ]
    r_max = 0.99 if space.label == "custom" else 0.9999
    paths = [radial_path(0.7, r_max, 10), radial_path(2.0, r_max, 6), disk_grid(20, 0.9)]
    for node in nodes:
        for points in paths:
            prof = gbt_profile(space, node, points, tol=1e-10)
            lone, error = _lone_samples(space, node, points, 1e-10)
            assert error is None
            for got, want in zip(prof.samples, lone, strict=True):
                assert got.z == want.z
                assert (got.value.real, got.value.imag) == (want.value.real, want.value.imag), got.z
                assert (got.trunc_n, got.tail) == (want.trunc_n, want.tail), got.z


def test_profile_builds_one_norm_table(monkeypatch):
    # a built-in profile on a fresh space builds one table, sized for its
    # outermost point; a second profile nearer the centre builds none
    built = count_table_builds(monkeypatch)
    node = exprs.parse("[Mz^*, Mz] Mz")
    for space in (fresh_space(bergman), fresh_space(rs3)):
        del built[:]
        prof = gbt_profile(space, node, radial_path(0.4, 0.999, 12))
        assert len(built) == 1 and built[0] >= max(s.trunc_n for s in prof.samples) - 1, built
        gbt_profile(space, node, radial_path(1.1, 0.99, 12))
        assert len(built) == 1, built


@pytest.mark.parametrize("space,points,tol", [
    pytest.param(monomial_norms("rs", 4, s=200.0), radial_path(0.3, 0.999, 8), 1e-12, id="underflow"),
    pytest.param(hardy, radial_path(0.3, 0.9999, 8), 1e-300, id="cap"),  # the outermost stop bound
    pytest.param(_short_custom, radial_path(0.3, 0.9999, 8), 1e-12, id="table-end"),
    pytest.param(hardy, [0.5, 1.0j, 0.9], 1e-12, id="on-circle"),
    pytest.param(bergman, [0.5, -1.5, 0.9], 1e-12, id="outside"),
    pytest.param(hardy, [0.5, 0.9], 0.0, id="tol-zero"),
    pytest.param(rs3, [0.5, 0.9], math.nan, id="tol-nan"),
])
def test_profile_raises_its_outermost_lone_samples_error(space, points, tol):
    # the tail test and the truncation errors are monotone in |z|, and the
    # outermost point is sampled first: a profile raises that point's lone
    # error, whichever point would fail first in order
    node = exprs.parse("Mz^* Mz")
    points = [*points[1::2], *points[::2]]  # the outermost point is not last
    outer = max(points, key=abs)
    assert abs(points[-1]) < abs(outer)
    with pytest.raises(ValueError) as lone:
        gbt_sample(space, node, outer, tol=tol)
    with pytest.raises(ValueError) as info:
        gbt_profile(space, node, points, tol=tol)
    assert info.type is lone.type and str(info.value) == str(lone.value)
    # on the custom table a point inside the outermost fails first in order
    if space is _short_custom:
        _, first_error = _lone_samples(space, node, points, tol)
        assert first_error is not None and first_error != str(info.value)


@pytest.mark.parametrize("points", [radial_path(0.7, 0.99, 10), disk_grid(20, 0.9)], ids=["radial", "grid"])
def test_custom_table_profile_builds_one_workspace(points, monkeypatch):
    # a custom profile forms the weights and exponents once each, at its
    # outermost point: as far as a lone call's there reach, and short of
    # the whole table
    node = exprs.parse("[Mz^*, Mz] Mz")
    outer = max(points, key=abs)
    lone_space = fresh_space(_short_custom)
    kernel_vector(lone_space, outer, 1e-10, pad=exprs.raise_degree(node))
    formed = []
    prefix = KernelSpace._prefix

    def counted(sp, name, length, form):
        return prefix(sp, name, length, lambda m: formed.append((name, m)) or form(m))

    monkeypatch.setattr(KernelSpace, "_prefix", counted)
    gbt_profile(fresh_space(_short_custom), node, points, tol=1e-10)
    assert formed == [("k", len(lone_space._kept["k"])), ("a", len(lone_space._kept["a"]))], formed
    assert len(lone_space._kept["a"]) < len(_short_custom.h) - 1


def test_profile_contractivity_invariant():
    node = exprs.parse("[Mz^*, Mz]")
    prof = gbt_profile(bergman, node, radial_path(0.3, 0.99, 12))
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
    assert max(abs(p) for p in disk_grid(40, r_max=0.3)) == pytest.approx(0.3)
    for bad in (0.0, -0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="r_max"):
            disk_grid(40, r_max=bad)


# ---------------------------------------------------------------------------
# serialization


def test_profile_csv_roundtrip(tmp_path):
    prof = gbt_profile(hardy, exprs.Mz(), [0.1, 0.5j, -0.3])
    path = tmp_path / "p.csv"
    profile_to_csv(prof, path)
    re_z, im_z, re_v, im_v, trunc_n, tail = read_columns(path, PROFILE_HEADER)
    assert np.array_equal(np.array(re_z) + 1j * np.array(im_z), prof.points())
    assert np.array_equal(np.array(re_v) + 1j * np.array(im_v), prof.values())
    assert trunc_n == [s.trunc_n for s in prof.samples]
    assert tail == [s.tail for s in prof.samples]


def test_profile_report_json():
    import json

    prof = gbt_profile(hardy, exprs.Mz(), [0.1, 0.2], op_label="Mz")
    doc = json.loads(to_json(profile_report(prof)))
    # the {command, spec_version} envelope is added by the CLI
    assert set(doc) == {"op", "path", "samples"}
    assert doc["op"] == "Mz"
    assert len(doc["samples"]) == 2


def test_profile_determinism():
    path = {"kind": "radial", "theta": 0.1, "r_max": 0.9, "count": 8}
    prof1 = gbt_profile(bergman, exprs.Mz(), radial_path(0.1, 0.9, 8), path)
    prof2 = gbt_profile(bergman, exprs.Mz(), radial_path(0.1, 0.9, 8), path)
    assert profile_report(prof1) == profile_report(prof2)
    assert isinstance(prof1, BerezinProfile)
