"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Tolerances are pinned in the assertions; the time in
each line is informational.
"""

import time

import numpy as np
import pytest

from berezin_lab import exprs
from berezin_lab.berezin import gbt_axiom_check, gbt_commutator_decay, gbt_sample
from berezin_lab.characters import (
    MEMBER,
    NON_MEMBER,
    CharacterConfig,
    character_membership,
    character_set_scan,
)
from berezin_lab.operators import (
    BlaschkeProduct,
    closed_range_probe,
    commutator_norm_PzMphi,
    norm_lower_bound_check,
    poly_eval,
    spherical_contraction_check,
    wot_dilation_probe,
)
from berezin_lab.peaks import annulus_peak, ball_peak
from berezin_lab.shifts import (
    cluster_weights,
    constant_weights,
    simple_weights,
    space_weights,
    spectral_radius_estimate,
)
from berezin_lab.spaces import da_norms, monomial_norms

HARDY = monomial_norms("hardy", 4)
BERGMAN = monomial_norms("bergman", 4)
RS3 = monomial_norms("rs", 4, s=3.0)
MU = monomial_norms("mu", 4)


def report(number: int, started: float, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS ({time.perf_counter() - started:5.1f}s) {text}")


def test_acceptance_01_symbol_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    symbols = [np.array([0, 1.0]), np.array([0, 0, 1.0]), np.array([1.0, 0.5])]
    points = 0.9 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    worst = 0.0
    for space in (HARDY, BERGMAN, RS3, MU):
        for coeffs in symbols:
            node = exprs.MPoly(tuple(coeffs.astype(complex)))
            for z in points:
                smp = gbt_sample(space, node, complex(z), tol=1e-12)
                worst = max(worst, abs(smp.value - poly_eval(coeffs, complex(z))))
    assert worst <= 1e-8
    report(1, t0, f"symbol fidelity on 4 spaces x 3 symbols x 100 points, worst |err| = {worst:.2e} <= 1e-8")


def test_acceptance_02_transform_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 128
    worst = {"contractivity": -np.inf, "linearity": 0.0, "self_adjointness": 0.0}
    for _ in range(200):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = complex(rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
        rep = gbt_axiom_check(HARDY, x, y, scalars=(0.6 - 0.3j, 1.2j), grid=[z])
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    assert worst["contractivity"] <= 1e-10
    assert worst["linearity"] <= 1e-10
    assert worst["self_adjointness"] <= 1e-10
    report(2, t0, "contractivity/linearity/self-adjointness on 200 random (X, z) at N=128, all <= 1e-10")


def test_acceptance_03_asymptotic_reduction():
    t0 = time.perf_counter()
    val_at_999 = None
    for space in (HARDY, BERGMAN):
        for z in (0.0, 0.5, 0.9, 0.99, 0.999):
            val = commutator_norm_PzMphi(space, [0, 1], z, tol=1e-13)
            assert val <= np.sqrt(1 - z * z) + 1e-6
            if space is HARDY and z == 0.999:
                val_at_999 = val
    assert val_at_999 < 0.05
    equality = commutator_norm_PzMphi(HARDY, [0, 1], 0.0)
    assert abs(equality - 1.0) <= 1e-10
    report(3, t0, f"||[P_z, M_z]|| <= sqrt(1-|z|^2)+1e-6 on both spaces; value(0.999) = {val_at_999:.4f} < 0.05; equality at 0 within 1e-10")


def test_acceptance_04_commutator_decay_under_transform():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    final_values = []
    for trial in range(5):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        raw = exprs.Sum(
            (
                (1, exprs.Product((exprs.Mz(), exprs.MzAdj()))),
                (1, exprs.Scale(complex(c[0]) / 4, exprs.MPoly(tuple(c[1:] / 4)))),
            )
        )
        a = HARDY.shift_weights(511)
        s_norm = float(np.linalg.svd(exprs.materialize(raw, a, 512), compute_uv=False)[0])
        s_node = exprs.Scale(1.0 / s_norm, raw)  # normalize ||S|| to 1
        rep = gbt_commutator_decay(HARDY, [0, 1], [0, 1], s_node, 0.0, (0.9, 0.99, 0.999), tol=1e-13)
        assert rep["bound_ok"]
        for v, b in zip(rep["values"], rep["bounds"]):
            assert v <= b + 1e-6
        final_values.append(rep["values"][-1])
        assert rep["values"][-1] < 0.05
    report(4, t0, f"|Gamma(S[Mz^*,Mz])(r)| under 3||S||sqrt(1-r^2)+1e-6 for 5 random S; worst final value {max(final_values):.4f} < 0.05")


def test_acceptance_05_spectral_radius_dyadic_weights():
    t0 = time.perf_counter()
    w = simple_weights(0.5, 2 ** 12)
    est = spectral_radius_estimate(w, 10)
    root = est["root_estimates"][2 ** 10]
    target = 0.5 ** (1 / 3)
    assert abs(root - target) < 0.01
    assert est["sandwich_checked"] and est["sandwich_ok"]
    report(5, t0, f"root estimate {root:.5f} within 0.01 of r^(1/3) = {target:.5f}; dyadic sandwich holds for every window, k <= 10")


def test_acceptance_06_power_boundedness():
    t0 = time.perf_counter()
    from berezin_lab.shifts import power_bounded_check

    w = simple_weights(0.5, 2 ** 13)
    rep = power_bounded_check(w, 0.5, m_max=2 ** 12)
    ks = sorted(rep["dyadic_bounds"])
    assert ks == [2 ** k for k in range(13)]
    worst = -np.inf
    for m in ks:
        entry = rep["dyadic_bounds"][m]
        assert entry["ok"]  # exact dyadic comparison
        assert entry["norm"] <= entry["bound"] + 1e-12
        worst = max(worst, entry["norm"] - entry["bound"])
    assert rep["all_dyadic_ok"]
    report(6, t0, f"||A^(2^k)|| <= 0.5^(-2^(-k)/3) + 1e-12 for k <= 12 (max excess {worst:.2e})")


def test_acceptance_07_character_set_reproduction():
    t0 = time.perf_counter()
    w = cluster_weights([1.0, 0.5, 0.25], 2 ** 15)
    moduli = [round(0.05 * k, 2) for k in range(21)]
    cfg = CharacterConfig(n_schedule=(256, 1024, 4096, 10 ** 4), scan_len=2 ** 15)
    verdicts = character_set_scan(w, moduli, n_angles=1, config=cfg)
    target = {0.25, 0.5, 1.0}
    members = {abs(v.lam) for v in verdicts if v.verdict == MEMBER}
    assert members == target
    certs = 0
    for v in verdicts:
        if abs(v.lam) not in target:
            assert v.verdict == NON_MEMBER
        gap = v.channels["gap"]
        if gap is not None:
            assert gap.n == 10 ** 4
            assert gap.lambda_min >= gap.bound - 1e-10
            certs += 1
    assert certs >= 15
    report(7, t0, f"cluster scan members exactly at {sorted(target)}; {certs} gap certificates verified at N=10^4")


def test_acceptance_08_empty_character_space():
    t0 = time.perf_counter()
    w = simple_weights(0.5, 2 ** 14 + 64)
    moduli = list(np.round(np.linspace(0.05, 1.0, 20), 6))
    cfg = CharacterConfig(
        n_schedule=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 13, 2 ** 14), scan_len=2 ** 14
    )
    verdicts = character_set_scan(w, moduli, n_angles=8, config=cfg)
    assert len(verdicts) == 160
    non_member = sum(1 for v in verdicts if v.verdict == NON_MEMBER)
    for v in verdicts:
        assert v.verdict in (NON_MEMBER, "inconclusive")
    assert non_member >= 0.9 * len(verdicts)
    report(8, t0, f"dyadic-weight module: {non_member}/160 grid points non_member (>= 90%), none member, N up to 2^14")


def test_acceptance_09_hardy_baseline():
    t0 = time.perf_counter()
    w = constant_weights(1.0, 2 ** 14)
    cfg = CharacterConfig(n_schedule=(256, 512, 1024, 2048), scan_len=2 ** 14)
    moduli = [round(0.1 * k, 2) for k in range(11)]
    verdicts = character_set_scan(w, moduli, n_angles=2, config=cfg)
    for v in verdicts:
        if abs(abs(v.lam) - 1.0) < 1e-12:
            assert v.verdict == MEMBER
        else:
            assert v.verdict == NON_MEMBER
    v0 = character_membership(w, 0.0, cfg)
    sigma0 = v0.channels["sigma_trend"].sigma_min[-1]
    assert abs(sigma0 - 1.0) <= 1e-10
    report(9, t0, f"hardy weights: members exactly on modulus 1; sigma_min at lambda=0 is {sigma0:.12f} = 1 +- 1e-10")


def test_acceptance_10_point_mass_space():
    t0 = time.perf_counter()
    # Gram-Schmidt oracle on the measure inner product: circle average
    # (trapezoid, exact for trig polynomials) plus the unit atom at 0
    kmax = 12
    m = 256
    theta = 2 * np.pi * np.arange(m) / m
    zs = np.exp(1j * theta)
    gram = np.empty((kmax + 1, kmax + 1), dtype=complex)
    for i in range(kmax + 1):
        for j in range(kmax + 1):
            gram[i, j] = np.mean(zs ** i * np.conj(zs) ** j) + (1.0 if i == j == 0 else 0.0)
    chol = np.linalg.cholesky(gram)
    gs_weights = np.array([abs(chol[k + 1, k + 1] / chol[k, k]) for k in range(kmax)])
    w = space_weights(MU, 2 ** 14)
    assert np.max(np.abs(gs_weights - w.a[:kmax])) <= 1e-12
    assert abs(w.a[0] - 1 / np.sqrt(2)) <= 1e-12

    cfg = CharacterConfig(n_schedule=(256, 512, 1024, 2048), scan_len=2 ** 14)
    moduli = [0.0, 0.25, 0.5, round(1 / np.sqrt(2), 6), 0.9, 1.0]
    verdicts = character_set_scan(w, moduli, n_angles=2, config=cfg)
    members = {abs(v.lam) for v in verdicts if v.verdict == MEMBER}
    assert members == {1.0}
    for v in verdicts:
        if abs(v.lam) != 1.0:
            assert v.verdict == NON_MEMBER
    report(10, t0, "point-mass space: derived weights match Gram-Schmidt to 1e-12; members exactly at modulus 1")


def test_acceptance_11_norm_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    j = np.arange(6)
    scale = 1.0 / (1.0 + j) ** 2
    worst = np.inf
    for _ in range(20):
        k = int(rng.integers(1, 4))
        phis = [(rng.standard_normal(6) + 1j * rng.standard_normal(6)) * scale for _ in range(k)]
        psis = [(rng.standard_normal(6) + 1j * rng.standard_normal(6)) * scale for _ in range(k)]
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        zc = np.exp(1j * theta)
        tot = sum(poly_eval(p, zc) * np.conj(poly_eval(q, zc)) for p, q in zip(phis, psis))
        s = np.sqrt(np.max(np.abs(tot)))
        phis = [p / s for p in phis]
        psis = [q / s for q in psis]
        for space in (HARDY, BERGMAN):
            rep = norm_lower_bound_check(space, phis, psis, 256, tol=0.01)
            assert rep["passed"]
            worst = min(worst, rep["margin"])
    report(11, t0, f"sigma_max >= circle sup - 0.01 at N=256 for 20 random degree-5 families on hardy and bergman (worst margin {worst:.4f})")


def test_acceptance_12_spherical_contraction():
    t0 = time.perf_counter()
    rep = spherical_contraction_check(da_norms(2, 10))
    assert rep["passed"]
    assert rep["row_norm"] <= 1 + 1e-10
    report(12, t0, f"stacked coordinate multipliers on the 2-variable degree-10 space: norm {rep['row_norm']:.12f} <= 1 + 1e-10")


def test_acceptance_13_peak_functions():
    t0 = time.perf_counter()
    margins = []
    for n in (1, 2, 3):
        cand = annulus_peak(2.0, 1.0, 2.0, n=n, grid_n=10 ** 4)
        assert cand.certified and cand.grid_report.margin > 0
        margins.append(cand.grid_report.margin)
    for h in ([0.0], [0.0, 1.0], [0.0, 0.0, 1.0]):
        cand = ball_peak(h, grid=(22, 22))
        assert cand.grid_report.grid_n >= 10 ** 4
        assert cand.certified and cand.grid_report.margin > 0
        margins.append(cand.grid_report.margin)
    report(13, t0, f"annulus n=1,2,3 and ball h=0,z,z^2 certified with positive margins (min {min(margins):.4f})")


def test_acceptance_14_closed_range_probes():
    t0 = time.perf_counter()
    rep = closed_range_probe(HARDY, BlaschkeProduct((0.5,)), n_schedule=(128, 256))
    for v in rep["lambda_min"].values():
        assert abs(v - 1.0) <= 1e-10
    rep_b = closed_range_probe(BERGMAN, BlaschkeProduct((0.5,)), n_schedule=(128, 256, 512, 1024))
    assert rep_b["classification"] == "bounded_below"
    rep_z = closed_range_probe(HARDY, [-1.0, 1.0], n_schedule=(128, 256, 512, 1024))
    assert rep_z["classification"] == "vanishing"
    report(14, t0, "hardy Blaschke lambda_min = 1 +- 1e-10; bergman bounded_below; z-1 vanishing")


def test_acceptance_15_symbol_dilation():
    t0 = time.perf_counter()
    coeffs = 0.9 ** np.arange(20)
    rep = wot_dilation_probe(HARDY, coeffs, (0.9, 0.99, 0.999), block=20)
    d = rep["deviations"]
    assert d[0] > d[1] > d[2]
    report(15, t0, f"M_(phi_t) deviations strictly decrease over t = 0.9, 0.99, 0.999: {d[0]:.4f} > {d[1]:.4f} > {d[2]:.4f}")
