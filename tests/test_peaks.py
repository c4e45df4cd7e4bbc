"""Peak functions on the annulus, the ball, and product domains."""

import json
import tracemalloc

import numpy as np
import pytest

from berezin_lab.formats import to_json
from berezin_lab.peaks import (
    annulus_lambda_threshold,
    annulus_peak,
    ball_peak,
    peak_report,
    product_peak_check,
    sphere_grid,
)


# ---------------------------------------------------------------------------
# annulus


def test_annulus_peak_basic_example():
    # oracle: grid search of |z + 0.5/z| over both circles
    cand = annulus_peak(2.0, 1.0, 2.0, n=1, lam_abs=0.5, grid_n=10 ** 4)
    assert cand.grid_report.max_value == pytest.approx(2.25, abs=1e-6)
    assert cand.certified
    # for n = 1 the max-modulus set is the antipodal pair {2, -2}
    nb = cand.grid_report.neighborhood
    assert len(nb) == 2
    assert sorted(round(x.real, 9) for x in nb) == [-2.0, 2.0]
    m = cand.grid_report.max_at[0]
    assert min(abs(m - 2), abs(m + 2)) < 1e-2


def test_annulus_peak_max_on_grid_vs_closed_form():
    cand = annulus_peak(2.0, 1.0, 2.0, n=1, lam_abs=0.5, grid_n=10 ** 4)
    # max = R + |lam| R^{-n} when the outer circle dominates
    assert cand.grid_report.max_value <= 2.0 + 0.5 / 2.0 + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_annulus_peak_certifies_all_orders(n):
    cand = annulus_peak(2.0, 1.0, 2.0 * np.exp(0.4j), n=n, grid_n=10 ** 4)
    assert cand.certified
    assert cand.grid_report.margin > 0.005
    assert len(cand.grid_report.neighborhood) == n + 1


def test_annulus_threshold_sharp():
    # 1.05x the threshold flips the maximum to the inner circle
    thr = annulus_lambda_threshold(2.0, 1.0, 1)
    assert thr == pytest.approx(2.0)

    def grid_max(lam_abs):
        theta = np.linspace(0, 2 * np.pi, 4001)
        lam = lam_abs  # alpha = R so the phase is 0
        outer = np.abs(2 * np.exp(1j * theta) + lam * np.exp(-1j * theta) / 2)
        inner = np.abs(np.exp(1j * theta) + lam * np.exp(-1j * theta))
        return outer.max(), inner.max()

    out_hi, in_hi = grid_max(1.05 * thr)
    assert in_hi > out_hi
    out_lo, in_lo = grid_max(0.95 * thr)
    assert out_lo > in_lo
    with pytest.raises(ValueError, match="threshold"):
        annulus_peak(2.0, 1.0, 2.0, n=1, lam_abs=1.05 * thr)


def test_annulus_degenerate_lambda_zero():
    cand = annulus_peak(2.0, 1.0, 2.0, n=1, lam_abs=0.0)
    assert cand.grid_report.margin == 0.0
    assert cand.grid_report.max_value == pytest.approx(2.0, abs=1e-12)


def test_annulus_validation():
    with pytest.raises(ValueError):
        annulus_peak(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        annulus_peak(2.0, 1.0, 1.5)  # alpha not on the outer circle
    with pytest.raises(ValueError):
        annulus_peak(2.0, 1.0, 2.0, n=0)


# ---------------------------------------------------------------------------
# ball


def ball_peak_value(h_coeffs, z1, z2):
    """The function ``ball_peak`` certifies, f = (1+z1) z1/2 + (1-z1) z2 h(z1)/2."""
    h = np.polyval(np.asarray(h_coeffs, dtype=complex)[::-1], z1)
    return (1 + z1) * z1 / 2 + (1 - z1) * z2 * h / 2


def test_ball_peak_value_at_peak_point():
    assert ball_peak_value([0.0], 1.0, 0.0) == pytest.approx(1.0)


def test_ball_peak_slice_z1_zero():
    # oracle: direct substitution f(0, z2) = z2 h(0) / 2
    for h0 in (0.0, 0.5, 1.0):
        vals = ball_peak_value([h0], 0.0, np.exp(1j * np.linspace(0, 6, 50)))
        assert np.max(np.abs(vals)) <= 0.5 + 1e-12
        assert np.max(np.abs(vals)) == pytest.approx(h0 / 2, abs=1e-12)


@pytest.mark.parametrize("h", [[0.0], [0.0, 1.0], [0.0, 0.0, 1.0]])
def test_ball_peak_certifies(h):
    cand = ball_peak(h, grid=(22, 22))
    assert cand.grid_report.grid_n >= 10 ** 4
    assert cand.grid_report.max_value <= 1 + 1e-12
    assert cand.certified
    assert cand.grid_report.margin > 0.01


def test_ball_peak_h_zero_peaks_in_z1():
    cand = ball_peak([0.0], grid=(40, 16))
    z1, z2 = cand.grid_report.max_at[0]
    assert abs(z1 - 1) < 0.05 and abs(z2) < 0.05


def test_ball_peak_rejects_large_h():
    with pytest.raises(ValueError, match="sup"):
        ball_peak([0.0, 1.5])


def test_sphere_grid_on_sphere():
    z1, z2 = sphere_grid(9, 8)
    assert np.allclose(np.abs(z1) ** 2 + np.abs(z2) ** 2, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# products


def test_product_peak_coordinates():
    rep = product_peak_check([0, 1], [0, 1], grid_n=256)
    assert rep["passed"]
    assert rep["sup"] == pytest.approx(1.0, abs=1e-12)


def test_product_peak_mixed_degrees():
    # oracle: product grid search for (1+z)/2 times w^2
    rep = product_peak_check([0.5, 0.5], [0, 0, 1], grid_n=512)
    assert rep["passed"]
    assert rep["sup"] == pytest.approx(1.0, abs=1e-9)
    a1, a2 = rep["alpha"]
    assert abs(a1 - 1) < 0.05


def test_product_peak_constant_factor():
    rep = product_peak_check([0.7], [0, 0, 1], grid_n=256)
    assert rep["passed"]
    assert rep["sup"] == pytest.approx(0.7, abs=1e-12)


def test_product_sup_equals_the_outer_product_max():
    # reference: the largest entry of the grid x grid array of products,
    # which the check no longer forms; rounding is monotone, so the product
    # of the two grid maxima equals it exactly
    r = np.random.default_rng(11)
    for _ in range(300):
        phi, psi = (
            (r.standard_normal(d + 1) + 1j * r.standard_normal(d + 1)) * 10.0 ** r.uniform(-3, 3, d + 1)
            for d in r.integers(0, 7, size=2)
        )
        grid_n = int(r.integers(1, 400))
        circle = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
        vphi = np.abs(np.polyval(phi[::-1], circle))
        vpsi = np.abs(np.polyval(psi[::-1], circle))
        rep = product_peak_check(phi, psi, grid_n=grid_n)
        assert rep["sup"] == float(np.outer(vphi, vpsi).max())
        assert rep["passed"]


def test_product_peak_memory_is_linear_in_grid():
    # a grid x grid array at 2^16 points would take 32 GiB
    product_peak_check([0.5, 0.5], [0, 0, 1], grid_n=64)
    tracemalloc.start()
    try:
        rep = product_peak_check([0.5, 0.5], [0, 0, 1], grid_n=2 ** 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["passed"] and rep["grid_n"] == 2 ** 16
    assert peak < 8 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# reports


def test_peak_report_json():
    cand = annulus_peak(2.0, 1.0, 2.0, n=1, lam_abs=0.5)
    doc = json.loads(to_json(peak_report(cand)))
    assert doc["domain"] == "annulus"
    assert set(doc) == {"domain", "func", "alpha", "grid_n", "max", "max_at", "margin", "certified"}
    assert doc["certified"] is True
