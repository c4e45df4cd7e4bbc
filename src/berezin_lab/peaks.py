"""Peak-function construction and grid certification.

A peak candidate is a closed-form function together with a grid report
certifying that its maximum modulus over the domain boundary is attained
only inside a declared neighborhood of the claimed peak set.  The
verification is grid dominance with an explicit margin, not an exact
maximum-modulus proof.

Annulus r < |z| < R, peak at alpha = R e^{i theta0} on the outer circle:
phi(z) = z + lam z^{-n} with arg(lam) = (n+1) theta0 pulls the maximum to
the outer circle whenever |lam| < (R - r) / (r^{-n} - R^{-n}); its
max-modulus set there consists of the n+1 points alpha * (n+1)-th roots
of unity, so the declared neighborhood is that whole orbit.

Ball of C^2, peak at (1, 0):
f(z1, z2) = (1 + z1) z1 / 2 + (1 - z1) z2 h(z1) / 2 for any polynomial h
with sup|h| <= 1; Cauchy-Schwarz gives |f|^2 <= (1 + |z1|^2)/2 <= 1 on
the sphere with equality only at z1 = 1.

Products: if phi peaks at alpha1 and psi at alpha2, then |phi psi| on the
product domain peaks at (alpha1, alpha2) with the product of the maxima.

Only these three constructions are implemented.  Tangent-ball arguments
for strictly convex domains yield peak points too, but carry no
computable certificate beyond what the ball case already shows, so they
stay out of scope.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .operators import circle_grid, circle_sup_precondition, grid_max, poly_eval

_ANNULUS_NEIGHBORHOOD = 0.1
_BALL_CAP_RADIUS = 0.35
_PRODUCT_TOL = 1e-9


@dataclass(frozen=True)
class GridReport:
    max_value: float
    max_at: tuple
    margin: float
    neighborhood: tuple
    grid_n: int


@dataclass(frozen=True)
class PeakCandidate:
    domain: str
    params: dict
    func: str
    alpha: tuple
    grid_report: GridReport

    @property
    def certified(self) -> bool:
        return self.grid_report.margin > 0


def annulus_lambda_threshold(big_r: float, small_r: float, n: int) -> float:
    """Largest |lam| keeping the outer-circle maximum dominant."""
    return (big_r - small_r) / (small_r ** (-n) - big_r ** (-n))


def annulus_peak(
    big_r: float,
    small_r: float,
    alpha: complex,
    n: int = 1,
    lam_abs: float | None = None,
    grid_n: int = 10 ** 4,
) -> PeakCandidate:
    """Certified peak function z + lam z^{-n} on the annulus.

    ``alpha`` must sit on the outer circle; ``lam_abs`` defaults to half
    the admissible threshold; the grid is read outside an angular radius
    of ``_ANNULUS_NEIGHBORHOOD`` around each of the n+1 analytic
    maximizers.  lam_abs = 0 degenerates
    to phi = z, which peaks on the whole outer circle with zero margin.
    """
    if not 0 < small_r < big_r:
        raise ValueError(f"need 0 < r < R, got r = {small_r}, R = {big_r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"peak point alpha = {alpha} must be finite")
    if abs(abs(alpha) - big_r) > 1e-9 * big_r:
        raise ValueError(f"peak point {alpha} is not on the outer circle |z| = {big_r}")
    threshold = annulus_lambda_threshold(big_r, small_r, n)
    if lam_abs is None:
        lam_abs = threshold / 2
    if not math.isfinite(lam_abs):
        raise ValueError(f"|lam| = {lam_abs} must be finite")
    if lam_abs < 0 or lam_abs >= threshold:
        raise ValueError(
            f"|lam| = {lam_abs} outside [0, {threshold:.6g}); beyond the "
            "threshold the inner circle dominates"
        )
    theta0 = cmath.phase(alpha)
    lam = lam_abs * cmath.exp(1j * (n + 1) * theta0)

    def phi(z):
        return z + lam * z ** (-float(n))

    m = grid_n // 2
    theta = 2 * np.pi * np.arange(m) / m
    outer = big_r * np.exp(1j * theta)
    inner = small_r * np.exp(1j * theta)
    vals_outer = np.abs(phi(outer))
    vals_inner = np.abs(phi(inner))
    max_value = float(max(vals_outer.max(), vals_inner.max()))
    if vals_outer.max() >= vals_inner.max():
        max_at = complex(outer[int(np.argmax(vals_outer))])
    else:
        max_at = complex(inner[int(np.argmax(vals_inner))])

    maximizers = [
        big_r * cmath.exp(1j * (theta0 + 2 * math.pi * k / (n + 1))) for k in range(n + 1)
    ]
    if lam_abs == 0.0:
        inside = np.ones(m, dtype=bool)  # peaks on the whole outer circle
    else:
        inside = np.zeros(m, dtype=bool)
        for mx in maximizers:
            ang = np.angle(outer / mx)
            inside |= np.abs(ang) <= _ANNULUS_NEIGHBORHOOD
    outside_max = max(
        float(vals_outer[~inside].max()) if np.any(~inside) else -np.inf,
        float(vals_inner.max()),
    )
    margin = max_value - outside_max if np.isfinite(outside_max) else 0.0
    if lam_abs == 0.0:
        margin = 0.0
    return PeakCandidate(
        domain="annulus",
        params={"R": big_r, "r": small_r, "n": n, "lam": lam},
        func=f"z + ({lam:.12g}) z^-{n}",
        alpha=(alpha,),
        grid_report=GridReport(
            max_value=max_value,
            max_at=(max_at,),
            margin=float(margin),
            neighborhood=tuple(maximizers),
            grid_n=2 * m,
        ),
    )


def sphere_grid(n_s: int, n_phi: int):
    """Grid on the unit sphere of C^2: z1 = cos(s) e^{i p1},
    z2 = sin(s) e^{i p2}."""
    s = np.linspace(0, np.pi / 2, n_s)
    p = 2 * np.pi * np.arange(n_phi) / n_phi
    z1 = (np.cos(s)[:, None] * np.exp(1j * p)[None, :])[:, :, None]
    z2 = (np.sin(s)[:, None, None] * np.exp(1j * p)[None, None, :])
    z1b, z2b = np.broadcast_arrays(z1, z2)
    return z1b.reshape(-1), z2b.reshape(-1)


def ball_peak(h_coeffs=(0.0,), grid=(22, 22)) -> PeakCandidate:
    """Certified peak of f = (1+z1) z1/2 + (1-z1) z2 h(z1)/2 at (1, 0).

    ``h`` must satisfy sup |h| <= 1 on the closed disk (checked on a
    circle grid); the report gives the sup of |f| outside the ambient cap
    ||(z1,z2) - (1,0)|| <= ``_BALL_CAP_RADIUS``.
    """
    h_coeffs = np.atleast_1d(np.asarray(h_coeffs, dtype=complex))
    circle_sup_precondition(h_coeffs)

    z1, z2 = sphere_grid(*grid)
    f = (1 + z1) * z1 / 2 + (1 - z1) * z2 * poly_eval(h_coeffs, z1) / 2
    vals = np.abs(f)
    max_value = float(vals.max())
    j = int(np.argmax(vals))
    dist = np.sqrt(np.abs(z1 - 1) ** 2 + np.abs(z2) ** 2)
    outside = dist > _BALL_CAP_RADIUS
    sup_outside = float(vals[outside].max()) if np.any(outside) else 0.0
    f_peak = abs((1 + 1) * 1 / 2)  # f(1, 0) = 1 exactly
    return PeakCandidate(
        domain="ball",
        params={"n": 2, "h": tuple(h_coeffs), "cap_radius": _BALL_CAP_RADIUS},
        func="(1+z1) z1/2 + (1-z1) z2 h(z1)/2",
        alpha=((1 + 0j, 0j),),
        grid_report=GridReport(
            max_value=max(max_value, f_peak),
            max_at=((complex(z1[j]), complex(z2[j])),),
            margin=float(f_peak - sup_outside),
            neighborhood=(_BALL_CAP_RADIUS,),
            grid_n=len(z1),
        ),
    )


def product_peak_check(
    phi_coeffs,
    psi_coeffs,
    grid_n: int = 512,
) -> dict:
    """sup over the product of circle grids of |phi psi| against the
    product of the separate grid maxima attained at (alpha1, alpha2).

    Rounding is monotone, so the largest of the grid x grid products
    fl(|phi(z)| |psi(w)|) is the product of the two grid maxima, exactly;
    no grid x grid array is formed.
    """
    phi_coeffs = np.atleast_1d(np.asarray(phi_coeffs, dtype=complex))
    psi_coeffs = np.atleast_1d(np.asarray(psi_coeffs, dtype=complex))
    for name, coeffs in (("phi", phi_coeffs), ("psi", psi_coeffs)):
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"{name} coefficients must be finite")
    circle = circle_grid(grid_n)
    (m1, a1), (m2, a2) = (grid_max(circle, poly_eval(c, circle)) for c in (phi_coeffs, psi_coeffs))
    sup = claimed = m1 * m2
    return {
        "sup": sup,
        "claimed": claimed,
        "alpha": (a1, a2),
        "passed": bool(abs(sup - claimed) <= _PRODUCT_TOL * max(1.0, claimed)),
        "grid_n": grid_n,
    }


def peak_report(candidate: PeakCandidate) -> dict:
    rep = candidate.grid_report
    return {
        "domain": candidate.domain,
        "func": candidate.func,
        "alpha": candidate.alpha,
        "grid_n": rep.grid_n,
        "max": rep.max_value,
        "max_at": rep.max_at,
        "margin": rep.margin,
        "certified": candidate.certified,
    }
