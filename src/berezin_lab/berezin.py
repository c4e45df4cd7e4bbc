"""The symbol transform: compressions onto kernel lines and their limits.

For a rank-one kernel space the transform of an operator X at a point z
of the disk is the scalar <X k_z, k_z> against the normalized kernel
vector.  It is linear, contractive, self-adjoint, and sends M_phi to
phi(z); on products it satisfies

    (M_phi X)(z) -> phi(z) X(z),     (X M_phi^*)(z) -> conj(phi(z)) X(z),

so it collapses the algebra generated by multipliers onto functions once
commutators die out, which happens along paths approaching points where
some unimodular-peaking symbol exists.  The radial profiles here are the
desk-scale surrogate for those limits: samples carry their truncation
and a propagated tail estimate, and no limit is asserted.

There is one transform path, ``gbt_profile``, and ``gbt_sample`` is its
one-point case: operators are expression syntax trees applied to the
kernel coefficients without materializing matrices, which is what makes
r = 0.999 feasible, and a dense truncation enters the tree as an
``exprs.Dense`` leaf acting on its leading block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import exprs
from .formats import write_csv
from .operators import circle_sup_precondition, poly_eval, sup_on_circle
from .spaces import KernelSpace, kernel_vector


@dataclass(frozen=True)
class BerezinSample:
    z: complex
    value: complex
    trunc_n: int
    tail: float


@dataclass(frozen=True)
class BerezinProfile:
    op_label: str
    samples: tuple
    path: dict

    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    def points(self) -> np.ndarray:
        return np.array([s.z for s in self.samples])


def gbt_sample(space: KernelSpace, node, z: complex, tol: float = 1e-12) -> BerezinSample:
    """<X k_z, k_z> at adaptive truncation, applied without forming a
    matrix: the one-point ``gbt_profile``, whose docstring gives the rule."""
    return gbt_profile(space, node, [z], tol=tol).samples[0]


# ---------------------------------------------------------------------------
# paths and profiles


def radial_path(theta: float, r_max: float, count: int):
    """Radial points with 1 - r decaying geometrically from r = 0.5 (or
    r_max / 2 for r_max <= 0.5) towards r_max.

    Geometric spacing puts most samples near the boundary circle, where
    the transform's limits along the path are read.
    """
    if not 0 < r_max < 1:
        raise ValueError(f"need r_max in (0, 1), got {r_max}")
    if count < 2:
        raise ValueError(f"need count >= 2 radial samples, got {count}")
    r_min = 0.5 if r_max > 0.5 else r_max / 2
    gaps = np.geomspace(1 - r_min, 1 - r_max, count)
    return [(1 - g) * cmath.exp(1j * theta) for g in gaps]


def disk_grid(n: int, r_max: float = 0.95):
    """Polar grid of about n points in the closed sub-disk of radius r_max."""
    if not 0 < r_max < 1:
        raise ValueError(f"need r_max in (0, 1), got {r_max}")
    if n < 1:
        raise ValueError("need n >= 1 grid points")
    rings = max(1, int(math.sqrt(n / 3.0)))
    pts = [0j]
    for i in range(1, rings + 1):
        r = r_max * i / rings
        m = max(1, round((n - 1) * (2 * i - 1) / rings**2))
        for k in range(m):
            pts.append(r * cmath.exp(2j * math.pi * k / m))
    return pts


def gbt_profile(space, node, points, path=None, op_label: str = "", tol: float = 1e-12) -> BerezinProfile:
    """The transform <X k_z, k_z> of ``node`` at each of ``points``, at
    adaptive truncation.  ``path`` records where the points came from
    (default ``{"kind": "points", "count": m}``) and ``op_label`` names the
    operator; both are only carried into the profile.

    ``node`` is an expression tree; a dense truncation enters it as an
    ``exprs.Dense`` leaf, i.e. as the compression onto its leading block.
    Each kernel vector is padded by the tree's index raise, so products
    never hit the top edge of its frame and every coordinate a ``Dense``
    block reads holds a kernel value.  k_z = U p for the real kernel line
    p at |z| and the diagonal unitary U = diag(conj(w)^k), w = z/|z|, so
    the value is <(U^* X U) p, p>: the tree is rotated (``exprs.rotate``),
    which collects the phases of each product and commutator into one
    scalar c, and the value is ``exprs.quadratic`` of the rotated tree on
    p: c times <core p, p>, in real arithmetic wherever the core's
    coefficients are real.  The reported tail is the kernel tail scaled
    by a coarse norm bound of the tree.

    The index raise and the norm bound are formed once.  The outermost
    point is sampled first: the stop bound does not fall as |z| grows, so
    its kernel vector extends the space's norm table, weights and
    exponents (``spaces.KernelSpace``) as far as the profile reads them,
    and every other point reads views of them.  The values are those of
    one-point profiles, bit for bit.  The tail test and every truncation
    error are monotone in |z|, so a profile raises where its outermost
    point does, with that point's error."""
    points = list(points)
    pad, bound = exprs.raise_degree(node), exprs.norm_bound(node)

    def sample(kv) -> BerezinSample:
        value = exprs.quadratic(exprs.rotate(node, kv.w), kv.a, kv.v)
        return BerezinSample(z=kv.z, value=value, trunc_n=len(kv.v), tail=float(4.0 * bound * kv.tail))

    samples = [None] * len(points)
    if points:
        outer = max(range(len(points)), key=lambda i: abs(complex(points[i])))
        for i in (outer, *range(outer), *range(outer + 1, len(points))):
            samples[i] = sample(kernel_vector(space, points[i], tol, pad=pad))
    if path is None:
        path = {"kind": "points", "count": len(samples)}
    return BerezinProfile(op_label=op_label, samples=tuple(samples), path=path)


# ---------------------------------------------------------------------------
# axioms

_AXIOM_TOL = 1e-12


def gbt_axiom_check(
    space: KernelSpace,
    x: np.ndarray,
    y: np.ndarray,
    scalars=(1.0, 1.0),
    grid=None,
) -> dict:
    """Contractivity, linearity, self-adjointness, and module covariance
    of the transform of the compressions of the square arrays x and y,
    each entering the transform as a ``Dense`` leaf.

    The first three are identities of the compression and hold to float
    accuracy; covariance against multiplication by z holds up to the
    kernel tail, which the adaptive truncation keeps below ``_AXIOM_TOL``.
    """
    if x.shape[0] != y.shape[0]:
        raise ValueError("operators must share a truncation")
    if grid is None:
        grid = [0.4, -0.2 + 0.5j, 0.7j, 0.85]
    a_sc, b_sc = scalars
    norm_x = float(np.linalg.svd(x, compute_uv=False)[0])
    report = {
        "contractivity": 0.0,
        "linearity": 0.0,
        "self_adjointness": 0.0,
        "covariance": 0.0,
        "samples": [],
    }
    dx, dy = exprs.Dense(x), exprs.Dense(y)
    xy = exprs.Dense(a_sc * x + b_sc * y)
    x_adj = exprs.Dense(x.conj().T)
    mzx = exprs.Product((exprs.Mz(), dx))
    xmz_adj = exprs.Product((dx, exprs.MzAdj()))
    for z in grid:
        s = gbt_sample(space, dx, z, tol=_AXIOM_TOL)
        gx = s.value
        gy, gxy, gxa, gmzx, gxmza = (
            gbt_sample(space, op, z, tol=_AXIOM_TOL).value for op in (dy, xy, x_adj, mzx, xmz_adj)
        )
        report["contractivity"] = max(
            report["contractivity"], abs(gx) - norm_x - s.tail
        )
        report["linearity"] = max(report["linearity"], abs(gxy - (a_sc * gx + b_sc * gy)))
        report["self_adjointness"] = max(report["self_adjointness"], abs(gxa - gx.conjugate()))
        report["covariance"] = max(
            report["covariance"],
            abs(gmzx - z * gx),
            abs(gxmza - np.conj(z) * gx),
        )
        report["samples"].append({"z": complex(z), "value": gx, "tail": s.tail})
    return report


# ---------------------------------------------------------------------------
# commutator decay

_S_NORM_N = 512


def gbt_commutator_decay(
    space: KernelSpace,
    phi_coeffs,
    psi_coeffs,
    s_node=None,
    theta: float = 0.0,
    r_schedule=(0.9, 0.99, 0.999),
    tol: float = 1e-13,
) -> dict:
    """Samples of |Gamma(S [M_psi^*, M_phi])(r e^{i theta})| against the
    bound 3 ||psi|| ||S|| sqrt(1 - |phi(z)|^2).

    ``phi`` must have sup-norm at most 1 on the circle; ||psi|| is its
    grid sup and ||S|| the truncated norm at ``_S_NORM_N`` (a lower bound
    of the true norm, which only makes the asserted inequality stronger).
    """
    phi_coeffs = tuple(np.atleast_1d(np.asarray(phi_coeffs, dtype=complex)))
    psi_coeffs = tuple(np.atleast_1d(np.asarray(psi_coeffs, dtype=complex)))
    circle_sup_precondition(phi_coeffs)
    if s_node is None:
        s_node = exprs.MPoly((1.0 + 0j,))
    comm = exprs.Commutator(exprs.MPolyAdj(psi_coeffs), exprs.MPoly(phi_coeffs))
    node = exprs.Product((s_node, comm))
    psi_sup, _ = sup_on_circle(psi_coeffs)

    a_small = space.shift_weights(_S_NORM_N - 1)
    s_norm = float(
        np.linalg.svd(exprs.materialize(s_node, a_small, _S_NORM_N), compute_uv=False)[0]
    )

    points = [r * cmath.exp(1j * theta) for r in r_schedule]
    path = {"kind": "radial", "theta": theta, "r_schedule": list(r_schedule)}
    profile = gbt_profile(space, node, points, path, op_label=exprs.to_text(node), tol=tol)
    bounds = []
    ok = True
    for z, smp in zip(points, profile.samples):
        phi_z = abs(poly_eval(phi_coeffs, z))
        bound = 3.0 * psi_sup * s_norm * math.sqrt(max(1.0 - phi_z**2, 0.0))
        bounds.append(bound)
        if abs(smp.value) > bound + smp.tail + 1e-6:
            ok = False
    values = [abs(s.value) for s in profile.samples]
    return {
        "profile": profile,
        "values": values,
        "bounds": bounds,
        "bound_ok": ok,
        "s_norm": s_norm,
        "psi_sup": psi_sup,
        "final_value": values[-1],
    }


# ---------------------------------------------------------------------------
# serialization


PROFILE_HEADER = ("re_z", "im_z", "re_val", "im_val", "trunc_N", "tail")


def profile_to_csv(profile: BerezinProfile, path) -> None:
    rows = [(s.z.real, s.z.imag, s.value.real, s.value.imag, s.trunc_n, s.tail) for s in profile.samples]
    write_csv(path, PROFILE_HEADER, rows)


def profile_report(profile: BerezinProfile) -> dict:
    return {
        "op": profile.op_label,
        "path": profile.path,
        "samples": [
            {"z": s.z, "value": s.value, "trunc_N": s.trunc_n, "tail": s.tail}
            for s in profile.samples
        ],
    }
