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
and a propagated tail estimate, and boundary values are reported as a
last-samples mean plus dispersion, never as an asserted limit.

There is one transform, ``gbt_sample``: operators are expression syntax
trees applied to the kernel coefficients without materializing matrices,
which is what makes r = 0.999 feasible, and a dense truncation enters the
tree as an ``exprs.Dense`` leaf acting on its leading block.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import exprs
from .operators import TruncatedOperator, sup_on_circle
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


def gbt_sample(space: KernelSpace, op, z: complex, tol: float = 1e-12) -> BerezinSample:
    """<X k_z, k_z> at adaptive truncation, applied without forming a matrix.

    ``op`` is an expression tree; a ``TruncatedOperator`` enters as a
    ``Dense`` leaf, i.e. as the compression onto its leading block.  The
    kernel coefficients are padded by the expression's index raise so
    products never hit the top edge; the reported tail is the kernel tail
    scaled by a coarse norm bound of the expression.
    """
    node = exprs.Dense(op.mat) if isinstance(op, TruncatedOperator) else op
    kv = kernel_vector(space, z, tol)
    n = kv.n + exprs.raise_degree(node)
    a = space.shift_weights(max(n - 1, 0))
    v = np.zeros(n, dtype=complex)
    v[: kv.n] = kv.coeffs
    value = complex(np.vdot(v, exprs.apply(node, a, v)))
    tail = 4.0 * exprs.norm_bound(node) * kv.tail
    return BerezinSample(z=complex(z), value=value, trunc_n=n, tail=float(tail))


# ---------------------------------------------------------------------------
# paths and profiles


def radial_path(theta: float, r_max: float, count: int, r_min: float = 0.5):
    """Radial points with 1 - r decaying geometrically towards r_max.

    Geometric spacing near the boundary keeps the last samples tightly
    clustered, which is what the dispersion estimate needs.
    """
    if not 0 <= r_max < 1:
        raise ValueError(f"need r_max in [0, 1), got {r_max}")
    if count < 2 or not 0 <= r_min < r_max:
        raise ValueError("need count >= 2 and 0 <= r_min < r_max")
    gaps = np.geomspace(1 - r_min, 1 - r_max, count)
    return [(1 - g) * cmath.exp(1j * theta) for g in gaps]


def disk_grid(n: int, r_max: float = 0.95):
    """Polar grid of about n points in the closed sub-disk of radius r_max."""
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


def gbt_profile(space, op, path, op_label: str = "", tol: float = 1e-12) -> BerezinProfile:
    if isinstance(path, dict):
        spec = dict(path)
        kind = spec.pop("kind")
        pts = radial_path(**spec) if kind == "radial" else disk_grid(**spec)
        path_desc = dict(path)
    else:
        pts = list(path)
        path_desc = {"kind": "points", "count": len(pts)}
    samples = tuple(gbt_sample(space, op, z, tol=tol) for z in pts)
    if not op_label:
        op_label = op.label if isinstance(op, TruncatedOperator) else exprs.to_text(op)
    return BerezinProfile(op_label=op_label, samples=samples, path=path_desc)


# ---------------------------------------------------------------------------
# axioms


def gbt_axiom_check(
    space: KernelSpace,
    x: TruncatedOperator,
    y: TruncatedOperator,
    scalars=(1.0, 1.0),
    grid=None,
    tol: float = 1e-12,
) -> dict:
    """Contractivity, linearity, self-adjointness, and module covariance
    of the transform of the compressions of x and y.

    The first three are identities of the compression and hold to float
    accuracy; covariance against multiplication by z holds up to the
    kernel tail, which the adaptive truncation keeps below ``tol``.
    """
    if x.n != y.n:
        raise ValueError("operators must share a truncation")
    if grid is None:
        grid = [0.4, -0.2 + 0.5j, 0.7j, 0.85]
    a_sc, b_sc = scalars
    norm_x = x.norm()
    report = {
        "contractivity": 0.0,
        "linearity": 0.0,
        "self_adjointness": 0.0,
        "covariance": 0.0,
        "samples": [],
    }
    xy = TruncatedOperator(a_sc * x.mat + b_sc * y.mat, label="aX+bY")
    x_adj = x.adjoint()
    mzx = exprs.Product((exprs.Mz(), exprs.Dense(x.mat)))
    xmz_adj = exprs.Product((exprs.Dense(x.mat), exprs.MzAdj()))
    for z in grid:
        s = gbt_sample(space, x, z, tol=tol)
        gx = s.value
        gy, gxy, gxa, gmzx, gxmza = (
            gbt_sample(space, op, z, tol=tol).value for op in (y, xy, x_adj, mzx, xmz_adj)
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


def gbt_commutator_decay(
    space: KernelSpace,
    phi_coeffs,
    psi_coeffs,
    s_node=None,
    theta: float = 0.0,
    r_schedule=(0.9, 0.99, 0.999),
    tol: float = 1e-13,
    s_norm_n: int = 512,
) -> dict:
    """Samples of |Gamma(S [M_psi^*, M_phi])(r e^{i theta})| against the
    bound 3 ||psi|| ||S|| sqrt(1 - |phi(z)|^2).

    ``phi`` must have sup-norm at most 1 on the circle; ||psi|| is its
    grid sup and ||S|| the truncated norm at ``s_norm_n`` (a lower bound
    of the true norm, which only makes the asserted inequality stronger).
    """
    phi_coeffs = tuple(np.atleast_1d(np.asarray(phi_coeffs, dtype=complex)))
    psi_coeffs = tuple(np.atleast_1d(np.asarray(psi_coeffs, dtype=complex)))
    sup_phi, at = sup_on_circle(phi_coeffs)
    if sup_phi > 1 + 1e-9:
        raise ValueError(
            f"phi sup-norm {sup_phi:.6g} exceeds 1 on the circle (at {at:.6g})"
        )
    if s_node is None:
        s_node = exprs.MPoly((1.0 + 0j,))
    comm = exprs.Commutator(exprs.MPolyAdj(psi_coeffs), exprs.MPoly(phi_coeffs))
    node = exprs.Product((s_node, comm))
    psi_sup, _ = sup_on_circle(psi_coeffs)

    a_small = space.shift_weights(s_norm_n - 1)
    s_norm = float(
        np.linalg.svd(exprs.materialize(s_node, a_small, s_norm_n), compute_uv=False)[0]
    )

    samples = []
    bounds = []
    ok = True
    for r in r_schedule:
        z = r * cmath.exp(1j * theta)
        smp = gbt_sample(space, node, z, tol=tol)
        phi_z = abs(np.polyval(np.array(phi_coeffs)[::-1], z))
        bound = 3.0 * psi_sup * s_norm * math.sqrt(max(1.0 - phi_z**2, 0.0))
        samples.append(smp)
        bounds.append(bound)
        if abs(smp.value) > bound + smp.tail + 1e-6:
            ok = False
    values = [abs(s.value) for s in samples]
    return {
        "profile": BerezinProfile(
            op_label=exprs.to_text(node),
            samples=tuple(samples),
            path={"kind": "radial", "theta": theta, "r_schedule": list(r_schedule)},
        ),
        "values": values,
        "bounds": bounds,
        "bound_ok": ok,
        "s_norm": s_norm,
        "psi_sup": psi_sup,
        "final_value": values[-1],
    }


def positivity_gap(space: KernelSpace, coeffs, grid=None, tol: float = 1e-12) -> dict:
    """Gamma(M_phi^* M_phi)(z) - |phi(z)|^2 over a grid; Cauchy-Schwarz
    for the rank-one compression makes this non-negative up to tails."""
    coeffs = tuple(np.atleast_1d(np.asarray(coeffs, dtype=complex)))
    if grid is None:
        grid = disk_grid(40, r_max=0.9)
    node = exprs.Product((exprs.MPolyAdj(coeffs), exprs.MPoly(coeffs)))
    gaps = {}
    for z in grid:
        smp = gbt_sample(space, node, z, tol=tol)
        phi_z = np.polyval(np.array(coeffs)[::-1], z)
        gaps[complex(z)] = float(smp.value.real - abs(phi_z) ** 2)
    worst = min(gaps.values())
    return {"gaps": gaps, "min_gap": worst, "passed": bool(worst >= -1e-10)}


def boundary_limit_estimate(
    profile: BerezinProfile,
    alpha: complex | None = None,
    k: int = 5,
    dispersion_threshold: float = 1e-4,
) -> dict:
    """Mean and dispersion of the last k samples of a boundary path.

    Dispersion below the threshold reports a converged boundary value;
    radial paths stand in for boundary nets, so convergence is always
    reported as evidence, never asserted as the limit.
    """
    if len(profile.samples) < k:
        raise ValueError(f"need at least {k} samples, have {len(profile.samples)}")
    vals = profile.values()[-k:]
    mean = complex(np.mean(vals))
    dispersion = float(np.max(np.abs(vals - mean)))
    return {
        "limit": mean,
        "dispersion": dispersion,
        "converged": bool(dispersion <= dispersion_threshold),
        "alpha": complex(alpha) if alpha is not None else None,
        "k": k,
        "threshold": dispersion_threshold,
    }


# ---------------------------------------------------------------------------
# serialization


def profile_to_csv(profile: BerezinProfile, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["re_z", "im_z", "re_val", "im_val", "trunc_N", "tail"])
        for s in profile.samples:
            writer.writerow(
                [
                    repr(float(s.z.real)),
                    repr(float(s.z.imag)),
                    repr(float(s.value.real)),
                    repr(float(s.value.imag)),
                    int(s.trunc_n),
                    repr(float(s.tail)),
                ]
            )


def profile_from_csv(path) -> BerezinProfile:
    samples = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["re_z", "im_z", "re_val", "im_val", "trunc_N", "tail"]:
            raise ValueError(f"unexpected profile header {header!r}")
        for row in reader:
            if not row:
                continue
            samples.append(
                BerezinSample(
                    z=complex(float(row[0]), float(row[1])),
                    value=complex(float(row[2]), float(row[3])),
                    trunc_n=int(row[4]),
                    tail=float(row[5]),
                )
            )
    return BerezinProfile(op_label="", samples=tuple(samples), path={"kind": "points", "count": len(samples)})


def profile_report(profile: BerezinProfile, verdicts: dict | None = None) -> str:
    doc = {
        "op": profile.op_label,
        "path": {k: _json_safe(v) for k, v in profile.path.items()},
        "samples": [
            {
                "z": {"re": s.z.real, "im": s.z.imag},
                "value": {"re": s.value.real, "im": s.value.imag},
                "trunc_N": s.trunc_n,
                "tail": s.tail,
            }
            for s in profile.samples
        ],
        "verdicts": {k: _json_safe(v) for k, v in (verdicts or {}).items()},
        "spec_version": "1",
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _json_safe(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    return v
