"""Command-line front end.

One subcommand per studied phenomenon, so reproduction scripts stay one
line each:

    gbt        sample the transform of an operator expression along a path
    charspace  membership scan over a lambda grid for a weight model
    peaks      peak-function certification (annulus / ball / product)
    shift      power norms, spectral radius, power boundedness
    probe      commutator, closed-range, fredholm, spherical, wot, normbound

Outputs are deterministic CSV/JSON (identical config gives byte-identical
bytes); optional SVG plots are generated from the CSV and never gate
verdicts.  Exit codes: 0 all checks passed, 1 a verdict failed, 2 usage
or parameter error.  ``gbt`` samples its path points one after another
through the one transform, ``berezin.gbt_sample``; space names resolve
through ``spaces.space_by_name``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import berezin as bz
from . import exprs
from .characters import CharacterConfig, character_set_scan, verdicts_to_json
from .operators import (
    BlaschkeProduct,
    closed_range_probe,
    commutator_norm_PzMphi,
    fredholm_probe,
    norm_lower_bound_check,
    spherical_contraction_check,
    wot_dilation_probe,
)
from .peaks import annulus_peak, ball_peak, peak_report, product_peak_check
from .shifts import generate_weights, power_bounded_check, shift_power_norm, spectral_radius_estimate
from .spaces import TruncationError, ball_space, space_by_name
from .svg import profile_csv_to_svg
from .trends import TrendThresholds

SPEC_VERSION = "1"

# re-exported parser entry point (grammar lives with the expressions)
parse_operator_expr = exprs.parse


@dataclass
class RunConfig:
    """Tolerances and output paths shared by subcommands."""

    tail_tol: float = 1e-12
    trend: TrendThresholds = field(default_factory=TrendThresholds)
    out: str | None = None
    svg: str | None = None

    def __post_init__(self):
        if not 0 < self.tail_tol < math.inf:
            raise ValueError(f"tail tolerance must be positive and finite, got {self.tail_tol}")


def _coeff_list(text: str):
    return [_complex_arg(c) for c in text.split(",")]


def _complex_arg(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def _parse_path(args) -> dict:
    kind, _, rest = args.path.partition(":")
    if kind == "radial":
        theta = 0.0
        for item in filter(None, rest.split(",")):
            k, _, v = item.partition("=")
            if k != "theta":
                raise ValueError(f"unknown radial path parameter {k!r}")
            theta = float(v)
        return {"kind": "radial", "theta": theta, "r_max": args.rmax, "count": args.samples}
    if kind == "grid":
        n = args.samples
        for item in filter(None, rest.split(",")):
            k, _, v = item.partition("=")
            if k != "n":
                raise ValueError(f"unknown grid path parameter {k!r}")
            n = int(v)
        return {"kind": "grid", "n": n}
    raise ValueError(f"unknown path kind {kind!r}")


def _parse_lambda_grid(text: str):
    moduli = None
    angles = 8
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key == "mod":
            lo, hi, step = (float(x) for x in val.split(":"))
            if not (math.isfinite(lo) and math.isfinite(hi) and step > 0 and hi >= lo):
                raise ValueError(f"lambda grid mod={val} needs finite lo <= hi and step > 0")
            count = int(round((hi - lo) / step)) + 1
            moduli = [round(lo + i * step, 12) for i in range(count)]
        elif key == "args":
            angles = int(val)
            if angles < 1:
                raise ValueError(f"lambda grid args={val} needs at least one angle")
        else:
            raise ValueError(f"unknown lambda grid parameter {key!r}")
    if moduli is None:
        raise ValueError("lambda grid needs mod=lo:hi:step")
    return moduli, angles


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


def _json_doc(command: str, body: dict) -> str:
    doc = {"command": command, "spec_version": SPEC_VERSION}
    doc.update(body)
    return json.dumps(doc, sort_keys=True, indent=2, default=_default)


def _default(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not serializable: {type(v)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gbt(args, cfg: RunConfig) -> int:
    space = space_by_name(args.space)
    node = parse_operator_expr(args.op)
    path = _parse_path(args)
    if path["kind"] == "radial":
        pts = bz.radial_path(path["theta"], path["r_max"], path["count"])
    else:
        pts = bz.disk_grid(path["n"])
    samples = [bz.gbt_sample(space, node, z, tol=cfg.tail_tol) for z in pts]
    profile = bz.BerezinProfile(op_label=args.op, samples=tuple(samples), path=path)
    if cfg.out:
        bz.profile_to_csv(profile, cfg.out)
    else:
        _write(None, bz.profile_report(profile))
    if cfg.svg:
        if not cfg.out:
            raise ValueError("--svg requires --out (the plot is built from the CSV)")
        profile_csv_to_svg(cfg.out, cfg.svg, title=args.op)
    # contractivity audit: |value| <= coarse norm bound + tail
    bound = exprs.norm_bound(node)
    ok = all(abs(s.value) <= bound + s.tail + 1e-9 for s in samples)
    return 0 if ok else 1


def cmd_charspace(args, cfg: RunConfig) -> int:
    w = generate_weights(args.weights, args.weight_count)
    moduli, angles = _parse_lambda_grid(args.lambda_grid)
    ccfg = CharacterConfig(
        m_max=args.m_max,
        scan_len=min(args.weight_count, w.n),
        n_schedule=tuple(2 ** k for k in range(8, args.n_max_log2 + 1)),
        trend=cfg.trend,
    )
    verdicts = character_set_scan(w, moduli, n_angles=angles, config=ccfg)
    _write(cfg.out, verdicts_to_json(verdicts, command="charspace", spec_version=SPEC_VERSION))
    inconclusive = sum(1 for v in verdicts if v.verdict == "inconclusive")
    return 0 if inconclusive <= args.allow_inconclusive else 1


def cmd_peaks(args, cfg: RunConfig) -> int:
    if args.domain == "annulus":
        cand = annulus_peak(
            args.R, args.r, _complex_arg(args.alpha) if args.alpha else args.R,
            n=args.n, lam_abs=args.lam, grid_n=args.grid,
        )
        _write(cfg.out, peak_report(cand))
        return 0 if (cand.certified or args.lam == 0.0) else 1
    if args.domain == "ball":
        cand = ball_peak(_coeff_list(args.h), grid=(args.grid_s, args.grid_phi))
        _write(cfg.out, peak_report(cand))
        return 0 if cand.certified else 1
    rep = product_peak_check(_coeff_list(args.phi), _coeff_list(args.psi), grid_n=args.grid)
    _write(cfg.out, _json_doc("peaks product", rep))
    return 0 if rep["passed"] else 1


def cmd_shift(args, cfg: RunConfig) -> int:
    w = generate_weights(args.weights, args.weight_count)
    if args.what == "spr":
        est = spectral_radius_estimate(w, args.kmax)
        body = {
            "weights": args.weights,
            "power_norms": {str(m): v for m, v in est.power_norms.items()},
            "root_estimates": {str(m): v for m, v in est.root_estimates.items()},
            "bounds": {str(m): list(v) for m, v in (est.bounds or {}).items()},
            "sandwich_checked": est.sandwich_checked,
            "sandwich_ok": est.sandwich_ok,
            "violations": [list(v) for v in est.sandwich_violations],
        }
        _write(cfg.out, _json_doc("shift spr", body))
        return 0 if (not est.sandwich_checked or est.sandwich_ok) else 1
    if args.what == "powernorm":
        vals = {str(m): shift_power_norm(w, m) for m in args.m}
        _write(cfg.out, _json_doc("shift powernorm", {"weights": args.weights, "norms": vals}))
        return 0
    rep = power_bounded_check(w, args.r, m_max=args.mmax)
    body = dict(rep)
    body["dyadic_bounds"] = {str(m): v for m, v in rep["dyadic_bounds"].items()}
    _write(cfg.out, _json_doc("shift powerbound", {"weights": args.weights, **body}))
    return 0 if rep["all_dyadic_ok"] else 1


def cmd_probe(args, cfg: RunConfig) -> int:
    space = space_by_name(args.space) if getattr(args, "space", None) else None
    if args.kind == "commutator":
        coeffs = _coeff_list(args.phi)
        rows = []
        ok = True
        for z in [_complex_arg(s) for s in args.z.split(";")]:
            val = commutator_norm_PzMphi(space, coeffs, z, tol=cfg.tail_tol)
            bound = float(np.sqrt(max(0.0, 1 - abs(np.polyval(np.array(coeffs)[::-1], z)) ** 2)))
            rows.append({"z": z, "value": val, "bound": bound})
            ok = ok and val <= bound + 1e-6
        _write(cfg.out, _json_doc("probe commutator", {"phi": args.phi, "rows": rows, "passed": ok}))
        return 0 if ok else 1
    if args.kind == "closed-range":
        if not args.blaschke and not args.phi:
            raise ValueError("closed-range probe needs --phi or --blaschke")
        phi = BlaschkeProduct(tuple(_coeff_list(args.blaschke))) if args.blaschke else _coeff_list(args.phi)
        rep = closed_range_probe(
            space, phi, n_schedule=tuple(args.n_schedule), thresholds=cfg.trend, tol=cfg.tail_tol
        )
        body = dict(rep)
        body["kernel_values"] = {str(k): v for k, v in rep["kernel_values"].items()}
        body["lambda_min"] = {str(k): v for k, v in rep["lambda_min"].items()}
        body["kernel_bound_argmin"] = str(rep["kernel_bound_argmin"])
        _write(cfg.out, _json_doc("probe closed-range", body))
        return 0 if rep["classification"] != "inconclusive" else 1
    if args.kind == "fredholm":
        rep = fredholm_probe(space, _complex_arg(args.z0), tuple(args.n_schedule), tol=cfg.tail_tol)
        body = dict(rep)
        body["sigma2"] = {str(k): v for k, v in rep["sigma2"].items()}
        ok = rep["residual"] <= 10 * rep["tail"] and rep["sigma2_trend"] == "bounded_below"
        body["passed"] = ok
        _write(cfg.out, _json_doc("probe fredholm", body))
        return 0 if ok else 1
    if args.kind == "spherical":
        ball = ball_space(args.n, args.degree, args.ball_kind)
        rep = spherical_contraction_check(ball)
        _write(cfg.out, _json_doc("probe spherical", rep))
        return 0 if rep["passed"] else 1
    if args.kind == "wot":
        if args.geometric is None and not args.phi:
            raise ValueError("wot probe needs --phi or --geometric")
        coeffs = (
            [args.geometric ** j for j in range(args.block)]
            if args.geometric is not None
            else _coeff_list(args.phi)
        )
        rep = wot_dilation_probe(space, coeffs, [float(t) for t in args.t.split(",")], block=args.block)
        _write(cfg.out, _json_doc("probe wot", rep))
        return 0 if rep["non_increasing"] else 1
    # normbound
    rng = np.random.default_rng(args.seed)
    j = np.arange(args.degree + 1)
    scale = 1.0 / (1.0 + j) ** 2
    ok = True
    rows = []
    for _ in range(args.families):
        k = int(rng.integers(1, 4))
        phis = [(rng.standard_normal(args.degree + 1) + 1j * rng.standard_normal(args.degree + 1)) * scale for _ in range(k)]
        psis = [(rng.standard_normal(args.degree + 1) + 1j * rng.standard_normal(args.degree + 1)) * scale for _ in range(k)]
        rep = norm_lower_bound_check(space, phis, psis, args.truncation, tol=args.tol)
        rows.append({"sigma_max": rep["sigma_max"], "grid_sup": rep["grid_sup"], "passed": rep["passed"]})
        ok = ok and rep["passed"]
    _write(cfg.out, _json_doc("probe normbound", {"rows": rows, "passed": ok}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="berezin-lab",
        description="numerical probes for symbol transforms on disk kernel spaces",
        allow_abbrev=False,
    )
    top.add_argument("--tail-tol", type=float, default=1e-12)
    top.add_argument("--trend-vanish", type=float, default=0.7)
    top.add_argument("--trend-stable", type=float, default=0.05)
    top.add_argument("--trend-floor", type=float, default=1e-6)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gbt", help="transform profile along a path")
    g.add_argument("--space", required=True)
    g.add_argument("--op", required=True)
    g.add_argument("--path", default="radial:theta=0")
    g.add_argument("--rmax", type=float, default=0.999)
    g.add_argument("--samples", type=int, default=50)
    g.add_argument("--out")
    g.add_argument("--svg")
    g.set_defaults(func=cmd_gbt)

    c = sub.add_parser("charspace", help="character membership scan")
    c.add_argument("--weights", required=True)
    c.add_argument("--weight-count", type=int, default=2 ** 15)
    c.add_argument("--lambda-grid", required=True)
    c.add_argument("--m-max", type=int, default=6)
    c.add_argument("--n-max-log2", type=int, default=13)
    c.add_argument("--allow-inconclusive", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(func=cmd_charspace)

    p = sub.add_parser("peaks", help="peak-function certification")
    psub = p.add_subparsers(dest="domain", required=True)
    pa = psub.add_parser("annulus")
    pa.add_argument("--R", type=float, required=True)
    pa.add_argument("--r", type=float, required=True)
    pa.add_argument("--n", type=int, default=1)
    pa.add_argument("--alpha")
    pa.add_argument("--lam", type=float)
    pa.add_argument("--grid", type=int, default=10 ** 4)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_peaks)
    pb = psub.add_parser("ball")
    pb.add_argument("--h", default="0")
    pb.add_argument("--grid-s", type=int, default=22)
    pb.add_argument("--grid-phi", type=int, default=22)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_peaks)
    pp = psub.add_parser("product")
    pp.add_argument("--phi", required=True)
    pp.add_argument("--psi", required=True)
    pp.add_argument("--grid", type=int, default=512)
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_peaks)

    s = sub.add_parser("shift", help="weighted shift computations")
    ssub = s.add_subparsers(dest="what", required=True)
    sr = ssub.add_parser("spr")
    sr.add_argument("--weights", required=True)
    sr.add_argument("--weight-count", type=int, default=2 ** 12)
    sr.add_argument("--kmax", type=int, default=10)
    sr.add_argument("--out")
    sr.set_defaults(func=cmd_shift)
    sn = ssub.add_parser("powernorm")
    sn.add_argument("--weights", required=True)
    sn.add_argument("--weight-count", type=int, default=2 ** 12)
    sn.add_argument("--m", type=int, nargs="+", required=True)
    sn.add_argument("--out")
    sn.set_defaults(func=cmd_shift)
    sb = ssub.add_parser("powerbound")
    sb.add_argument("--weights", required=True)
    sb.add_argument("--weight-count", type=int, default=2 ** 13)
    sb.add_argument("--r", type=float, required=True)
    sb.add_argument("--mmax", type=int, default=256)
    sb.add_argument("--out")
    sb.set_defaults(func=cmd_shift)

    pr = sub.add_parser("probe", help="operator-theoretic probes")
    prsub = pr.add_subparsers(dest="kind", required=True)
    pc = prsub.add_parser("commutator")
    pc.add_argument("--space", required=True)
    pc.add_argument("--phi", required=True)
    pc.add_argument("--z", default="0;0.5;0.9;0.99")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_probe)
    pcr = prsub.add_parser("closed-range")
    pcr.add_argument("--space", required=True)
    pcr.add_argument("--phi")
    pcr.add_argument("--blaschke")
    pcr.add_argument("--n-schedule", type=int, nargs="+", default=[128, 256, 512, 1024])
    pcr.add_argument("--out")
    pcr.set_defaults(func=cmd_probe)
    pf = prsub.add_parser("fredholm")
    pf.add_argument("--space", required=True)
    pf.add_argument("--z0", default="0.4")
    pf.add_argument("--n-schedule", type=int, nargs="+", default=[128, 256, 512])
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_probe)
    ps = prsub.add_parser("spherical")
    ps.add_argument("--n", type=int, default=2)
    ps.add_argument("--degree", type=int, default=10)
    ps.add_argument("--ball-kind", default="drury_arveson")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_probe)
    pw = prsub.add_parser("wot")
    pw.add_argument("--space", required=True)
    pw.add_argument("--phi")
    pw.add_argument("--geometric", type=float)
    pw.add_argument("--t-schedule", dest="t", default="0.9,0.99,0.999")
    pw.add_argument("--block", type=int, default=20)
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_probe)
    pn = prsub.add_parser("normbound")
    pn.add_argument("--space", required=True)
    pn.add_argument("--families", type=int, default=20)
    pn.add_argument("--degree", type=int, default=5)
    pn.add_argument("--truncation", type=int, default=256)
    pn.add_argument("--tol", type=float, default=0.01)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--out")
    pn.set_defaults(func=cmd_probe)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(
            tail_tol=args.tail_tol,
            trend=TrendThresholds(
                vanish_ratio=args.trend_vanish,
                stable_rel=args.trend_stable,
                floor=args.trend_floor,
            ),
            out=getattr(args, "out", None),
            svg=getattr(args, "svg", None),
        )
        return args.func(args, cfg)
    except (ValueError, OSError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
