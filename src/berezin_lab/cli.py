"""Command-line front end.

One subcommand per studied phenomenon, so reproduction scripts stay one
line each:

    gbt        sample the transform of an operator expression along a path
    charspace  membership scan over a lambda grid for a weight model
    peaks      peak-function certification (annulus / ball / product)
    shift      power norms, spectral radius, power boundedness
    probe      commutator, closed-range, fredholm, spherical, wot, normbound

Outputs are deterministic CSV/JSON (identical config gives byte-identical
bytes).  Every file is written and read through ``formats``, which
refuses NaN and infinity in an output and raises ``ValueError`` on a
malformed input table.  Optional SVG plots are generated from the CSV and
never gate verdicts.  Each ``cmd_*`` handler returns ``(body, passed)``;
``main`` alone wraps the body in the ``{command, spec_version}``
envelope, writes it and maps ``passed`` to the exit code: 0 all checks
passed, 1 a verdict failed, 2 usage or parameter error (any
``ValueError`` or ``OSError``, ``spaces.TruncationError`` included, and
``MemoryError``).  Sizes are capped before anything is allocated:
``gbt --samples`` and ``grid:n=`` at ``spaces.N_CAP``, like the steps of
the ``charspace`` lambda grid, ``--weight-count`` of ``charspace`` and
``shift``, the ``peaks`` grids (``--grid``, and ``--grid-s`` times
``--grid-phi`` squared for the ball), and ``probe normbound --truncation``,
``--families`` and ``probe wot --block`` at 2^14, ``probe spherical --n`` at
256 and its n * C(n + degree, n)^2 at 2^23;
normbound's estimated work per family (``_normbound_work``) is capped at
its value at ``--truncation`` 2^14, ``--degree`` 5.
``gbt`` resolves its path to points here (``_parse_path``) and samples
them through ``berezin.gbt_profile`` and the one transform,
``berezin.gbt_sample``; space names resolve through
``spaces.space_by_name``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import berezin as bz
from . import exprs
from .characters import CharacterConfig, character_set_scan, verdict_to_dict
from .formats import to_json, write_text
from .operators import (
    BlaschkeProduct,
    closed_range_probe,
    commutator_norm_PzMphi,
    fredholm_probe,
    norm_lower_bound_check,
    poly_eval,
    spherical_contraction_check,
    wot_dilation_probe,
)
from .peaks import annulus_peak, ball_peak, peak_report, product_peak_check
from .shifts import generate_weights, power_bounded_check, shift_power_norm, spectral_radius_estimate
from .spaces import N_CAP, ball_space, space_by_name
from .svg import profile_csv_to_svg
from .trends import TrendThresholds

SPEC_VERSION = "1"

# re-exported parser entry point (grammar lives with the expressions)
parse_operator_expr = exprs.parse


def _coeff_list(text: str):
    return [_complex_arg(c) for c in text.split(",")]


def _complex_arg(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


# --rmax when it is not given, by path kind
_RMAX_DEFAULT = {"radial": 0.999, "grid": 0.95}


def _parse_path(args):
    """The points of ``gbt --path`` and the path record for the output:
    ``radial:theta=T`` gives ``--samples`` points towards radius ``--rmax``,
    ``grid:n=N`` about N points (default ``--samples``) within it."""
    kind, _, rest = args.path.partition(":")
    if kind not in _RMAX_DEFAULT:
        raise ValueError(f"unknown path kind {kind!r}")
    key, value, cast = ("theta", 0.0, float) if kind == "radial" else ("n", args.samples, int)
    for item in filter(None, rest.split(",")):
        k, _, v = item.partition("=")
        if k != key:
            raise ValueError(f"unknown {kind} path parameter {k!r}")
        value = cast(v)
    r_max = _RMAX_DEFAULT[kind] if args.rmax is None else args.rmax
    if not 0 < r_max < 1:
        raise ValueError(f"--rmax must lie in (0, 1), got {r_max}")
    if kind == "grid":
        if value > N_CAP:
            raise ValueError(f"grid:n= (default --samples) must be at most {N_CAP}, got {value}")
        return bz.disk_grid(value, r_max), {"kind": "grid", "n": value, "r_max": r_max}
    if not 2 <= args.samples <= N_CAP:
        raise ValueError(f"--samples must lie in [2, {N_CAP}] on a radial path, got {args.samples}")
    path = {"kind": "radial", "theta": value, "r_max": r_max, "count": args.samples}
    return bz.radial_path(value, r_max, args.samples), path


# largest normbound truncation and wot block: the band solve is O(N^2 q)
# time, about 24 s per degree-5 family at this N on a 2-vCPU VM, and the
# wot deviations read O(block^2) norm ratios, a 0.5 s run at this block
_TRUNCATION_CAP = 2 ** 14


def _normbound_work(n: int, degree: int) -> int:
    """About the operations of one normbound family at truncation n: N^2 q
    for the band solve and N w (d + 1) for the two applies on the N x w
    comb block, with half-width q = min(2d, N - 1) and w = min(N, 2q + 1)."""
    q = min(2 * degree, n - 1)
    return n * (n * q + min(n, 2 * q + 1) * (degree + 1))


# the work of one degree-5 family at the largest truncation, 24-34 s on a
# 2-vCPU VM
_NORMBOUND_WORK_CAP = _normbound_work(_TRUNCATION_CAP, 5)

# largest n * C(n + degree, n)^2 of ``probe spherical`` (its --n is at most
# 2^8), which reads two diagonals over the C(n + degree, n) monomials: at the
# cap's edge --n 1 --degree 2895 took 0.34 s and --n 2 --degree 62 0.31 s,
# each 35 MB, interpreter start-up included, on a 2-vCPU VM
_SPHERICAL_CAP = 2 ** 23

# largest lambda modulus whose doubled square is a finite float
_MODULUS_CAP = math.sqrt(sys.float_info.max) / 2


def _parse_lambda_grid(text: str):
    moduli = None
    angles = 8
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key == "mod":
            lo, hi, step = (float(x) for x in val.split(":"))
            if not (math.isfinite(lo) and math.isfinite(hi) and step > 0 and hi >= lo):
                raise ValueError(f"lambda grid mod={val} needs finite lo <= hi and step > 0")
            steps = (hi - lo) / step
            if not steps <= N_CAP:
                raise ValueError(f"lambda grid mod={val} needs at most {N_CAP} steps")
            # X carries 2 |lambda|^2 on its diagonal, which must stay finite
            if not max(abs(lo), abs(hi)) <= _MODULUS_CAP:
                raise ValueError(f"lambda grid mod={val} needs moduli at most {_MODULUS_CAP:.3g}")
            count = int(round(steps)) + 1
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


def _json_doc(command: str, body: dict) -> str:
    return to_json({"command": command, "spec_version": SPEC_VERSION, **body})


# ---------------------------------------------------------------------------
# subcommands


def cmd_gbt(args):
    if args.svg and not args.out:
        raise ValueError("--svg requires --out (the plot is built from the CSV)")
    space = space_by_name(args.space)
    node = parse_operator_expr(args.op)
    points, path = _parse_path(args)
    profile = bz.gbt_profile(space, node, points, path, op_label=args.op, tol=args.tail_tol)
    # contractivity audit: |value| <= coarse norm bound + tail
    bound = exprs.norm_bound(node)
    passed = all(abs(s.value) <= bound + s.tail + 1e-9 for s in profile.samples)
    if not args.out:
        return bz.profile_report(profile), passed
    bz.profile_to_csv(profile, args.out)
    if args.svg:
        profile_csv_to_svg(args.out, args.svg, title=args.op)
    return None, passed


def _weights(args):
    """The ``--weights`` sequence, its length capped before it is built."""
    if args.weight_count > N_CAP:
        raise ValueError(f"--weight-count must be at most {N_CAP}, got {args.weight_count}")
    return generate_weights(args.weights, args.weight_count)


def cmd_charspace(args):
    w = _weights(args)
    moduli, angles = _parse_lambda_grid(args.lambda_grid)
    ccfg = CharacterConfig(
        m_max=args.m_max,
        scan_len=min(args.weight_count, w.n),
        n_schedule=tuple(2 ** k for k in range(8, args.n_max_log2 + 1)),
        trend=args.trend,
    )
    verdicts = character_set_scan(w, moduli, n_angles=angles, config=ccfg)
    inconclusive = sum(1 for v in verdicts if v.verdict == "inconclusive")
    return {"verdicts": [verdict_to_dict(v) for v in verdicts]}, inconclusive <= args.allow_inconclusive


def cmd_peaks(args):
    points = args.grid_s * args.grid_phi ** 2 if args.domain == "ball" else args.grid
    if points > N_CAP:
        option = "--grid-s times --grid-phi squared" if args.domain == "ball" else "--grid"
        raise ValueError(f"{option} must be at most {N_CAP} points, got {points}")
    if args.domain == "annulus":
        cand = annulus_peak(
            args.R, args.r, _complex_arg(args.alpha) if args.alpha else args.R,
            n=args.n, lam_abs=args.lam, grid_n=args.grid,
        )
        return peak_report(cand), cand.certified or args.lam == 0.0
    if args.domain == "ball":
        cand = ball_peak(_coeff_list(args.h), grid=(args.grid_s, args.grid_phi))
        return peak_report(cand), cand.certified
    rep = product_peak_check(_coeff_list(args.phi), _coeff_list(args.psi), grid_n=args.grid)
    return rep, rep["passed"]


def cmd_shift(args):
    w = _weights(args)
    if args.what == "spr":
        est = spectral_radius_estimate(w, args.kmax)
        return {"weights": args.weights, **est}, not est["sandwich_checked"] or est["sandwich_ok"]
    if args.what == "powernorm":
        return {"weights": args.weights, "norms": {m: shift_power_norm(w, m) for m in args.m}}, True
    rep = power_bounded_check(w, args.r, m_max=args.mmax)
    return {"weights": args.weights, **rep}, rep["all_dyadic_ok"]


def cmd_probe(args):
    space = space_by_name(args.space) if getattr(args, "space", None) is not None else None
    if args.kind == "commutator":
        coeffs = _coeff_list(args.phi)
        rows = []
        for z in [_complex_arg(s) for s in args.z.split(";")]:
            val = commutator_norm_PzMphi(space, coeffs, z, tol=args.tail_tol)
            bound = float(np.sqrt(max(0.0, 1 - abs(poly_eval(coeffs, z)) ** 2)))
            rows.append({"z": z, "value": val, "bound": bound})
        passed = all(row["value"] <= row["bound"] + 1e-6 for row in rows)
        return {"phi": args.phi, "rows": rows, "passed": passed}, passed
    if args.kind == "closed-range":
        if not args.blaschke and not args.phi:
            raise ValueError("closed-range probe needs --phi or --blaschke")
        phi = BlaschkeProduct(tuple(_coeff_list(args.blaschke))) if args.blaschke else _coeff_list(args.phi)
        rep = closed_range_probe(
            space, phi, n_schedule=tuple(args.n_schedule), thresholds=args.trend, tol=args.tail_tol
        )
        body = {**rep, "kernel_bound_argmin": str(rep["kernel_bound_argmin"])}
        return body, rep["classification"] != "inconclusive"
    if args.kind == "fredholm":
        rep = fredholm_probe(
            space, _complex_arg(args.z0), tuple(args.n_schedule), thresholds=args.trend, tol=args.tail_tol
        )
        passed = rep["residual"] <= 10 * rep["tail"] and rep["classification"] == "bounded_below"
        return {**rep, "passed": passed}, passed
    if args.kind == "spherical":
        # n * C(n + d, n)^2 is at least (d + 1)^2, so bounding n and d first
        # keeps the binomial small; n < 1 and d < 0 are left to ``ball_space``
        n, d = args.n, args.degree
        too_big = n > 2 ** 8 or d > math.isqrt(_SPHERICAL_CAP)
        if too_big or n >= 1 and d >= 0 and n * math.comb(n + d, n) ** 2 > _SPHERICAL_CAP:
            raise ValueError(
                f"--n {n} with --degree {d}: probe spherical takes --n at most 256 and "
                f"n * C(n + degree, n)^2 at most 2^23"
            )
        rep = spherical_contraction_check(ball_space(n, d, args.ball_kind))
        return rep, rep["passed"]
    if args.kind == "wot":
        if args.geometric is None and not args.phi:
            raise ValueError("wot probe needs --phi or --geometric")
        if not 1 <= args.block <= _TRUNCATION_CAP:
            raise ValueError(f"--block must lie in [1, {_TRUNCATION_CAP}], got {args.block}")
        coeffs = (
            [args.geometric ** j for j in range(args.block)]
            if args.geometric is not None
            else _coeff_list(args.phi)
        )
        rep = wot_dilation_probe(space, coeffs, [float(t) for t in args.t.split(",")], block=args.block)
        return rep, rep["non_increasing"]
    # normbound
    if not 1 <= args.families <= _TRUNCATION_CAP:
        raise ValueError(f"--families must lie in [1, {_TRUNCATION_CAP}], got {args.families}")
    if not args.degree < args.truncation <= _TRUNCATION_CAP:
        raise ValueError(
            f"--truncation must lie above --degree {args.degree} and at most {_TRUNCATION_CAP}, "
            f"got {args.truncation}"
        )
    work = _normbound_work(args.truncation, args.degree)
    if work > _NORMBOUND_WORK_CAP:
        raise ValueError(
            f"--truncation {args.truncation} with --degree {args.degree} needs about {work:.2g} "
            f"operations per family, above the cap {_NORMBOUND_WORK_CAP:.2g} (--truncation "
            f"{_TRUNCATION_CAP} at --degree 5)"
        )
    rng = np.random.default_rng(args.seed)
    j = np.arange(args.degree + 1)
    scale = 1.0 / (1.0 + j) ** 2
    rows = []
    for _ in range(args.families):
        k = int(rng.integers(1, 4))
        phis = [(rng.standard_normal(args.degree + 1) + 1j * rng.standard_normal(args.degree + 1)) * scale for _ in range(k)]
        psis = [(rng.standard_normal(args.degree + 1) + 1j * rng.standard_normal(args.degree + 1)) * scale for _ in range(k)]
        rep = norm_lower_bound_check(space, phis, psis, args.truncation, tol=args.tol)
        rows.append({"sigma_max": rep["sigma_max"], "grid_sup": rep["grid_sup"], "passed": rep["passed"]})
    passed = all(row["passed"] for row in rows)
    return {"rows": rows, "passed": passed}, passed


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it as it was and returns a fresh namespace on every call."""
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
    g.add_argument("--rmax", type=float)
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
    """Run one subcommand.  Its handler returns (body, passed); this is the
    one place that wraps the body in the envelope, writes it (to ``--out``
    or standard output; ``gbt --out`` has written its CSV and returns no
    body) and turns ``passed`` into the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if not 0 < args.tail_tol < math.inf:
            raise ValueError(f"tail tolerance must be positive and finite, got {args.tail_tol}")
        args.trend = TrendThresholds(
            vanish_ratio=args.trend_vanish, stable_rel=args.trend_stable, floor=args.trend_floor
        )
        body, passed = args.func(args)
        if body is not None:
            words = [args.command, *(getattr(args, k) for k in ("domain", "what", "kind") if k in args)]
            write_text(args.out, _json_doc(" ".join(words), body))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
