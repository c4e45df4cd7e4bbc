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
``MemoryError``).  Every bound on an argument is a row of ``BOUNDS``,
with the measured cost at its edge: a range of one option, or a named
rule over several.  ``main`` checks the parsed subcommand's rows
(``_check_bounds``) before its handler runs, so an argument out of bounds
exits 2 before anything is allocated.  A cap that only the work an
argument leads to can find is the library's own ``TruncationError``
instead, raised before any large array: ``spaces.N_CAP`` for a kernel
truncation, ``operators.SERIES_CAP`` for a Blaschke series.  ``gbt``
resolves its path to points here (``_parse_path``) and samples them
through the one transform path, ``berezin.gbt_profile``; space names
resolve through ``spaces.space_by_name``.  ``main``, never the import,
sets glibc's allocator to keep freed memory (``_keep_freed_heap``): the
samples of a profile near the circle free and re-form arrays of
megabytes, which glibc would otherwise return to the kernel and fault
back in page by page.
It also sets the BLAS thread policy (``lapack.one_blas_thread``): each
OpenBLAS library runs on its caller's thread and its workers exit, so
``charspace``'s solver threads have the CPUs to themselves.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import berezin as bz
from . import exprs, lapack
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
    """The kind, parameter and radius of ``gbt --path``: ``radial:theta=T``
    gives ``--samples`` points towards radius ``--rmax``, ``grid:n=N``
    about N points (default ``--samples``) within it."""
    kind, _, rest = args.path.partition(":")
    if kind not in _RMAX_DEFAULT:
        raise ValueError(f"unknown path kind {kind!r}")
    key, value, cast = ("theta", 0.0, float) if kind == "radial" else ("n", args.samples, int)
    for item in filter(None, rest.split(",")):
        k, _, v = item.partition("=")
        if k != key:
            raise ValueError(f"unknown {kind} path parameter {k!r}")
        value = cast(v)
    if kind == "radial" and not math.isfinite(value):
        raise ValueError(f"radial:theta= must be finite, got {value}")
    r_max = _RMAX_DEFAULT[kind] if args.rmax is None else args.rmax
    if not 0 < r_max < 1:
        raise ValueError(f"--rmax must lie in (0, 1), got {r_max}")
    return kind, value, r_max


def _parse_lambda_grid(text: str):
    """(lo, hi, step, modulus count, angle count) of
    ``mod=lo:hi:step[,args=K]``.  The count is inf where the step count
    is, and the moduli are listed (``_moduli``) only once it is capped."""
    mod = None
    angles = 8
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key == "mod":
            lo, hi, step = (float(x) for x in val.split(":"))
            if not (math.isfinite(lo) and math.isfinite(hi) and step > 0 and hi >= lo):
                raise ValueError(f"lambda grid mod={val} needs finite lo <= hi and step > 0")
            mod = lo, hi, step
        elif key == "args":
            angles = int(val)
            if angles < 1:
                raise ValueError(f"lambda grid args={val} needs at least one angle")
        else:
            raise ValueError(f"unknown lambda grid parameter {key!r}")
    if mod is None:
        raise ValueError("lambda grid needs mod=lo:hi:step")
    lo, hi, step = mod
    steps = (hi - lo) / step
    return lo, hi, step, round(steps) + 1 if math.isfinite(steps) else math.inf, angles


def _moduli(lo: float, step: float, count: int) -> list:
    return [round(lo + i * step, 12) for i in range(count)]


def _n_schedule(args) -> tuple:
    """The truncations of a ``charspace`` scan, 2^8 up to 2^``--n-max-log2``."""
    return tuple(2 ** k for k in range(_LOG2_N_MIN, args.n_max_log2 + 1))


def _normbound_work(n: int, degree: int) -> int:
    """About the operations of one normbound family at truncation n: N^2 q
    for the band solve and N w (d + 1) for the two applies on the N x w
    comb block, with half-width q = min(2d, N - 1) and w = min(N, 2q + 1)."""
    q = min(2 * degree, n - 1)
    return n * (n * q + min(n, 2 * q + 1) * (degree + 1))


_TRUNCATION_CAP = 2 ** 14
_NORMBOUND_WORK_CAP = _normbound_work(_TRUNCATION_CAP, 5)
_SPHERICAL_CAP = 2 ** 23
_MODULUS_CAP = math.sqrt(sys.float_info.max) / 2
_LAMBDA_POINTS_CAP = 2 ** 14
_SCAN_WORK_CAP = 2 ** 24
_LOG2_N_CAP = N_CAP.bit_length() - 1
_LOG2_N_MIN = 8


# ---------------------------------------------------------------------------
# argument bounds


class _Range(NamedTuple):
    """``option`` of each subcommand in ``words`` (each value of a list) lies in [low, high]; None is open."""

    words: tuple
    option: str
    low: int | None
    high: int | None
    reason: str

    def check(self, args):
        value = getattr(args, self.option[2:].replace("-", "_"))
        for v in value if isinstance(value, list) else [value]:
            if self.low is not None and v < self.low:
                return f"{self.option} must be at least {self.low}, got {v}"
            if self.high is not None and v > self.high:
                return f"{self.option} must be at most {self.high}, got {v}"


# a bound over several options: check(args) returns the error line of
# arguments that break it, and a false value otherwise
_Rule = NamedTuple("_Rule", [("words", tuple), ("check", Callable), ("reason", str)])


def _path_points(args):
    kind, n, _ = _parse_path(args)
    if kind == "grid":
        return n > N_CAP and f"grid:n= (default --samples) must be at most {N_CAP}, got {n}"
    return not 2 <= args.samples <= N_CAP and f"--samples must lie in [2, {N_CAP}] on a radial path, got {args.samples}"


def _lambda_points(args):
    lo, hi, _, count, angles = _parse_lambda_grid(args.lambda_grid)
    if not max(abs(lo), abs(hi)) <= _MODULUS_CAP:
        return f"--lambda-grid {args.lambda_grid} needs moduli at most {_MODULUS_CAP:.3g}"
    return count * angles > _LAMBDA_POINTS_CAP and f"--lambda-grid {args.lambda_grid} gives over {_LAMBDA_POINTS_CAP} points"


def _scan_work(args):
    # distinct |moduli| times their rows (the truncations up to --weight-count, or it alone), plus
    # a sixteenth of a row per weight for the run scan (about 20 ns a weight against 550 ns a row)
    lo, _, step, count, _ = _parse_lambda_grid(args.lambda_grid)
    rows = sum(n for n in _n_schedule(args) if n <= args.weight_count) or args.weight_count
    work = len({abs(m) for m in _moduli(lo, step, count)}) * (rows + args.weight_count // 16)
    return work > _SCAN_WORK_CAP and f"--lambda-grid {args.lambda_grid} asks {work} rows of work, above {_SCAN_WORK_CAP}"


def _kmax_weights(args):
    return args.kmax + 1 >= args.weight_count.bit_length() and (
        f"--kmax {args.kmax} needs 2^{args.kmax + 1} weights, more than the {args.weight_count} of --weight-count")


def _ball_points(args):
    points = args.grid_s * args.grid_phi ** 2
    return points > N_CAP and f"--grid-s times --grid-phi squared must be at most {N_CAP} points, got {points}"


def _annulus_size(args):
    return args.n * args.grid > N_CAP and f"--n {args.n} times --grid {args.grid} must be at most {N_CAP}"


def _spherical_size(args):
    # n C(n + d, n)^2 >= (d + 1)^2 bounds d first, keeping the binomial small; n < 1, d < 0 are ball_space's
    n, d = args.n, args.degree
    too_big = d > math.isqrt(_SPHERICAL_CAP) or n >= 1 and d >= 0 and n * math.comb(n + d, n) ** 2 > _SPHERICAL_CAP
    return too_big and f"--n {n} with --degree {d}: probe spherical takes n * C(n + degree, n)^2 at most 2^23"


def _truncation_above_degree(args):
    return args.truncation <= args.degree and f"--truncation must lie above --degree {args.degree}, got {args.truncation}"


def _normbound_size(args):
    work = _normbound_work(args.truncation, args.degree)
    return work > _NORMBOUND_WORK_CAP and (
        f"--truncation {args.truncation} with --degree {args.degree}: {work:.2g} operations, above {_NORMBOUND_WORK_CAP:.2g}")


# Every bound on the arguments, checked by ``_check_bounds`` in this order (a rule may rely on
# the rows above it), with the cost at its edge on a 2-vCPU VM, interpreter start-up included.
BOUNDS = (
    _Rule(("gbt",), _path_points, "a radial path needs two points; each point is one kernel vector"),
    _Range(("charspace", "shift spr", "shift powernorm", "shift powerbound"), "--weight-count", None, N_CAP,
           "the weights are one float array of this length"),
    _Range(("charspace",), "--allow-inconclusive", 0, None, "below 0, every scan would read as a failed verdict"),
    _Range(("charspace",), "--m-max", 0, _LOG2_N_CAP, "a level-m run needs 2^m + 2 of the at most 2^20 weights"),
    _Range(("charspace",), "--n-max-log2", _LOG2_N_MIN, _LOG2_N_CAP, "truncations above the weights are dropped; "
           "the schedule starts at 2^8, and an empty one would fall back to one truncation at --weight-count"),
    _Rule(("charspace",), _lambda_points, "X has 2 |lambda|^2 on its diagonal; each point keeps about 5 KB of "
          "evidence: simple:r=0.5 --weight-count 4096 mod=0:0:1,args=16384 took 1.2 s and 121 MB"),
    _Rule(("charspace",), _scan_work, "simple:r=0.5 mod=0:0.922:0.001,args=1 (923 moduli) took 8.7 s, 41 MB on one "
          "CPU and 5.6 s, 46 MB on two; --weight-count 2^20 --n-max-log2 20 --m-max 20 mod=0:0.6:0.1 8.0 s, 89 MB "
          "on one and 3.9 s, 151 MB on two (one solver thread per CPU)"),
    _Rule(("shift spr",), _kmax_weights, "the estimate reads 2^(kmax + 1) weights, compared by bit length"),
    _Range(("peaks annulus",), "--grid", 2, N_CAP, "the annulus reads --grid // 2 points per circle"),
    _Range(("peaks product",), "--grid", 1, N_CAP, "the sup is read on --grid points of the circle"),
    _Range(("peaks ball",), "--grid-s", 1, None, "the ball grid needs a point"),
    _Range(("peaks ball",), "--grid-phi", 1, None, "the ball grid needs a point"),
    _Rule(("peaks ball",), _ball_points, "the ball grid has --grid-s times --grid-phi squared points"),
    _Rule(("peaks annulus",), _annulus_size, "annulus_peak masks the --grid // 2 outer points once for each of "
          "the n + 1 maximizers: --R 2 --r 1 --n 2^19 --grid 2 took 3.6 s"),
    _Range(("probe closed-range", "probe fredholm"), "--n-schedule", None, 2 ** 11, "each N solves a Gram of "
           "half-width min(p, N - 1), p the series degree, in blocks of N terms: closed-range --space bergman "
           "--blaschke 0.99 (p = 4095) --n-schedule 256 512 1024 2048 took 6.2 s and 467 MB; on hardy, every N "
           "from 2 to 2048 took 1.9 s (closed-range --phi 0,1) and 7.2 s (fredholm), 45 MB each"),
    _Range(("probe spherical",), "--n", None, 2 ** 8, "the monomials number C(n + degree, n)"),
    _Rule(("probe spherical",), _spherical_size, "it reads two diagonals over the monomials: --n 1 --degree 2895 "
          "took 0.34 s and --n 2 --degree 62 0.31 s, each 35 MB"),
    _Range(("probe wot",), "--block", 1, _TRUNCATION_CAP, "the deviations read O(block^2) norm ratios, 0.5 s here"),
    _Range(("probe normbound",), "--families", 1, _TRUNCATION_CAP, "each family is one band solve"),
    _Range(("probe normbound",), "--truncation", None, _TRUNCATION_CAP, "the band solve takes O(N^2 q) time"),
    _Rule(("probe normbound",), _truncation_above_degree, "the symbols have degree --degree"),
    _Rule(("probe normbound",), _normbound_size, "one family at --truncation 2^14 --degree 5 took 34 s and 99 MB, and "
          "at --truncation 1100 --degree 1099 140 s and 203 MB"),
)


def _check_bounds(args, command: str) -> None:
    """Raise ``ValueError`` at the first row of ``BOUNDS`` for ``command`` that ``args`` break."""
    for row in BOUNDS:
        error = command in row.words and row.check(args)
        if error:
            raise ValueError(error)


def _json_doc(command: str, body: dict) -> str:
    return to_json({"command": command, "spec_version": SPEC_VERSION, **body})


# ---------------------------------------------------------------------------
# subcommands


def cmd_gbt(args):
    if args.svg and not args.out:
        raise ValueError("--svg requires --out (the plot is built from the CSV)")
    space = space_by_name(args.space)
    node = parse_operator_expr(args.op)
    bound = exprs.norm_bound(node)
    if not math.isfinite(4.0 * bound):
        raise ValueError(f"--op {args.op!r} overflows: 4 times its norm bound {bound:.3g} (the tail factor) is not finite")
    kind, value, r_max = _parse_path(args)
    if kind == "grid":
        points, path = bz.disk_grid(value, r_max), {"kind": "grid", "n": value, "r_max": r_max}
    else:
        points = bz.radial_path(value, r_max, args.samples)
        path = {"kind": "radial", "theta": value, "r_max": r_max, "count": args.samples}
    profile = bz.gbt_profile(space, node, points, path, op_label=args.op, tol=args.tail_tol)
    # contractivity audit: |value| <= coarse norm bound + tail
    passed = all(abs(s.value) <= bound + s.tail + 1e-9 for s in profile.samples)
    if not args.out:
        return bz.profile_report(profile), passed
    bz.profile_to_csv(profile, args.out)
    if args.svg:
        profile_csv_to_svg(args.out, args.svg, title=args.op)
    return None, passed


def cmd_charspace(args):
    lo, _, step, count, angles = _parse_lambda_grid(args.lambda_grid)
    w = generate_weights(args.weights, args.weight_count)
    ccfg = CharacterConfig(m_max=args.m_max, scan_len=w.n, n_schedule=_n_schedule(args), trend=args.trend)
    verdicts = character_set_scan(w, _moduli(lo, step, count), n_angles=angles, config=ccfg)
    inconclusive = sum(1 for v in verdicts if v.verdict == "inconclusive")
    return {"verdicts": [verdict_to_dict(v) for v in verdicts]}, inconclusive <= args.allow_inconclusive


def cmd_peaks(args):
    if args.domain == "annulus":
        try:
            cand = annulus_peak(
                args.R, args.r, _complex_arg(args.alpha) if args.alpha else args.R,
                n=args.n, lam_abs=args.lam, grid_n=args.grid,
            )
        except (OverflowError, ZeroDivisionError):  # r^-n overflows, or it and R^-n underflow to 0
            raise ValueError(
                f"--r {args.r:g} and --R {args.R:g} with --n {args.n}: r^-n - R^-n leaves the float range"
            ) from None
        return peak_report(cand), cand.certified or args.lam == 0.0
    if args.domain == "ball":
        cand = ball_peak(_coeff_list(args.h), grid=(args.grid_s, args.grid_phi))
        return peak_report(cand), cand.certified
    rep = product_peak_check(_coeff_list(args.phi), _coeff_list(args.psi), grid_n=args.grid)
    return rep, rep["passed"]


def cmd_shift(args):
    w = generate_weights(args.weights, args.weight_count)
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
        rep = spherical_contraction_check(ball_space(args.n, args.degree, args.ball_kind))
        return rep, rep["passed"]
    if args.kind == "wot":
        if args.geometric is None and not args.phi:
            raise ValueError("wot probe needs --phi or --geometric")
        if args.geometric is None:
            coeffs = _coeff_list(args.phi)
        else:
            try:
                coeffs = [args.geometric ** j for j in range(args.block)]
            except OverflowError:
                raise ValueError(
                    f"--geometric {args.geometric:g} with --block {args.block}: its powers overflow a float"
                ) from None
        rep = wot_dilation_probe(space, coeffs, [float(t) for t in args.t.split(",")], block=args.block)
        return rep, rep["non_increasing"]
    # normbound
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


def _keep_freed_heap() -> None:
    """Keep freed memory in the process, so the next sample reuses its
    pages instead of faulting them back in: arrays up to 32 MiB come from
    the heap, and its top is returned to the kernel past 64 MiB.  Setting
    either threshold turns off glibc's dynamic ones, hence both or neither.
    Without glibc's ``mallopt``, or where it refuses, nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD (-3): 32 MiB is the largest every 64-bit glibc
    # accepts, above a complex N_CAP frame (16 MiB); then M_TRIM_THRESHOLD (-1)
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


def main(argv=None) -> int:
    """Run one subcommand.  Its handler returns (body, passed); this is the
    one place that wraps the body in the envelope, writes it (to ``--out``
    or standard output; ``gbt --out`` has written its CSV and returns no
    body) and turns ``passed`` into the exit code."""
    _keep_freed_heap()
    lapack.one_blas_thread()
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
        command = " ".join([args.command, *(getattr(args, k) for k in ("domain", "what", "kind") if k in args)])
        _check_bounds(args, command)
        body, passed = args.func(args)
        if body is not None:
            write_text(args.out, _json_doc(command, body))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
