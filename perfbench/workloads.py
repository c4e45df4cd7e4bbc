"""Seeded workloads: CLI invocations, their input files and their oracles.

Each workload is a closed loop: one client runs its invocations one after
another, and the program's own sampling pool, at its default size, is the
only concurrency.  Every input is drawn from the seed; the program sees
only the generated argv and files.  No invocation passes ``--threads`` or
``--dispersion``, so the benchmark measures the pool as users get it.

Oracles take their tolerances from the README: symbol fidelity at 1e-8,
the commutator bound ``sqrt(1 - |phi(z)|^2) + 1e-6``, character sets that
match the prescribed cluster set exactly, and a passed verdict (exit 0)
everywhere else.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("transform", "charscan", "probes")

FIDELITY_TOL = 1e-8
COMMUTATOR_SLACK = 1e-6


@dataclass(frozen=True)
class Invocation:
    """One ``berezin_lab.cli.main(argv)`` call and how to judge its output.

    Paths in ``argv`` are relative to the work directory, so the argv (and
    the output bytes) do not depend on where the checkout lives.  Seeded
    values go in ``--opt=value`` form because they may start with '-'.
    """

    label: str
    argv: tuple
    out: str
    expect: int = 0
    oracle: str = "field"
    params: dict = field(default_factory=dict)


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's seeded inputs under ``workdir`` and return its
    invocation list.  The same seed always gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# seeded values


def _fmt(c: complex) -> str:
    """Complex literal in the CLI grammar, rounded to 4 decimals."""
    return f"{c.real:.4f}{c.imag:+.4f}i"


def _parse(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _poly(rng, degree: int, sup: float | None = None) -> list:
    """Random complex coefficients with decaying size; with ``sup`` they are
    scaled so the circle sup-norm stays at or below it.  The 8192-point
    grid contains the program's 4096-point precondition grid, so the
    precondition holds too.  Returned as the exact literals the CLI reads."""
    j = np.arange(degree + 1)
    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) / (1.0 + j)
    if sup is not None:
        circle = np.exp(2j * np.pi * np.arange(8192) / 8192)
        c = c * (sup / np.max(np.abs(np.polyval(c[::-1], circle))))
        c = np.trunc(c.real * 1e4) / 1e4 + 1j * np.trunc(c.imag * 1e4) / 1e4
    return [_fmt(complex(x)) for x in c]


def _angle(rng) -> float:
    return round(float(rng.uniform(0.0, 2.0 * np.pi)), 6)


def _exact_point(r: float, theta: float) -> str:
    """A point given with full float precision (the annulus peak point must
    lie on its circle to 1e-9)."""
    z = r * complex(math.cos(theta), math.sin(theta))
    return f"{z.real:.17g}{z.imag:+.17g}i"


# ---------------------------------------------------------------------------
# transform: gbt radial profiles toward r = 0.999 / 0.9999 on every built-in
# space, raise degrees 0-3.  Almost all of its time is spaces.kernel_vector
# (h-table rebuilds, N up to 2^18, past the L2 cache) plus exprs.apply; this
# is where a table cache, a batched apply or removing the pool act, and
# tridiag does no work here.

SPACES = ("hardy", "bergman", "rs(3)", "mu")
TRANSFORM_SAMPLES = 30


def _transform(rng, workdir: Path) -> list:
    invs = []

    def gbt(label, space, op, path, extra, rows, oracle="profile", **params):
        out = f"out/{label}.csv"
        argv = ("gbt", "--space", space, "--op", op, "--path", path, *extra, "--out", out)
        invs.append(Invocation(label, argv, out, oracle=oracle, params={"rows": rows, **params}))

    def radial(label, space, op, rmax, **oracle):
        gbt(label, space, op, f"radial:theta={_angle(rng)}",
            ("--rmax", rmax, "--samples", str(TRANSFORM_SAMPLES)), TRANSFORM_SAMPLES, **oracle)

    for space in SPACES:
        tag = space.replace("(", "").replace(")", "")
        c2 = _poly(rng, 2)
        c3 = _poly(rng, 3)
        m2 = "M(" + ",".join(c2) + ")"
        m3 = "M(" + ",".join(c3) + ")"
        # raise degree 0: the adjoint symbol, conj(phi(z))
        radial(f"gbt-{tag}-adj", space, m2 + "^*", "0.999", oracle="fidelity", coeffs=c2, conj=True)
        radial(f"gbt-{tag}-mzmz", space, "Mz^* Mz", "0.9999")
        radial(f"gbt-{tag}-comm", space, "[Mz^*, Mz] Mz", "0.9999")
        radial(f"gbt-{tag}-toeplitz", space, m2 + "^* " + m3, "0.999")
        # raise degree 3: the symbol itself, phi(z)
        radial(f"gbt-{tag}-symbol", space, m3, "0.9999", oracle="fidelity", coeffs=c3, conj=False)

    c3 = _poly(rng, 3)
    gbt("gbt-bergman-grid", "bergman", "M(" + ",".join(c3) + ")", "grid:n=150", (), None,
        oracle="fidelity", coeffs=c3, conj=False)

    for space in ("hardy", "bergman"):
        phi = _poly(rng, 2, sup=0.95)
        theta = _angle(rng)
        zs = [_exact_point(r, theta) for r in (0.0, 0.5, 0.9, 0.99, 0.999)]
        out = f"out/commutator-{space}.json"
        invs.append(Invocation(
            f"commutator-{space}",
            ("probe", "commutator", "--space", space, "--phi=" + ",".join(phi), "--z=" + ";".join(zs),
             "--out", out),
            out, oracle="commutator", params={"phi": phi, "points": zs},
        ))
    return invs


# ---------------------------------------------------------------------------
# charscan: charspace on one weight model per evidence channel.  At least 97%
# of its time is tridiag.lambda_min_batch, and 7/8 of the lambdas of the
# simple scan repeat a modulus (what a per-|lambda| deduplication exploits);
# spaces and exprs do no work here.
#   simple:r=0.5, default grid, args=8   gap channel, empty character set
#   seeded cluster:file= point set        run channel, members = the set
#   constant:c=1, N up to 2^14            members exactly at |lambda| = 1

CLUSTER_GRID = [round(0.1 * k, 1) for k in range(1, 11)]


def _charscan(rng, workdir: Path) -> list:
    points = sorted(float(p) for p in rng.choice(CLUSTER_GRID, size=3, replace=False))
    with open(workdir / "inputs" / "cluster.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["p"])
        writer.writerows([[repr(p)] for p in points])

    def scan(label, weights, grid, members, *extra):
        out = f"out/{label}.json"
        argv = ("charspace", "--weights", weights, "--lambda-grid", grid, *extra, "--out", out)
        return Invocation(label, argv, out, oracle="members", params={"members": members})

    return [
        scan("charspace-simple", "simple:r=0.5", "mod=0:1:0.05,args=8", []),
        scan("charspace-cluster", "cluster:file=inputs/cluster.csv", "mod=0:1:0.1,args=1", points),
        scan("charspace-constant", "constant:c=1", "mod=0.5:1:0.5,args=1", [1.0], "--n-max-log2", "14"),
    ]


# ---------------------------------------------------------------------------
# probes: the same layers used differently.  Dense multipliers
# (exprs.materialize, operators.tall_mult_matrix) and LAPACK instead of
# matrix-free apply, kernel_vector/apply at many interior points with small
# N, the shifts window loops, and one args=1 charspace that repeats no
# modulus (a deduplication-only gain predicts no change here).


def _probes(rng, workdir: Path) -> list:
    invs = []

    def add(label, argv, oracle="field", **params):
        out = f"out/{label}.json"
        invs.append(Invocation(label, (*argv, "--out", out), out, oracle=oracle, params=params))

    # only the argument of the zero is seeded: the coefficient moduli, and
    # with them the cost (small ones run into subnormal arithmetic), depend
    # on |a| alone
    blaschke = _fmt(complex(0.5 * np.exp(1j * _angle(rng))))
    add("closed-range", ("probe", "closed-range", "--space", "bergman", "--blaschke=" + blaschke),
        key="classification", value="bounded_below")
    add("fredholm", ("probe", "fredholm", "--space", "bergman"),
        key="passed", value=True)
    add("normbound", ("probe", "normbound", "--space", "hardy", "--families", "20",
                      "--seed", str(int(rng.integers(0, 2 ** 31)))),
        key="passed", value=True)
    add("spherical", ("probe", "spherical", "--n", "2", "--degree", "10"),
        key="passed", value=True)
    add("wot", ("probe", "wot", "--space", "hardy", "--geometric", "0.9"),
        key="non_increasing", value=True)
    add("powerbound", ("shift", "powerbound", "--weights", "simple:r=0.5", "--weight-count", "16384",
                       "--r", "0.5", "--mmax", "8192"),
        key="all_dyadic_ok", value=True)
    add("spr", ("shift", "spr", "--weights", "simple:r=0.5", "--kmax", "10"),
        key="sandwich_ok", value=True)
    add("annulus", ("peaks", "annulus", "--R", "2", "--r", "1", "--n", "2",
                    "--alpha=" + _exact_point(2.0, _angle(rng))),
        key="certified", value=True)
    add("ball", ("peaks", "ball", "--h=" + ",".join(_poly(rng, 2, sup=0.95))),
        key="certified", value=True)
    add("product", ("peaks", "product", "--phi=" + ",".join(_poly(rng, 2)), "--psi=" + ",".join(_poly(rng, 3))),
        key="passed", value=True)
    add("charspace-args1", ("charspace", "--weights", "simple:r=0.5", "--lambda-grid", "mod=0:1:0.05,args=1"),
        oracle="members", members=[])
    return invs


_BUILDERS = {"transform": _transform, "charscan": _charscan, "probes": _probes}


# ---------------------------------------------------------------------------
# oracles


def check(inv: Invocation, code, workdir: Path) -> str | None:
    """None when the invocation met its expectations, else the reason."""
    if code != inv.expect:
        return f"exit code {code}, expected {inv.expect}"
    path = workdir / inv.out
    if not path.is_file():
        return f"no output at {inv.out}"
    return _ORACLES[inv.oracle](path, **inv.params)


def _profile_rows(path) -> list:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        return [row for row in reader if row]


def _profile(path, rows=None, **_):
    got = _profile_rows(path)
    if rows is not None and len(got) != rows:
        return f"{len(got)} profile rows, expected {rows}"
    for row in got:
        if not all(math.isfinite(float(x)) for x in row):
            return f"non-finite profile row {row}"
    return None


def _fidelity(path, coeffs, conj, rows=None, **_):
    err = _profile(path, rows)
    if err:
        return err
    c = np.array([_parse(x) for x in coeffs])
    worst = 0.0
    for row in _profile_rows(path):
        z = complex(float(row[0]), float(row[1]))
        value = complex(float(row[2]), float(row[3]))
        want = np.polyval(c[::-1], z)
        worst = max(worst, abs(value - (np.conj(want) if conj else want)))
    if worst > FIDELITY_TOL:
        return f"symbol fidelity {worst:.3g} > {FIDELITY_TOL:g}"
    return None


def _commutator(path, phi, points, **_):
    """||[P_z, M_phi]|| <= sqrt(1 - |phi(z)|^2) + 1e-6, the bound recomputed
    here from the generated symbol and points."""
    c = np.array([_parse(x) for x in phi])
    rows = json.loads(path.read_text())["rows"]
    if len(rows) != len(points):
        return f"{len(rows)} commutator rows, expected {len(points)}"
    for row, z in zip(rows, points):
        bound = math.sqrt(max(0.0, 1.0 - abs(np.polyval(c[::-1], _parse(z))) ** 2))
        if not row["value"] <= bound + COMMUTATOR_SLACK:
            return f"commutator {row['value']} above bound {bound} at z = {z}"
    return None


def _field(path, key, value, **_):
    got = json.loads(path.read_text()).get(key)
    return None if got == value else f"{key} = {got!r}, expected {value!r}"


def _members(path, members, **_):
    verdicts = json.loads(path.read_text())["verdicts"]
    want = {round(float(m), 9) for m in members}
    got = set()
    for v in verdicts:
        mod = round(abs(complex(v["lambda"]["re"], v["lambda"]["im"])), 9)
        if v["verdict"] == "member":
            got.add(mod)
        elif v["verdict"] != "non_member":
            return f"verdict {v['verdict']!r} at |lambda| = {mod}"
    return None if got == want else f"members {sorted(got)}, expected {sorted(want)}"


_ORACLES = {
    "profile": _profile,
    "fidelity": _fidelity,
    "commutator": _commutator,
    "field": _field,
    "members": _members,
}
