"""Argument-grammar fuzz of the exit-code contract.

Every argv drawn here must end in exit 0 (pass), 1 (verdict failed) or 2
(usage or parameter error), with no traceback, and any JSON it writes must
be strict (no NaN or infinity).  A document from an exit 0 or 1 carries
the ``{command, spec_version}`` envelope, and exit 0 holds exactly when
the form's verdict, read back from the document, holds.  The draws mix
valid values with 0, -1, nan, inf, empty strings and points outside the
disk, and two pinned argvs reach the float powers that overflow.  Every
size (weight counts, samples, truncations, grid steps, Blaschke moduli)
is bounded so that no example allocates more than a few MB.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from berezin_lab import exprs
from berezin_lab.cli import SPEC_VERSION, main
from oracles import reject_constant

BAD = ["0", "-1", "nan", "inf", ""]
SPACES = ["hardy", "bergman", "rs(3)", "mu", "custom:{h}"]
BAD_SPACES = ["rs(0.5)", "rs(nan)", "nope", "", "custom:{p}"]
WEIGHTS = ["constant:c=1", "simple:r=0.5", "sigma:squares", "space:bergman", "cluster:file={p}",
           "explicit:file={a}"]
BAD_WEIGHTS = ["constant:c=nan", "constant:c=0", "simple:r=inf", "space:rs(nan)", "cluster:file=",
               "explicit:file={h}", "nope", ""]
COEFFS = ["0,1", "0,0.5", "0.5,0.5", "0.3"]
BAD_COEFFS = ["2", "0,1,1", *BAD]
SCHEDULES = [["32", "64", "128"], ["16", "32"], ["2", "16"]]
BAD_SCHEDULES = [["64", "32"], ["0"], ["-1"], ["1"], ["2.5"]]


def mix(valid, bad):
    """One draw in six from ``bad``, so that about half the argvs are
    fully valid and reach a verdict."""
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(valid if i else bad))


def arg(flag, valid, bad):
    """``[flag, value]``; a list value fills an nargs option."""
    return mix(valid, bad).map(lambda v: [flag, *v] if isinstance(v, list) else [flag, v])


def opt(flag, valid, bad):
    """``arg``, or nothing (the default)."""
    return st.one_of(st.just([]), arg(flag, valid, bad))


def cmd(*words, parts=()):
    return st.tuples(*parts).map(lambda ps: [*words, *(w for p in ps for w in p)])


def symbol(options, valid, bad):
    """One of the alternative symbol options, or none of them."""
    return st.one_of(st.just([]), *(arg(flag, valid, bad) for flag in options))


SIZES = ["4", "8", "16"]
BAD_SIZES = ["1", *BAD]

FORMS = {
    "gbt": cmd("gbt", parts=(
        arg("--space", SPACES, BAD_SPACES),
        arg("--op", ["Mz", "Mz^*", "[Mz^*, Mz]", "M(0,0.5)", "Mz Mz^* + 0.5*M(0,0,1)"],
            ["0.5*M(1,nan)", "M(inf)", "1e308*M(1e308)", "Mz +", ""]),
        opt("--path", ["radial:theta=0", "radial:theta=1.5", "grid:n=3"],
            ["radial:theta=nan", "grid:n=0", "grid:n=-1", "grid:n=", "nope", ""]),
        arg("--rmax", ["0.5", "0.9", "0.99"], ["1", "1.5", *BAD]),
        arg("--samples", ["2", "3"], ["1", "0", "-1"]),
    )),
    "charspace": cmd("charspace", parts=(
        arg("--weights", WEIGHTS, BAD_WEIGHTS),
        arg("--weight-count", ["64", "256"], ["2", "1", "0", "-1", "1024"]),
        st.tuples(
            mix(["0", "0.5", "1"], ["-1", "nan", "inf", "1e308", ""]),
            mix(["0.5", "1", "1.5"], ["-1", "nan", "inf", "1e308", ""]),
            mix(["0.5", "0.25"], ["0", "-1", "nan", "inf", "1e-300", ""]),
            mix(["", ",args=1", ",args=3"], [",args=0", ",args=-1", ",args=", ",nope=1"]),
        ).map(lambda t: ["--lambda-grid", f"mod={t[0]}:{t[1]}:{t[2]}{t[3]}"]),
        opt("--m-max", ["2", "6"], ["0", "-1"]),
        arg("--n-max-log2", ["8", "9"], ["7", "0", "-1"]),
        opt("--allow-inconclusive", ["0", "5"], ["-1"]),
    )),
    "peaks annulus": cmd("peaks", "annulus", parts=(
        arg("--R", ["2", "1.5"], ["1", *BAD]),
        arg("--r", ["1", "0.5"], ["2", *BAD]),
        opt("--n", ["1", "2", "1100"], ["0", "-1"]),  # 0.5 ** -1100 overflows a float
        opt("--alpha", ["2", "-2", "2i"], ["1.5", "0", "nan", ""]),
        opt("--lam", ["0.1", "0"], ["-1", "nan", "inf"]),
        arg("--grid", ["64", "200"], ["1", "0", "-1"]),
    )),
    "peaks ball": cmd("peaks", "ball", parts=(
        opt("--h", COEFFS, BAD_COEFFS),
        arg("--grid-s", SIZES, BAD_SIZES),
        arg("--grid-phi", SIZES, BAD_SIZES),
    )),
    "peaks product": cmd("peaks", "product", parts=(
        arg("--phi", COEFFS, BAD_COEFFS),
        arg("--psi", COEFFS, BAD_COEFFS),
        arg("--grid", ["16", "64"], BAD_SIZES),
    )),
    "shift spr": cmd("shift", "spr", parts=(
        arg("--weights", WEIGHTS, BAD_WEIGHTS),
        arg("--weight-count", ["64", "256"], BAD_SIZES),
        arg("--kmax", ["2", "4", "6"], ["0", "-1", "12"]),
    )),
    "shift powernorm": cmd("shift", "powernorm", parts=(
        arg("--weights", WEIGHTS, BAD_WEIGHTS),
        arg("--weight-count", ["64", "256"], BAD_SIZES),
        arg("--m", [["1"], ["4", "16"], ["64"]], [["1024"], ["0"], ["-1"]]),
    )),
    "shift powerbound": cmd("shift", "powerbound", parts=(
        # the check applies to the simple generator at the drawn r only
        arg("--weights", ["simple:r=0.5", "simple"], WEIGHTS),
        arg("--weight-count", ["64", "256"], BAD_SIZES),
        arg("--r", ["0.5"], ["0.25", "1", "2", *BAD[:4]]),
        arg("--mmax", ["16", "64"], BAD_SIZES),
    )),
    "probe commutator": cmd("probe", "commutator", parts=(
        arg("--space", SPACES, BAD_SPACES),
        arg("--phi", COEFFS, BAD_COEFFS),
        arg("--z", ["0", "0.5", "0.9", "0.5i", "0;0.5"], ["1", "1.5", "nan", "inf", ""]),
    )),
    "probe closed-range": cmd("probe", "closed-range", parts=(
        arg("--space", SPACES, BAD_SPACES),
        symbol(["--phi", "--blaschke"], [*COEFFS, "0.5,-0.3", "0.3i"], ["1", "1.5", *BAD_COEFFS]),
        arg("--n-schedule", SCHEDULES, BAD_SCHEDULES),
    )),
    "probe fredholm": cmd("probe", "fredholm", parts=(
        arg("--space", SPACES, BAD_SPACES),
        opt("--z0", ["0.4", "0.9", "0.5i"], ["1", "1.5", *BAD]),
        arg("--n-schedule", SCHEDULES, BAD_SCHEDULES),
    )),
    "probe spherical": cmd("probe", "spherical", parts=(
        arg("--n", ["1", "2", "3"], ["0", "-1"]),
        arg("--degree", ["2", "4"], ["0", "-1"]),
        opt("--ball-kind", ["drury_arveson", "hardy_ball"], ["nope", ""]),
    )),
    "probe wot": cmd("probe", "wot", parts=(
        arg("--space", SPACES, BAD_SPACES),
        symbol(["--phi", "--geometric"], ["0.9", "0.5", "1e300"], ["2", *BAD]),  # 1e300 ** 2 overflows
        opt("--t-schedule", ["0.9,0.99", "0.5"], ["1,0.5", "-1", "2", "nan", ""]),
        arg("--block", SIZES, BAD_SIZES),
    )),
    "probe normbound": cmd("probe", "normbound", parts=(
        arg("--space", SPACES, BAD_SPACES),
        arg("--families", ["1", "2"], ["0", "-1"]),
        arg("--degree", ["1", "3"], ["0", "-1"]),
        # 4 lies below 2 * degree + 1, where the band of A^H A is full
        arg("--truncation", ["4", "16", "64"], ["2", *BAD_SIZES]),
        opt("--tol", ["0.01", "0"], ["-1", "nan", "inf"]),
        opt("--seed", ["0", "1"], ["-1"]),
    )),
}



def _flag(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _contractive(doc):
    """gbt's audit: |value| <= the tree's coarse norm bound + tail + 1e-9."""
    bound = exprs.norm_bound(exprs.parse(doc["op"]))
    return all(abs(complex(s["value"]["re"], s["value"]["im"])) <= bound + s["tail"] + 1e-9
               for s in doc["samples"])


# each form's verdict, read back from its JSON document and its argv
VERDICTS = {
    "gbt": lambda doc, argv: _contractive(doc),
    "charspace": lambda doc, argv: sum(v["verdict"] == "inconclusive" for v in doc["verdicts"])
    <= int(_flag(argv, "--allow-inconclusive", "0")),
    "peaks annulus": lambda doc, argv: doc["certified"] or float(_flag(argv, "--lam", "nan")) == 0.0,
    "peaks ball": lambda doc, argv: doc["certified"],
    "peaks product": lambda doc, argv: doc["passed"],
    "shift spr": lambda doc, argv: not doc["sandwich_checked"] or doc["sandwich_ok"],
    "shift powernorm": lambda doc, argv: True,
    "shift powerbound": lambda doc, argv: doc["all_dyadic_ok"],
    "probe commutator": lambda doc, argv: doc["passed"],
    "probe closed-range": lambda doc, argv: doc["classification"] != "inconclusive",
    "probe fredholm": lambda doc, argv: doc["passed"],
    "probe spherical": lambda doc, argv: doc["passed"],
    "probe wot": lambda doc, argv: doc["non_increasing"],
    "probe normbound": lambda doc, argv: doc["passed"],
}

GLOBAL = st.tuples(
    opt("--tail-tol", ["1e-6", "1e-12"], ["0", "-1", "nan", "inf"]),
    opt("--trend-vanish", ["0.5"], ["0", "-1", "nan"]),
    opt("--trend-floor", ["1e-3"], ["-1", "nan"]),
).map(lambda ps: [w for p in ps for w in p])


def _input_tables(tmp_path) -> dict:
    files = {"h": tmp_path / "h.csv", "p": tmp_path / "p.csv", "a": tmp_path / "a.csv"}
    files["h"].write_text("k,h\n" + "".join(f"{k},1.0\n" for k in range(64)))
    files["p"].write_text("p\n1.0\n0.5\n")
    files["a"].write_text("n,a\n" + "".join(f"{k},0.5\n" for k in range(256)))
    return {key: str(path) for key, path in files.items()}


def _check_contract(tmp_path, form, head, body):
    """Run ``head + body`` and check the exit-code contract on it."""
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    # gbt writes its JSON report to stdout; the others write to --out
    argv = [*head, *body] if form == "gbt" else [*head, *body, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            np.errstate(all="ignore"):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv
    if code == 2:
        return code
    # exit 0 or 1: main wrapped the body in the envelope, and the exit code
    # is the form's verdict on that document
    text = out.read_text() if out.exists() else stdout.getvalue()
    doc = json.loads(text, parse_constant=reject_constant)
    assert isinstance(doc, dict), argv
    assert doc["command"] == form and doc["spec_version"] == SPEC_VERSION, argv
    assert (code == 0) == VERDICTS[form](doc, body), argv
    return code


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(
    derandomize=True,
    database=None,
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_exit_code_contract_holds_for_drawn_argvs(tmp_path, form, data):
    tables = _input_tables(tmp_path)
    head = data.draw(GLOBAL, label="global")
    body = [w.format(**tables) for w in data.draw(FORMS[form], label="argv")]
    _check_contract(tmp_path, form, head, body)


# draws that every run makes, whatever the strategies draw: float powers
# that overflow, which Python raises as OverflowError
PINNED = [
    ("probe wot", ["probe", "wot", "--space", "hardy", "--geometric", "1e300", "--block", "4"]),
    ("peaks annulus", ["peaks", "annulus", "--R", "2", "--r", "0.5", "--n", "1100", "--grid", "200"]),
]


@pytest.mark.parametrize("form,body", PINNED, ids=[" ".join(body[:2]) for _, body in PINNED])
def test_exit_code_contract_holds_for_pinned_argvs(tmp_path, form, body):
    assert _check_contract(tmp_path, form, [], body) == 2
