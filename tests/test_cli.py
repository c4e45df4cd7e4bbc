"""CLI subcommands: artifacts, determinism, exit codes."""

import ast
import ctypes
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import berezin_lab
from berezin_lab import cli
from berezin_lab.cli import main, parse_operator_expr
from berezin_lab.exprs import Commutator, MPoly, MPolyAdj, Mz, MzAdj, Product, Scale, Sum
from berezin_lab.shifts import generate_weights, spectral_radius_estimate
from blas_threads import fresh_python, openblas_libraries
from oracles import reject_constant


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# operator expression entry point


def test_parse_entry_point():
    assert parse_operator_expr("Mz") == Mz()
    node = parse_operator_expr("[M(0,1)^*, M(0,1)]")
    assert node == Commutator(MPolyAdj((0j, 1 + 0j)), MPoly((0j, 1 + 0j)))
    node = parse_operator_expr("Mz Mz^* + 2*Mz")
    assert node == Sum(((1, Product((Mz(), MzAdj()))), (1, Scale(2 + 0j, Mz()))))


# ---------------------------------------------------------------------------
# gbt


def test_gbt_csv_output(tmp_path):
    out = tmp_path / "p.csv"
    code = run(
        [
            "gbt", "--space", "bergman", "--op", "Mz^* Mz",
            "--path", "radial:theta=0", "--rmax", "0.999", "--samples", "50",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,re_val,im_val,trunc_N,tail"
    assert len(lines) == 51


def test_gbt_deterministic_and_svg(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    argv = ["gbt", "--space", "hardy", "--op", "[Mz^*, Mz]", "--rmax", "0.99", "--samples", "12"]
    assert run(argv + ["--out", str(out1), "--svg", str(svg1)]) == 0
    assert run(argv + ["--out", str(out2), "--svg", str(svg2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>")


def test_gbt_svg_without_out_exits_2_before_any_output(tmp_path, capsys):
    svg = tmp_path / "x.svg"
    argv = ["gbt", "--space", "hardy", "--op", "Mz", "--samples", "3", "--svg", str(svg)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--svg requires --out" in captured.err
    assert not svg.exists()


def test_gbt_json_to_stdout(capsys):
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--rmax", "0.9", "--samples", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec_version"] == "1"
    assert len(doc["samples"]) == 8


def test_gbt_rmax_at_or_below_half_runs_from_half_of_it(capsys):
    # the radial path starts at r = 0.5, or at r_max / 2 when r_max <= 0.5
    argv = ["gbt", "--space", "hardy", "--op", "Mz", "--samples", "3"]
    assert run([*argv, "--rmax", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    radii = [abs(complex(s["z"]["re"], s["z"]["im"])) for s in doc["samples"]]
    assert radii[0] == pytest.approx(0.25, abs=1e-15)
    assert radii[-1] == pytest.approx(0.5, abs=1e-15)
    # an empty or one-point path is a usage error that names the option
    for option, value in (("--rmax", "0"), ("--samples", "1")):
        assert run([*argv, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err


def test_gbt_rejects_an_overflowing_expression_before_sampling(tmp_path, capsys):
    # the tail is 4 norm_bound(X) times the kernel tail: where that factor
    # is not finite the expression is a usage error, with no numpy warning
    # and no output file
    out = tmp_path / "f.csv"
    for op in ("1e200*M(1e200)", "1e308*Mz^* Mz"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gbt", "--space", "hardy", "--op", op, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --op") and "not finite" in lines[0], lines
        assert not out.exists()
    # the largest factor that stays finite still runs
    assert run(["gbt", "--space", "hardy", "--op", "1e307*Mz^* Mz", "--samples", "3", "--rmax", "0.9"]) == 0


def test_gbt_grid_path_and_custom_space(tmp_path, capsys):
    table = tmp_path / "h.csv"
    rows = ["k,h"] + [f"{k},{1.0 / (k + 1)}" for k in range(400)]
    table.write_text("\n".join(rows) + "\n")
    code = run(
        ["gbt", "--space", f"custom:{table}", "--op", "Mz^* Mz", "--path", "grid:n=15",
         "--rmax", "0.9", "--samples", "15"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["path"] == {"kind": "grid", "n": 15, "r_max": 0.9}
    assert len(doc["samples"]) >= 10
    # the outer ring of the grid lies at --rmax
    assert max(abs(complex(s["z"]["re"], s["z"]["im"])) for s in doc["samples"]) == pytest.approx(0.9)


def test_gbt_grid_path_reads_rmax(capsys):
    argv = ["gbt", "--space", "hardy", "--op", "Mz", "--path", "grid:n=7"]
    assert run([*argv, "--rmax", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["path"]["r_max"] == 0.3
    assert all(abs(complex(s["z"]["re"], s["z"]["im"])) <= 0.3 + 1e-15 for s in doc["samples"])
    # without --rmax a grid reaches 0.95, a radial path 0.999
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["path"]["r_max"] == 0.95
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--samples", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["path"]["r_max"] == 0.999
    for bad in ("1.5", "0", "nan"):
        assert run([*argv, "--rmax", bad]) == 2
        assert "--rmax" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# charspace


def test_charspace_verdicts(tmp_path):
    out = tmp_path / "v.json"
    code = run(
        [
            "charspace", "--weights", "constant:c=1", "--weight-count", "16384",
            "--lambda-grid", "mod=0:1:0.25,args=2", "--n-max-log2", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["verdicts"]) == 10
    by_mod = {}
    for v in doc["verdicts"]:
        mod = round(abs(complex(v["lambda"]["re"], v["lambda"]["im"])), 6)
        by_mod.setdefault(mod, set()).add(v["verdict"])
    assert by_mod[1.0] == {"member"}
    assert by_mod[0.5] == {"non_member"}


def test_charspace_rejects_a_negative_allow_inconclusive(tmp_path, capsys):
    # every verdict of this scan is conclusive, so -1 could only read as a
    # failed verdict; it is a parameter error
    scan = ["charspace", "--weights", "constant:c=1", "--weight-count", "1024",
            "--lambda-grid", "mod=0.5:1:0.5,args=1", "--n-max-log2", "9", "--out", str(tmp_path / "v.json")]
    assert run([*scan, "--allow-inconclusive", "0"]) == 0
    assert run([*scan, "--allow-inconclusive", "-1"]) == 2
    assert capsys.readouterr().err == "error: --allow-inconclusive must be at least 0, got -1\n"


def test_charspace_cluster_file(tmp_path):
    pts = tmp_path / "c.csv"
    pts.write_text("p\n1.0\n0.5\n")
    out = tmp_path / "v.json"
    code = run(
        [
            "charspace", "--weights", f"cluster:file={pts}", "--weight-count", "16384",
            "--lambda-grid", "mod=0.5:1:0.25,args=1", "--n-max-log2", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    verdicts = {
        round(abs(complex(v["lambda"]["re"], v["lambda"]["im"])), 3): v["verdict"]
        for v in doc["verdicts"]
    }
    assert verdicts[0.5] == "member"
    assert verdicts[0.75] == "non_member"
    assert verdicts[1.0] == "member"


# ---------------------------------------------------------------------------
# peaks


def test_peaks_annulus(tmp_path):
    out = tmp_path / "peak.json"
    code = run(["peaks", "annulus", "--R", "2", "--r", "1", "--n", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert doc["margin"] > 0


def test_float_powers_that_overflow_exit_2_naming_the_option(tmp_path, capsys):
    # a float ** that overflows raises OverflowError, and a float division
    # by 0 ZeroDivisionError; neither is a ValueError
    for argv in (
        ["probe", "wot", "--space", "hardy", "--geometric", "10", "--block", "400"],
        ["probe", "wot", "--space", "hardy", "--geometric", "1e300", "--block", "4"],
        # grids small enough for --n times --grid to stay under its cap
        ["peaks", "annulus", "--R", "2", "--r", "0.5", "--n", "1100", "--grid", "200"],
        ["peaks", "annulus", "--R", "1e200", "--r", "1e-200", "--n", "2"],
        # r^-n and R^-n both underflow to 0, and their difference divides
        ["peaks", "annulus", "--R", "3", "--r", "2", "--n", "2000", "--grid", "200"],
    ):
        assert run([*argv, "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err), err
    assert all("--geometric " in line and "overflow" in line for line in err[:2])
    assert all("--r " in line and "--n " in line and "float range" in line for line in err[2:])
    # the powers that do not overflow keep their bits
    assert run(["probe", "wot", "--space", "hardy", "--geometric", "1e300", "--block", "2",
                "--out", str(tmp_path / "w.json")]) in (0, 1)
    assert run(["peaks", "annulus", "--R", "2", "--r", "0.5", "--n", "1000", "--grid", "1000",
                "--out", str(tmp_path / "a.json")]) == 0


def test_peaks_ball_and_product(tmp_path):
    assert run(["peaks", "ball", "--h", "0,1", "--out", str(tmp_path / "b.json")]) == 0
    assert run(["peaks", "product", "--phi", "0,1", "--psi", "0.5,0.5", "--out", str(tmp_path / "p.json")]) == 0


# ---------------------------------------------------------------------------
# shift


def test_shift_spr(tmp_path):
    out = tmp_path / "s.json"
    code = run(["shift", "spr", "--weights", "simple:r=0.5", "--kmax", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sandwich_ok"] is True
    root = doc["root_estimates"]["1024"]
    assert abs(root - 0.5 ** (1 / 3)) < 0.01


def test_shift_spr_kmax_past_the_weights_names_the_option(tmp_path, capsys):
    # 2^(kmax + 1) weights are compared by bit length: a kmax far past the
    # 4096 default weights is a usage error about --kmax, not a failure to
    # print 2^(kmax + 1); kmax = 11 needs exactly the 4096 weights
    spr = ["shift", "spr", "--weights", "simple:r=0.5"]
    for kmax in ("12", "100000", str(10 ** 12)):
        assert run([*spr, "--kmax", kmax]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: --kmax ") and "--weight-count" in line for line in err), err
    assert run([*spr, "--kmax", "11", "--out", str(tmp_path / "s.json")]) == 0
    with pytest.raises(ValueError, match="2\\^100001 weights"):
        spectral_radius_estimate(generate_weights("simple:r=0.5", 100), 100000)


def test_shift_powernorm_and_powerbound(tmp_path):
    out = tmp_path / "n.json"
    assert run(["shift", "powernorm", "--weights", "constant:c=1", "--m", "1", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["norms"]["7"] == pytest.approx(1.0)
    out2 = tmp_path / "b.json"
    assert run(["shift", "powerbound", "--weights", "simple:r=0.5", "--r", "0.5", "--out", str(out2)]) == 0
    doc = json.loads(out2.read_text())
    assert doc["all_dyadic_ok"] is True


# ---------------------------------------------------------------------------
# probes


def test_probe_commutator(tmp_path):
    out = tmp_path / "c.json"
    code = run(
        ["probe", "commutator", "--space", "hardy", "--phi", "0,1", "--z", "0;0.9", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_probe_closed_range_blaschke(tmp_path):
    out = tmp_path / "cr.json"
    code = run(
        [
            "probe", "closed-range", "--space", "hardy", "--blaschke", "0.5",
            "--n-schedule", "64", "128", "256", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "bounded_below"


@pytest.mark.parametrize("argv, names", [
    (["peaks", "annulus", "--R", "2", "--r", "1", "--alpha", "nan"], "peak point alpha = (nan+0j) must be finite"),
    (["peaks", "annulus", "--R", "2", "--r", "1", "--lam", "nan"], "|lam| = nan must be finite"),
    (["peaks", "product", "--phi", "1", "--psi", "nan"], "psi coefficients must be finite"),
    (["probe", "closed-range", "--space", "hardy", "--phi", "nan,1"], "phi coefficients must be finite"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_non_finite_symbols_exit_2_before_any_grid(monkeypatch, capsys, argv, names):
    # a NaN symbol or peak parameter is rejected where it enters, naming
    # it: no grid point or kernel vector is formed, and no grid warns
    def never(*args, **kwargs):
        raise AssertionError("grid or kernel work reached")

    from berezin_lab import operators, peaks

    monkeypatch.setattr(peaks, "circle_grid", never)
    monkeypatch.setattr(operators, "kernel_vector", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {names}\n"


@pytest.mark.parametrize(
    "symbol, code, classification",
    [
        # a Gram that does not factor: lambda_min is 0.0 at every N
        (["--phi=0"], 1, "inconclusive"),
        (["--phi=0,0"], 1, "inconclusive"),
        (["--phi=1e-200"], 1, "inconclusive"),
        # a boundary zero: the Gram is near-singular
        (["--phi=-1,1"], 0, "vanishing"),
        # a fourfold boundary zero: lambda_min (about N^-8) is below the
        # rounding of the Gram, so every lo is 0 and the hi values grow
        (["--phi=1,-4,6,-4,1"], 1, "inconclusive"),
        # tiny truncations, where the band is full (q = N - 1)
        (["--blaschke", "0.5", "--n-schedule", "2", "4"], 1, "inconclusive"),
    ],
    ids=["zero", "zero-zero", "underflow", "boundary-zero", "fourfold-zero", "tiny-n"],
)
def test_probe_closed_range_edge_cases(tmp_path, symbol, code, classification):
    out = tmp_path / "cr.json"
    got = run(["probe", "closed-range", "--space", "hardy", *symbol, "--out", str(out)])
    assert got == code
    doc = json.loads(out.read_text(), parse_constant=reject_constant)
    assert doc["classification"] == classification
    if symbol[0] in ("--phi=0", "--phi=0,0", "--phi=1e-200"):
        assert set(doc["lambda_min"].values()) == {0.0}
    assert doc["lambda_min"].keys() == doc["lambda_min_bracket"].keys()
    for n, lam in doc["lambda_min"].items():
        lo, hi = doc["lambda_min_bracket"][n]
        assert 0 <= lo <= lam <= hi


def test_probe_fredholm_spherical_wot_normbound(tmp_path):
    assert run(["probe", "fredholm", "--space", "bergman", "--z0", "0.4", "--out", str(tmp_path / "f.json")]) == 0
    assert run(["probe", "spherical", "--n", "2", "--degree", "8", "--out", str(tmp_path / "s.json")]) == 0
    assert run(
        ["probe", "wot", "--space", "hardy", "--geometric", "0.9",
         "--t-schedule", "0.9,0.99,0.999", "--out", str(tmp_path / "w.json")]
    ) == 0
    assert run(
        ["probe", "normbound", "--space", "hardy", "--families", "3", "--truncation", "128",
         "--tol", "0.02", "--out", str(tmp_path / "n.json")]
    ) == 0


def test_probe_fredholm_reads_the_trend_thresholds(tmp_path):
    # a floor above lambda_min (about 0.28 at z0 = 0.4) leaves no lo value
    # bounded below, as it does for closed-range
    out = tmp_path / "f.json"
    assert run(["--trend-floor", "10", "probe", "fredholm", "--space", "bergman", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["classification"] == "inconclusive" and doc["passed"] is False


def test_rs_norm_underflow_is_rejected_where_the_table_is_built(capsys):
    # h_k of rs(5000) is subnormal from k = 160 (and 0 from k = 171);
    # nothing may divide by it first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["probe", "closed-range", "--space", "rs(5000)", "--phi=0.5,1"]) == 2
    assert "h_160" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_2(tmp_path, capsys):
    assert run(["gbt", "--space", "hardy"]) == 2  # missing --op
    assert run(["nope"]) == 2
    assert run(["gbt", "--space", "hardy", "--op", "Mz +", "--samples", "5"]) == 2
    assert run(["probe", "closed-range", "--space", "hardy"]) == 2  # no symbol
    assert run(["probe", "wot", "--space", "hardy"]) == 2
    assert run(["charspace", "--weights", "simple:r=0.5", "--lambda-grid", "mod=0:1:0,args=1"]) == 2
    # a step count that overflows, or one too large to list, or a modulus whose square overflows
    for grid in ("mod=0:1e308:1e-300", "mod=0:1e308:1", "mod=1e308:1e308:0.5"):
        assert run(["charspace", "--weights", "constant:c=1", "--lambda-grid", grid]) == 2
    assert run(["probe", "wot", "--space", "", "--phi", "0,1", "--block", "4"]) == 2  # empty space name
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--rmax", "0.9999999999"]) == 2
    assert run(["shift", "powernorm", "--weights", "space:rs(nan)", "--m", "4"]) == 2
    assert run(["gbt", "--space", "rs(inf)", "--op", "Mz", "--samples", "2", "--rmax", "0.9"]) == 2
    for tol in ("nan", "0"):
        assert run(["--tail-tol", tol, "gbt", "--space", "hardy", "--op", "Mz", "--samples", "2"]) == 2
    scan = ["charspace", "--weights", "constant:c=1", "--weight-count", "1024",
            "--lambda-grid", "mod=0.5:1:0.5,args=1", "--n-max-log2", "9"]
    assert run(["--trend-vanish", "nan", *scan]) == 2
    assert run(["--trend-floor", "-1", *scan]) == 2
    closed = ["probe", "closed-range", "--space", "bergman", "--blaschke", "0.5"]
    for schedule in (["0"], ["1"], ["64", "32"]):
        assert run([*closed, "--n-schedule", *schedule]) == 2
        assert run(["probe", "fredholm", "--space", "bergman", "--n-schedule", *schedule]) == 2
    assert run(["probe", "closed-range", "--space", "hardy", "--blaschke", "0.99999"]) == 2
    # a NaN parameter or an empty run is a usage error, never a verdict
    assert run(["peaks", "ball", "--h", "nan"]) == 2
    assert run(["peaks", "product", "--phi", "0,1", "--psi", "nan"]) == 2
    assert run(["probe", "normbound", "--space", "hardy", "--families", "0"]) == 2
    assert run(["probe", "commutator", "--space", "hardy", "--phi", "0,1", "--z", "nan"]) == 2
    assert run(["probe", "normbound", "--space", "hardy", "--degree", "-1", "--families", "1"]) == 2
    assert run(["probe", "normbound", "--space", "hardy", "--tol", "nan", "--families", "1"]) == 2
    assert run(["probe", "closed-range", "--space", "hardy", "--blaschke", "nan"]) == 2
    # an empty or short-row input table is a usage error, not a crash
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    grid = ["--lambda-grid", "mod=0:1:0.5"]
    assert run(["charspace", "--weights", f"cluster:file={empty}", *grid]) == 2
    assert run(["gbt", "--space", f"custom:{empty}", "--op", "Mz", "--samples", "2", "--rmax", "0.5"]) == 2
    assert run(["shift", "powernorm", "--weights", f"space:custom:{empty}", "--m", "1"]) == 2
    short = {"p": tmp_path / "p.csv", "h": tmp_path / "h.csv", "a": tmp_path / "a.csv"}
    short["p"].write_text("x,p\n1\n")
    short["h"].write_text("k,h\n0\n")
    short["a"].write_text("n,a\n0,0.5\n1\n")
    assert run(["charspace", "--weights", f"cluster:file={short['p']}", *grid]) == 2
    assert run(["gbt", "--space", f"custom:{short['h']}", "--op", "Mz", "--samples", "2", "--rmax", "0.5"]) == 2
    assert run(["charspace", "--weights", f"explicit:file={short['a']}", "--weight-count", "2", *grid]) == 2
    # a norm-table ratio that underflows to a zero weight
    underflow = tmp_path / "underflow.csv"
    underflow.write_text("k,h\n0,1e300\n1,1e-300\n2,1e-300\n")
    assert run(["probe", "wot", "--space", f"custom:{underflow}", "--phi", "0,1", "--block", "2"]) == 2
    # a non-finite sample never reaches a CSV output
    out = tmp_path / "f.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["gbt", "--space", "hardy", "--op", "1e308*M(1e308)", "--samples", "2", "--rmax", "0.9",
                    "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error" in err


def test_memory_error_exits_2_with_an_error_line(monkeypatch, capsys):
    # an allocation that fails is a parameter error, never a failed verdict
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    def exhausted_silently(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.bz, "radial_path", exhausted)
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--samples", "3"]) == 2
    monkeypatch.setattr(cli, "norm_lower_bound_check", exhausted)
    assert run(["probe", "normbound", "--space", "hardy", "--families", "1"]) == 2
    monkeypatch.setattr(cli.bz, "disk_grid", exhausted_silently)
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--path", "grid:n=7"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: out of memory: Unable to allocate 7.28 TiB",
        "error: out of memory: Unable to allocate 7.28 TiB",
        "error: out of memory",
    ]


# ---------------------------------------------------------------------------
# argument bounds: every row of cli.BOUNDS, checked before the work


# each subcommand that has a bound, as an argv that reaches its work
BASE = {
    "gbt": ["gbt", "--space", "hardy", "--op", "Mz"],
    "charspace": ["charspace", "--weights", "simple:r=0.5", "--lambda-grid", "mod=0:1:0.5"],
    "shift spr": ["shift", "spr", "--weights", "simple:r=0.5"],
    "shift powernorm": ["shift", "powernorm", "--weights", "simple:r=0.5", "--m", "1"],
    "shift powerbound": ["shift", "powerbound", "--weights", "simple:r=0.5", "--r", "0.5"],
    "peaks annulus": ["peaks", "annulus", "--R", "2", "--r", "1"],
    "peaks ball": ["peaks", "ball"],
    "peaks product": ["peaks", "product", "--phi", "0,1", "--psi", "0,1"],
    "probe closed-range": ["probe", "closed-range", "--space", "hardy", "--phi", "0,1"],
    "probe fredholm": ["probe", "fredholm", "--space", "hardy"],
    "probe spherical": ["probe", "spherical", "--degree", "0"],
    "probe wot": ["probe", "wot", "--space", "hardy", "--geometric", "0.9"],
    "probe normbound": ["probe", "normbound", "--space", "hardy", "--families", "1"],
}


def at(words, *extra):
    return [*BASE[words], *(str(x) for x in extra)]


@pytest.fixture
def reached(monkeypatch):
    """The allocating calls a run reached, each stubbed to stop it with exit 2."""
    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise ValueError("stub reached")

    for name in ("generate_weights", "annulus_peak", "ball_peak", "product_peak_check", "closed_range_probe",
                 "fredholm_probe", "ball_space", "wot_dilation_probe"):
        monkeypatch.setattr(cli, name, work)
    for owner, name in ((cli.bz, "radial_path"), (cli.bz, "disk_grid"), (cli.np.random, "default_rng")):
        monkeypatch.setattr(owner, name, work)
    return calls


EDGES = [
    pytest.param(words, row.option, value, inside, id=f"{words} {row.option} {value}")
    for row in cli.BOUNDS if isinstance(row, cli._Range)
    for words in row.words
    for edge, step in ((row.low, -1), (row.high, 1)) if edge is not None
    for value, inside in ((edge + step, False), (edge, True))
]


@pytest.mark.parametrize("words, option, value, inside", EDGES)
def test_range_rows_at_their_edges(reached, capsys, words, option, value, inside):
    assert run(at(words, option, value)) == 2
    err = capsys.readouterr().err.splitlines()
    if inside:
        assert reached and err == ["error: stub reached"]
    else:
        assert not reached and len(err) == 1 and err[0].startswith(f"error: {option} must be at "), err


HUGE = 10 ** 12
# past a bound, with what the error line names: each rule's over-cap argvs
# and range values far from their edges
REJECTED = [
    *((at("gbt", "--samples", n), "--samples") for n in (HUGE, 2 ** 20 + 1)),
    (at("gbt", "--path", f"grid:n={HUGE}"), "grid:n="),
    (at("gbt", "--path", f"grid:n={2 ** 20 + 1}"), "grid:n="),
    (at("gbt", "--path", "grid", "--samples", HUGE), "grid:n="),
    *((at("gbt", "--path", f"radial:theta={t}"), "radial:theta=") for t in ("nan", "inf")),
    *((at("charspace", o, v), o) for o, v in (("--m-max", 100000), ("--n-max-log2", 100000), ("--n-max-log2", -3))),
    (at("charspace", "--lambda-grid", "mod=1e308:1e308:0.5"), "--lambda-grid mod=1e308:1e308:0.5 needs moduli"),
    *((at("charspace", *extra), "points") for extra in (
        ["--weight-count", 4096, "--lambda-grid", "mod=0:0:1,args=16385"],
        ["--weight-count", 4096, "--lambda-grid", "mod=0:0:1,args=100000"],
        ["--lambda-grid", "mod=0:1:0.0001,args=2"],
        ["--lambda-grid", f"mod=0:{HUGE}:1e-300,args=1"],
    )),
    *((at("charspace", *extra), "rows of work") for extra in (
        ["--lambda-grid", "mod=0:0.923:0.001,args=1"],
        ["--lambda-grid", "mod=0:1:0.0001,args=1", "--n-max-log2", 12],
        ["--weight-count", 2 ** 20, "--n-max-log2", 20, "--lambda-grid", "mod=0:0.7:0.1,args=1"],
        ["--weight-count", 2 ** 20, "--n-max-log2", 8, "--lambda-grid", "mod=0:1:0.003,args=1"],
    )),
    *((at("shift spr", "--kmax", kmax), "of --weight-count") for kmax in (12, HUGE)),
    (at("peaks product", "--grid", HUGE), "--grid "),
    (at("peaks annulus", "--grid", -4), "--grid "),
    (at("peaks ball", "--grid-s", -2, "--grid-phi", -2), "--grid-s "),
    (at("peaks ball", "--grid-s", 5, "--grid-phi", 512), "--grid-s times --grid-phi squared"),
    (at("peaks ball", "--grid-s", 1, "--grid-phi", 1025), "--grid-s times --grid-phi squared"),
    (at("peaks annulus", "--n", 1000000), f"--n 1000000 times --grid 10000 must be at most {2 ** 20}"),
    (at("probe closed-range", "--n-schedule", 128, 4194304), "--n-schedule"),
    (at("probe fredholm", "--n-schedule", 1000000000), "--n-schedule"),
    *((at("probe spherical", "--n", HUGE, "--degree", d), "--n ") for d in (3, HUGE)),
    *((at("probe spherical", "--n", n, "--degree", d), f"--n {n} with --degree {d}")
      for n, d in ((3, 60), (1, 2896), (3, 20), (7, 7), (203, 1), (3, HUGE))),
    *((at("probe wot", "--block", b), "--block") for b in (HUGE, -1)),
    (at("probe normbound", "--truncation", HUGE), "--truncation"),
    (at("probe normbound", "--degree", HUGE), "--truncation must lie above --degree"),
    (at("probe normbound", "--truncation", 5), "--truncation must lie above --degree 5"),
    *((at("probe normbound", "--truncation", t, "--degree", d), f"--truncation {t} with --degree {d}")
      for t, d in ((2 ** 14, 2 ** 14 - 1), (1200, 1199), (2 ** 14, 6))),
]
# at a bound: each rule's at-cap argvs, and ranges at two edges at once
ACCEPTED = [
    at("gbt", "--samples", 2),
    at("gbt", "--samples", 2 ** 20),
    at("gbt", "--path", f"grid:n={2 ** 20}", "--samples", HUGE),
    at("charspace", "--lambda-grid", f"mod={cli._MODULUS_CAP!r}:{cli._MODULUS_CAP!r}:1"),
    at("charspace", "--weight-count", 4096, "--lambda-grid", "mod=0:0:1,args=16384"),
    at("charspace", "--lambda-grid", "mod=0:1:0.0001,args=1", "--n-max-log2", 8, "--weight-count", 4096),
    at("charspace", "--lambda-grid", "mod=0:0.922:0.001,args=1"),
    at("charspace", "--weight-count", 2 ** 20, "--n-max-log2", 20, "--m-max", 20, "--lambda-grid", "mod=0:0.6:0.1,args=1"),
    at("shift spr", "--kmax", 11),
    at("peaks ball", "--grid-s", 1, "--grid-phi", 1),
    at("peaks ball", "--grid-s", 4, "--grid-phi", 512),
    at("peaks annulus", "--n", 2 ** 19, "--grid", 2),
    BASE["probe closed-range"],
    *(at("probe closed-range", "--blaschke", zeros) for zeros in ("0.5", "0.99", "0.9,-0.99i")),
    BASE["probe fredholm"],
    at("probe fredholm", "--n-schedule", 128, 256, 512),
    *(at("probe spherical", "--n", n, "--degree", d) for n, d in ((1, 2895), (2, 62), (202, 1), (256, 0))),
    at("probe normbound", "--families", 2 ** 14, "--truncation", 2 ** 14),
    at("probe normbound", "--truncation", 6),
    at("probe normbound", "--truncation", 1100, "--degree", 1099),
]


@pytest.mark.parametrize("argv, names", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED])
def test_argvs_past_a_bound_never_reach_the_work(reached, capsys, argv, names):
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert not reached and len(err) == 1 and err[0].startswith("error: ") and names in err[0], err


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_argvs_at_a_bound_reach_the_work(reached, capsys, argv):
    assert run(argv) == 2
    assert reached and capsys.readouterr().err == "error: stub reached\n"


# Blaschke series past operators.SERIES_CAP terms: no BOUNDS row, the probe's own TruncationError
OVER_SERIES_CAP = [
    *(at("probe closed-range", "--blaschke", zeros) for zeros in ("0.995", "0.999", "0.5,0.999i", "0.9999999")),
    ["--tail-tol", "1e-300", *at("probe closed-range", "--blaschke", "0.99")],
]


@pytest.mark.parametrize("argv", OVER_SERIES_CAP, ids=" ".join)
def test_blaschke_series_past_the_cap_exits_2_before_any_kernel_or_gram_work(monkeypatch, capsys, argv):
    from berezin_lab import operators

    def never(*args, **kwargs):
        raise AssertionError("kernel or Gram work reached")

    monkeypatch.setattr(operators, "kernel_vector", never)
    monkeypatch.setattr(operators, "_gram_band", never)
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    zeros = argv[argv.index("--blaschke") + 1]
    assert len(err) == 1, err
    assert err[0].startswith(f"error: the Blaschke product with zeros {zeros} needs more than 4096 series terms"), err


def test_a_blaschke_probe_forms_its_series_once(monkeypatch):
    # the calls of one series(tol), counted through cli.main: no bound forms it beforehand
    from berezin_lab import operators

    calls = []
    coefficients = operators.BlaschkeProduct.coefficients

    def counted(self, length):
        calls.append(length)
        return coefficients(self, length)

    monkeypatch.setattr(operators.BlaschkeProduct, "coefficients", counted)
    operators.BlaschkeProduct((0.5,)).series(1e-12)
    one_series = calls[:]
    calls.clear()
    assert run(["probe", "closed-range", "--space", "bergman", "--blaschke", "0.5", "--n-schedule", "64", "128", "256"]) == 0
    assert calls == one_series == [2, 4, 8, 16, 32, 64]


def test_every_cap_is_read_by_a_bound_row():
    # a cap checked beside the table, or one that no row reads, fails here
    caps = {name for name in vars(cli) if name.endswith("_CAP")}
    tree = ast.parse(Path(cli.__file__).read_text())
    table = next(n for n in tree.body if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "BOUNDS")
    read = {n.id for n in ast.walk(table) if isinstance(n, ast.Name)}
    for row in cli.BOUNDS:
        if isinstance(row, cli._Rule):
            read |= set(inspect.getclosurevars(row.check).globals)
    assert "N_CAP" in caps and caps <= read, caps - read


def test_every_json_output_is_strict(tmp_path, capsys):
    # no NaN, Infinity or -Infinity in any subcommand's JSON
    argvs = [
        ["gbt", "--space", "bergman", "--op", "[Mz^*, Mz] Mz", "--rmax", "0.9", "--samples", "3"],
        ["charspace", "--weights", "simple:r=0.5", "--weight-count", "4096",
         "--lambda-grid", "mod=0:1:0.5,args=2", "--n-max-log2", "10"],
        ["peaks", "annulus", "--R", "2", "--r", "1", "--n", "2", "--grid", "2000"],
        ["peaks", "ball", "--h", "0,0.5", "--grid-s", "8", "--grid-phi", "8"],
        ["peaks", "product", "--phi", "0,1", "--psi", "0.5,0.5", "--grid", "64"],
        ["shift", "spr", "--weights", "simple:r=0.5", "--kmax", "6"],
        ["shift", "powernorm", "--weights", "constant:c=1", "--m", "128", "1024"],
        ["shift", "powerbound", "--weights", "simple:r=0.5", "--r", "0.5", "--mmax", "64"],
        ["probe", "commutator", "--space", "hardy", "--phi", "0,0.5", "--z", "0;0.9"],
        ["probe", "closed-range", "--space", "hardy", "--blaschke", "0.5", "--n-schedule", "64", "128", "256"],
        ["probe", "fredholm", "--space", "bergman", "--n-schedule", "32", "64", "128"],
        ["probe", "spherical", "--n", "2", "--degree", "4"],
        ["probe", "wot", "--space", "hardy", "--geometric", "0.9", "--block", "8"],
        ["probe", "normbound", "--space", "hardy", "--families", "2", "--truncation", "64", "--tol", "0.05"],
    ]
    for argv in argvs:
        assert run(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert isinstance(doc, dict), argv


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # start-up (every subcommand, including those that never solve) loads
    # nothing of scipy, and the solvers load only its compiled LAPACK and
    # BLAS modules (``lapack``): full charscan and probes benchmark passes
    # never import the scipy.linalg package
    src = Path(berezin_lab.__file__).resolve().parents[1]
    script = """
import os, sys
from pathlib import Path
import berezin_lab.cli as cli
print('scipy' in sys.modules)
sys.path.insert(0, sys.argv[1])
import workloads
for w in ('charscan', 'probes'):
    invocations = workloads.build(w, 0, Path(sys.argv[2]) / w)
    os.chdir(Path(sys.argv[2]) / w)
    ok = all(cli.main(list(inv.argv)) == inv.expect for inv in invocations)
    print(w, ok, 'scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)
"""
    out = fresh_python(script, src.parent / "perfbench", tmp_path)
    assert out.split("\n")[-4:] == ["False", "charscan True False True", "probes True False True", ""]


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_gbt_reuses_its_freed_heap(tmp_path):
    # the CLI keeps freed memory in the process, so a second and third run
    # of a profile out to |z| = 0.9999 (kernel lines past 10^5 terms) reuse
    # the first run's pages; with glibc's default thresholds each run took
    # 3,300-4,200 minor faults.  A fresh interpreter, so that pytest's own
    # allocator settings are not what is measured.
    script = """
import resource, sys
from berezin_lab.cli import main
argv = ["gbt", "--space", "bergman", "--op", "[Mz^*, Mz] Mz", "--path", "radial:theta=0.7",
        "--rmax", "0.9999", "--samples", "30", "--out", sys.argv[1]]
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    faults = [int(line) for line in fresh_python(script, tmp_path / "gbt.csv").split()]
    assert len(faults) == 3 and all(f < 100 for f in faults[1:]), faults


def test_fail_exit_1(tmp_path):
    # a tiny truncation cannot reach the circle sup: normbound FAILs
    code = run(
        ["probe", "normbound", "--space", "bergman", "--families", "2",
         "--truncation", "8", "--tol", "0.001", "--out", str(tmp_path / "n.json")]
    )
    assert code == 1
    doc = json.loads((tmp_path / "n.json").read_text())
    assert doc["passed"] is False


def test_charspace_determinism(tmp_path):
    argv = [
        "charspace", "--weights", "simple:r=0.5", "--weight-count", "8192",
        "--lambda-grid", "mod=0.2:1:0.4,args=2", "--n-max-log2", "10",
    ]
    out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
    run(argv + ["--out", str(out1)])
    run(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def _cli_in_fresh_process(argv, env=None):
    """(exit code, standard output) of ``berezin_lab.cli`` run in a new interpreter."""
    src = Path(berezin_lab.__file__).resolve().parents[1]
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-m", "berezin_lab.cli", *argv], env=env, capture_output=True)
    return out.returncode, out.stdout


def test_parser_built_once_and_no_option_leaks_between_calls(tmp_path, capsys):
    # one process, options first and the defaults after them: every output
    # equals that of a fresh process, so no default or namespace value of an
    # earlier call carries over
    assert cli.build_parser() is cli.build_parser()
    closed = ["probe", "closed-range", "--space", "hardy", "--blaschke", "0.5"]
    gbt = ["gbt", "--space", "bergman", "--op", "Mz^* Mz", "--samples", "4", "--rmax", "0.9"]
    runs = [
        ([*closed, "--n-schedule", "64", "128", "--out", str(tmp_path / "cr-1.json")], "cr-1.json"),
        ([*closed, "--out", str(tmp_path / "cr-2.json")], "cr-2.json"),
        ([*gbt, "--out", str(tmp_path / "g.csv"), "--svg", str(tmp_path / "g.svg")], "g.csv"),
        (gbt, None),
    ]
    for argv, name in runs:
        code = main(argv)
        got = capsys.readouterr().out.encode() if name is None else (tmp_path / name).read_bytes()
        if name is not None:
            (tmp_path / name).unlink()
        assert _cli_in_fresh_process(argv) == (code, got if name is None else b""), argv
        if name is not None:
            assert (tmp_path / name).read_bytes() == got, argv
    assert sorted(json.loads((tmp_path / "cr-1.json").read_text())["lambda_min"], key=int) == ["64", "128"]
    assert sorted(json.loads((tmp_path / "cr-2.json").read_text())["lambda_min"], key=int) == [
        "128", "256", "512", "1024"]
    assert (tmp_path / "g.svg").is_file()


def test_gbt_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # near the boundary the kernel vectors pass 2^14 entries, where a BLAS
    # dot product splits its sum across threads; the transform's inner
    # product adds in one fixed order instead
    argv = ["gbt", "--space", "hardy", "--op", "M(0.5,0.3)^* Mz", "--rmax", "0.9999", "--samples", "12"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"gbt-{threads}.csv"
        code, _ = _cli_in_fresh_process([*argv, "--out", str(out)], env={"OPENBLAS_NUM_THREADS": threads})
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    trunc = [int(row.split(",")[4]) for row in outs[0].decode().splitlines()[1:]]
    assert max(trunc) >= 2 ** 14


@pytest.mark.parametrize("argv", [
    # |z| = 0.999: a kernel vector of about 1.5e4 entries, past the length
    # at which a BLAS reduction splits its sums across threads
    ["probe", "commutator", "--space", "hardy", "--phi=0.1558-0.3572i,-0.1426+0.3057i,-0.1190-0.2173i",
     "--z=-0.48383674612998318-0.87401544785795982i"],
    # a Blaschke series of degree p = 511 >= N: the Gram's block sum and its GEMMs
    ["probe", "closed-range", "--space", "bergman", "--blaschke", "0.9", "--n-schedule", "128", "256", "512"],
    ["probe", "normbound", "--space", "bergman", "--truncation", "512", "--degree", "20", "--families", "2"],
], ids=lambda argv: argv[1])
def test_probe_bytes_do_not_depend_on_the_blas_thread_count(argv):
    # cli.main sets OpenBLAS to one thread, so both runs take one; the two
    # counts still differ where the libraries are not found, and the
    # library-level case is in test_lapack.py
    outs = [_cli_in_fresh_process(argv, env={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
    assert outs[0][0] in (0, 1)
    assert outs[0] == outs[1]


# both OpenBLAS libraries installed, and /proc/self/task to count threads
needs_openblas_on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(openblas_libraries()) < 2,
    reason="needs Linux and numpy's and scipy's OpenBLAS libraries",
)
SCAN = ["charspace", "--weights", "simple:r=0.5", "--lambda-grid", "mod=0:1:0.05,args=1"]
CLOSED_P_ABOVE_N = ["probe", "closed-range", "--space", "bergman", "--blaschke", "0.9", "--n-schedule", "128", "256", "512"]


@needs_openblas_on_linux
def test_cli_runs_each_openblas_on_its_callers_thread(tmp_path):
    # numpy's OpenBLAS starts its workers at import and scipy's at lapack's
    # first load; after a charspace scan (its solver threads, scipy's
    # LAPACK) both are set to one thread and the main thread runs alone
    script = """
import json, os, sys
from berezin_lab.cli import main
from blas_threads import openblas_threads
before = openblas_threads()
assert main(sys.argv[1:]) == 0
print(json.dumps([before, openblas_threads(), len(os.listdir("/proc/self/task"))]))
"""
    out = fresh_python(script, *SCAN, "--out", tmp_path / "scan.json", env={"OPENBLAS_NUM_THREADS": "2"})
    before, after, tasks = json.loads(out)
    assert list(before) == ["numpy"]
    assert after == {"numpy": 1, "scipy": 1}
    assert tasks == 1


@needs_openblas_on_linux
def test_a_missing_openblas_folder_leaves_the_threads_and_the_bytes(tmp_path):
    # where the libraries are not found the policy does nothing: each
    # library keeps its own thread count, and the outputs their bytes
    script = """
import json, sys
from pathlib import Path
from berezin_lab import lapack
from berezin_lab.cli import main
from blas_threads import openblas_threads
folder, out, argvs = sys.argv[1], Path(sys.argv[2]), json.loads(sys.argv[3])
if folder != "-":
    lapack._library_dir = lambda package: Path(folder)
default = openblas_threads()["numpy"]
codes = [main([*argv, "--out", str(out / f"{i}.json")]) for i, argv in enumerate(argvs)]
print(json.dumps([codes, default, openblas_threads()]))
"""
    argvs = json.dumps([SCAN, CLOSED_P_ABOVE_N])
    runs = {}
    for name, folder in (("found", "-"), ("missing", tmp_path / "no-such-folder")):
        (tmp_path / name).mkdir()
        runs[name] = json.loads(fresh_python(script, folder, tmp_path / name, argvs, env={"OPENBLAS_NUM_THREADS": "2"}))
    assert runs["found"][0] == runs["missing"][0] == [0, 0]
    _, default, threads = runs["missing"]
    assert threads == {"numpy": default, "scipy": default}
    assert runs["found"][2] == {"numpy": 1, "scipy": 1}
    for i in range(2):
        assert (tmp_path / "found" / f"{i}.json").read_bytes() == (tmp_path / "missing" / f"{i}.json").read_bytes()
