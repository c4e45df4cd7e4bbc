"""CLI subcommands: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import berezin_lab
from berezin_lab.cli import main, parse_operator_expr
from berezin_lab.exprs import Commutator, MPoly, MPolyAdj, Mz, MzAdj, Product, Scale, Sum


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


def test_gbt_json_to_stdout(capsys):
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--rmax", "0.9", "--samples", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec_version"] == "1"
    assert len(doc["samples"]) == 8


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
    assert doc["path"]["kind"] == "grid"
    assert len(doc["samples"]) >= 10


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


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_2(capsys):
    assert run(["gbt", "--space", "hardy"]) == 2  # missing --op
    assert run(["nope"]) == 2
    assert run(["gbt", "--space", "hardy", "--op", "Mz +", "--samples", "5"]) == 2
    assert run(["probe", "closed-range", "--space", "hardy"]) == 2  # no symbol
    assert run(["probe", "wot", "--space", "hardy"]) == 2
    assert run(["charspace", "--weights", "simple:r=0.5", "--lambda-grid", "mod=0:1:0,args=1"]) == 2
    assert run(["gbt", "--space", "hardy", "--op", "Mz", "--rmax", "0.9999999999"]) == 2
    assert run(["shift", "powernorm", "--weights", "space:rs(nan)", "--m", "4"]) == 2
    assert run(["gbt", "--space", "rs(inf)", "--op", "Mz", "--samples", "2", "--rmax", "0.9"]) == 2
    for tol in ("nan", "0"):
        assert run(["--tail-tol", tol, "gbt", "--space", "hardy", "--op", "Mz", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_import_leaves_scipy_unloaded():
    # the tridiagonal solver imports scipy on first use, so start-up
    # (every subcommand, including those that never solve) does not pay it
    src = str(Path(berezin_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, berezin_lab.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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
