"""Layered end-to-end benchmark of the berezin-lab command line.

    python3 perfbench/run.py --workload {transform,charscan,probes} \\
        --seed N --seconds S --trace {0,1} [--write-reference]

Run from the root of a checkout; the package is imported from ``src/``,
so nothing is built or installed.  One run:

1. one unmeasured set-up, so bytecode caches exist as they do for users;
2. cycles of ``SETUP_PROBES_PER_PASS`` fresh interpreters that only set up
   (import ``berezin_lab.cli`` and generate the seeded inputs), for
   ``setup_s``, and one pass over the workload's invocation list in a
   fresh interpreter that calls ``berezin_lab.cli.main(argv)`` in-process,
   for as long as the next cycle is expected to end within ``--seconds``
   (and at least ``MIN_PASSES`` times).
   With ``--trace 1`` plain and traced passes alternate: the traced ones
   give the per-layer metrics, the difference of the two medians gives
   ``trace.overhead_s``.

Every invocation is checked against its oracle (see workloads.py); a
crash, an unexpected exit code or an oracle mismatch counts as failed and
does not stop the run.  Output sha256s are compared against
``reference_sha256.json`` (or, for a seed not in it, against the run's
first pass); a changed hash is reported, not counted as a failure.

The last line of standard output is the result object; the full record
(provenance, every pass, medians and quartiles with sample counts) is
written to ``.perfbench_out/<workload>-seed<N>-trace<T>/record.json``.
The run exits non-zero, printing no result, if the program cannot be
found or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_sha256.json"
SETUP_PROBES_PER_PASS = 3
MIN_PASSES = 2
TIME_LIMIT_S = 170.0  # a run, set-up included, must end within 180 s


class BenchError(RuntimeError):
    pass


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's output hashes as the reference for its seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "berezin_lab" / "cli.py").is_file():
        print(f"error: no berezin-lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups, passes = measure(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = summarize(args, setups, passes)
    record["provenance"] = provenance(args, passes[0])
    (workdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.write_reference and record["failed"] == 0:
        write_reference(args, passes[0])

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": record["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in spec[section]
    }
    for f in record["failures"]:
        print(f"FAILED pass {f['pass']} {f['label']}: {f['error']}", file=sys.stderr)
    print(json.dumps({"record": str(workdir.relative_to(ROOT) / "record.json"),
                      "summary": record["summary"]}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# running


def measure(args, workdir: Path):
    deadline = time.monotonic() + TIME_LIMIT_S

    def child(mode, index=0):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(workdir), "--mode", mode,
               "--pass-index", str(index)]
        env = dict(os.environ)
        env.pop("BEREZIN_LAB_THREADS", None)  # measure the default pool
        # set-up is measured with bytecode caches, as an installed package has
        # them, whatever the caller's environment says
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish within the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["mode"] = mode
        return res

    child("setup")  # unmeasured: fills the bytecode and page caches

    # Set-up probes are spread over the run, before every pass, so that
    # their median samples the machine over the whole run.  A cycle (probes
    # and pass) starts while it is expected to end within --seconds, and at
    # least MIN_PASSES of each mode run, so no median rests on one pass.
    modes = ("pass", "trace") if args.trace else ("pass",)
    setups, passes, cycles = [], [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        setups.extend(child("setup")["setup_s"] for _ in range(SETUP_PROBES_PER_PASS))
        passes.append(child(modes[len(passes) % len(modes)], len(passes)))
        now = time.monotonic()
        cycles.append(now - t)
        typical = statistics.median(cycles)
        if len(passes) >= MIN_PASSES * len(modes) and (
            now - start + typical > args.seconds or now + 1.5 * typical > deadline
        ):
            return setups, passes


# ---------------------------------------------------------------------------
# aggregation


def quartiles(values) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(args, setups, passes) -> dict:
    plain = [p for p in passes if p["mode"] == "pass"]
    traced = [p for p in passes if p["mode"] == "trace"]
    attempted = sum(len(p["invocations"]) for p in passes)
    failures = [
        {"pass": i, "label": r["label"], "error": r["error"]}
        for i, p in enumerate(passes) for r in p["invocations"] if r["error"]
    ]
    summary = {
        "setup_s": quartiles(setups + [p["setup_s"] for p in passes]),
        "wall_s": quartiles([p["wall_s"] for p in plain]),
        "cpu_s": quartiles([p["cpu_s"] for p in plain]),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in plain]),
    }
    metrics = {name: s["median"] for name, s in summary.items()}
    metrics["ok_ratio"] = (attempted - len(failures)) / attempted

    reference = _load_reference().get(args.workload, {}).get(str(args.seed))
    reference_source = "reference_sha256.json" if reference else "first pass"
    if not reference:
        reference = {r["label"]: r["sha256"] for r in passes[0]["invocations"]}
    changed = [
        sum(1 for r in p["invocations"] if r["sha256"] != reference.get(r["label"]))
        for p in passes
    ]

    if traced:
        layer_names = sorted(set().union(*(p["layers"] for p in traced)))
        for name in layer_names:
            metrics[name] = statistics.median(p["layers"].get(name, 0) for p in traced)
            summary[name] = quartiles([p["layers"].get(name, 0) for p in traced])
        summary["traced_wall_s"] = quartiles([p["wall_s"] for p in traced])
        metrics["trace.overhead_s"] = summary["traced_wall_s"]["median"] - summary["wall_s"]["median"]
        metrics["cli.cpu_s"] = summary["cpu_s"]["median"]
        metrics["cli.outputs_changed"] = max(changed)
        metrics["fail_ratio"] = len(failures) / attempted

    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "summary": summary,
        "outputs_changed": {"reference": reference_source, "per_pass": changed},
        "trace_missing": traced[0]["trace_missing"] if traced else [],
        "trace_count_errors": traced[0]["trace_count_errors"] if traced else [],
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }


# ---------------------------------------------------------------------------
# provenance and reference hashes


def provenance(args, first_pass) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "berezin_lab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [r["argv"] for r in first_pass["invocations"]],
    }


def _git_sha():
    """HEAD of the checkout, read without running git; None outside a
    repository (the benchmark may run from an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def write_reference(args, first_pass) -> None:
    ref = _load_reference()
    ref.setdefault(args.workload, {})[str(args.seed)] = {
        r["label"]: r["sha256"] for r in first_pass["invocations"]
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
