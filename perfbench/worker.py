"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --mode {setup,pass,trace}

Set-up is timed from the top of this script through ``import
berezin_lab.cli`` and the generation of the workload's seeded input files.
``setup`` stops there; ``pass`` then calls ``berezin_lab.cli.main(argv)``
in-process for every invocation of the workload, and ``trace`` does the
same under the outside-in tracer.  The last line of standard output is one
JSON object with the pass's measurements.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    args = ap.parse_args()

    from berezin_lab import cli

    import workloads

    workdir = Path(args.workdir)
    invocations = workloads.build(args.workload, args.seed, workdir)
    result = {"setup_s": time.perf_counter() - T0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    os.chdir(workdir)
    for inv in invocations:  # an output left by an earlier pass must not pass for this one
        (workdir / inv.out).unlink(missing_ok=True)
    runs = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for i, inv in enumerate(invocations):
        if tracer:
            tracer.invocation = i
        t = time.perf_counter()
        try:
            code, error = cli.main(list(inv.argv)), None
        except Exception as exc:  # a crash is a failed invocation, not a failed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        runs.append((inv, code, error, time.perf_counter() - t))
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = []
    for inv, code, error, wall in runs:
        if error is None:
            error = workloads.check(inv, code, workdir)
        out = workdir / inv.out
        records.append({
            "label": inv.label,
            "argv": list(inv.argv),
            "code": code,
            "wall_s": wall,
            "error": error,
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None,
        })
    result["invocations"] = records
    if tracer:
        tracer.uninstall()
        tracer.write(workdir / "spans.jsonl", args.pass_index)
        result["layers"] = tracer.layer_stats()
        result["trace_missing"] = tracer.missing
        result["trace_count_errors"] = sorted(tracer.count_errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
