"""Outside-in span tracer for the berezin-lab layers.

Each layer's public functions are wrapped where their callers look them
up: every ``berezin_lab`` module attribute bound to the original function
is replaced, which covers the ``from .x import f`` bindings (for example
``characters.lambda_min_batch``, ``berezin.kernel_vector`` and
``cli.closed_range_probe``).  A target missing from the package is skipped
and reported, so the tracer keeps working while layers are refactored.

A span holds its name, start, end, parent and the id of the CLI
invocation it belongs to.  Spans are kept in memory under a lock, because
``cmd_gbt`` samples on a thread pool, and written out at the end.  A span
opened on a thread with no open span (a pool worker) takes the running
``cli.cmd_*`` span as its parent.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute, options).  ``work`` maps a counter suffix
# to a function of (args, result); ``outermost`` records only the outermost
# call of a recursive function; ``root`` marks the per-invocation span.
LAYERS = (
    ("spaces.kernel_vector", "spaces", "kernel_vector", {"work": {"coeffs": lambda a, r: r.n}}),
    ("spaces.h_table", "spaces", "KernelSpace.h_table", {"work": {"entries": lambda a, r: a[1] + 1}}),
    ("exprs.apply", "exprs", "apply", {"outermost": True, "work": {"elements": lambda a, r: len(a[2])}}),
    ("exprs.materialize", "exprs", "materialize", {"outermost": True, "work": {"entries": lambda a, r: a[2] ** 2}}),
    ("exprs.parse", "exprs", "parse", {}),
    ("tridiag.lambda_min_batch", "tridiag", "lambda_min_batch", {"work": {"rows": lambda a, r: np.size(a[0])}}),
    ("characters.character_set_scan", "characters", "character_set_scan", {"verdicts": True}),
    ("characters.run_criterion", "characters", "run_criterion", {}),
    ("shifts.generate_weights", "shifts", "generate_weights", {}),
    ("shifts.power_bounded_check", "shifts", "power_bounded_check", {}),
    ("shifts.spectral_radius_estimate", "shifts", "spectral_radius_estimate", {}),
    ("operators.closed_range_probe", "operators", "closed_range_probe", {}),
    ("operators.fredholm_probe", "operators", "fredholm_probe", {}),
    ("operators.norm_lower_bound_check", "operators", "norm_lower_bound_check", {}),
    ("operators.tall_mult_matrix", "operators", "tall_mult_matrix", {}),
    ("operators.mult_matrix", "operators", "mult_matrix", {}),
    ("operators.commutator_norm_PzMphi", "operators", "commutator_norm_PzMphi", {}),
    ("berezin.gbt_sample_expr", "berezin", "gbt_sample_expr", {}),
    ("peaks.annulus_peak", "peaks", "annulus_peak", {}),
    ("peaks.ball_peak", "peaks", "ball_peak", {}),
    ("peaks.product_peak_check", "peaks", "product_peak_check", {}),
    ("cli.cmd_gbt", "cli", "cmd_gbt", {"root": True}),
    ("cli.cmd_charspace", "cli", "cmd_charspace", {"root": True}),
    ("cli.cmd_peaks", "cli", "cmd_peaks", {"root": True}),
    ("cli.cmd_shift", "cli", "cmd_shift", {"root": True}),
    ("cli.cmd_probe", "cli", "cmd_probe", {"root": True}),
    ("cli.serialize", "berezin", "profile_to_csv", {}),
    ("cli.serialize", "characters", "verdicts_to_json", {}),
    ("cli.serialize", "cli", "_json_doc", {}),
    ("cli.serialize", "peaks", "peak_report", {}),
)

PACKAGE = "berezin_lab"


class Tracer:
    """Records spans and work counts around the wrapped layer functions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root = None
        self._undo = []
        self.invocation = -1
        self.spans = []  # (id, name, start, end, parent, invocation)
        self.counts = defaultdict(int)
        self.missing = []
        self.count_errors = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch the loaded package; call after importing ``berezin_lab.cli``."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, home, attr, opts in LAYERS:
            owner = sys.modules.get(f"{PACKAGE}.{home}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, original, **opts)
            if cls_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, work=None, outermost=False, root=False, verdicts=False):
        tracer = self
        local = self._local
        depth_key = "depth:" + name

        def wrapper(*args, **kwargs):
            if outermost and getattr(local, depth_key, 0):
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            with tracer._lock:
                tracer._next_id += 1
                sid = tracer._next_id
            parent = stack[-1] if stack else tracer._root
            stack.append(sid)
            if outermost:
                setattr(local, depth_key, 1)
            if root:
                tracer._root = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if outermost:
                    setattr(local, depth_key, 0)
                if root:
                    tracer._root = None
                with tracer._lock:
                    tracer.spans.append((sid, name, start, end, parent, tracer.invocation))
            if work or verdicts:
                tracer._count(name, work, verdicts, args, result)
            return result

        return wrapper

    def _count(self, name, work, verdicts, args, result) -> None:
        # a counter that no longer fits the program's signature is reported,
        # never raised into the traced program
        try:
            added = {f"{name}.{k}": int(f(args, result)) for k, f in (work or {}).items()}
            if verdicts:
                for v in result:
                    kind = "inconclusive" if v.verdict == "inconclusive" else v.evidence.kind
                    key = f"characters.verdicts.{kind}"
                    added[key] = added.get(key, 0) + 1
        except (AttributeError, IndexError, TypeError) as exc:
            with self._lock:
                self.count_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return
        with self._lock:
            for key, value in added.items():
                self.counts[key] += value

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: calls, busy_s (time at least one span of the name
        is open) and self_s (time some span of the name is open while none
        of its own children is), plus the work counts."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        for sid, name, start, end, parent, _ in self.spans:
            by_name[name].append((sid, start, end))
            if parent is not None:
                children[parent].append((start, end))
        out = dict(self.counts)
        for name, items in by_name.items():
            own = []
            for sid, start, end in items:
                covered = _merge([(max(s, start), min(e, end)) for s, e in children.get(sid, ())])
                own.extend(_gaps(start, end, covered))
            out[f"{name}.calls"] = len(items)
            out[f"{name}.busy_s"] = _length(_merge([(s, e) for _, s, e in items]))
            out[f"{name}.self_s"] = _length(_merge(own))
        return out

    def write(self, path, pass_index: int) -> None:
        """Append this pass's spans as JSON lines, times relative to the
        first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "a") as f:
            for sid, name, start, end, parent, inv in sorted(self.spans, key=lambda s: s[2]):
                f.write(json.dumps({
                    "pass": pass_index, "invocation": inv, "id": sid, "parent": parent,
                    "name": name, "start": start - t0, "end": end - t0,
                }) + "\n")


def _merge(intervals) -> list:
    out = []
    for s, e in sorted(i for i in intervals if i[1] > i[0]):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def _gaps(start, end, merged) -> list:
    out = []
    cur = start
    for s, e in merged:
        if s > cur:
            out.append((cur, s))
        cur = max(cur, e)
    if end > cur:
        out.append((cur, end))
    return out


def _length(merged) -> float:
    return sum(e - s for s, e in merged)
