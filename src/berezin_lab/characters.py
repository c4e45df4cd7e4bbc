"""Membership probes for the character space of a weighted-shift module.

For a rotation-invariant rank-one module with shift weights a_n, a point
lambda admits a character exactly when the column with entries T - lambda
and (T - lambda)^* fails to be bounded below, which reduces to the
Hermitian tridiagonal

    X = (T - l)^*(T - l) + (T - l)(T - l)^*
      = T^*T + TT^* + 2|l|^2 I - 2(conj(l) T + l T^*)

having no spectral gap at zero.  Two machine-checkable evidence channels
drive the verdicts:

  * run evidence: a run of d+2 consecutive weights within eps of |lambda|
    yields an oscillatory test vector with small residuals, so runs at
    every resolution of a fixed schedule certify membership at that
    resolution (never as an unconditional claim);
  * gap evidence: delta = inf |a_k - |lambda|| > 0 forces X >= delta^2/2
    via its even/odd two-by-two block splitting, certifying
    non-membership; the bound is verified against lambda_min of the
    truncation.  delta is read off the run scan's distances |a_k - |lambda||,
    formed once per modulus.

A third channel tracks sigma_min = sqrt(lambda_min(X_N)) over a doubling
truncation schedule and classifies the trend; it is heuristic (a finite
section cannot prove unboundedness below) and is kept in the evidence
for auditing.  Contradicting channels produce "inconclusive".

The evidence, and so the verdict, is a function of |lambda| alone: it is
formed and decided once per modulus, and every lambda of that modulus
shares its channels.  ``scan_to_dict`` writes a scan the same way: the
schedules once, one record per modulus holding its verdict, the channel
that decided it and all three channels, and per lambda only its verdict.

The matrix entries here follow the dense expansion of X: the
off-diagonal is x_{i,i+1} = -2 lambda a_i (its sign and conjugation are
immaterial to the spectrum, which depends only on |lambda| and the
weights; that is what makes verdicts rotation invariant).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .shifts import WeightSequence
from .tridiag import lambda_min_batch
from .trends import BOUNDED_BELOW, INCONCLUSIVE, VANISHING, TrendThresholds, classify_trend

MEMBER = "member"
NON_MEMBER = "non_member"


@dataclass(frozen=True)
class CharacterConfig:
    """Schedules and thresholds for membership verdicts.

    The run criterion uses (eps_m, d_m) = (2^-m, 2^m) for m <= m_max; a
    scan window k <= K_max = scan_len - d_m - 2 applies at each level.
    """

    m_max: int = 6
    scan_len: int = 2 ** 15
    n_schedule: tuple = (2 ** 8, 2 ** 9, 2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14)
    trend: TrendThresholds = field(default_factory=TrendThresholds)

    def run_levels(self) -> tuple:
        """The run schedules (eps_m, d_m) = (2^-m, 2^m), m <= m_max."""
        return [2.0 ** -m for m in range(self.m_max + 1)], [2 ** m for m in range(self.m_max + 1)]


@dataclass(frozen=True)
class RunEvidence:
    kind: str
    levels: tuple  # per level: (eps, d, found, start_index, max_run)
    deepest: int   # deepest satisfied level, -1 if none
    delta: float   # inf_k |a_k - |lambda|| over every weight, the gap channel's delta

    @property
    def satisfied(self) -> bool:
        return self.deepest >= 0 and self.deepest + 1 == len(self.levels)


@dataclass(frozen=True)
class GapEvidence:
    kind: str
    delta: float
    bound: float
    lambda_min: float
    n: int

    @property
    def verified(self) -> bool:
        return self.lambda_min >= self.bound - 1e-10


@dataclass(frozen=True)
class TrendEvidence:
    kind: str
    ns: tuple
    sigma_min: tuple
    classification: str


@dataclass(frozen=True)
class CharacterVerdict:
    lam: complex
    verdict: str
    evidence: object  # the deciding channel (the trend when inconclusive)
    channels: dict    # run, gap and sigma_trend of lam's modulus, shared by its lambdas


def lambda_modulus(lam: complex) -> float:
    """|lambda|, snapped to its 12-digit rounding (the rounding grid moduli
    get) when the two lie within 4 ulps.

    The run test compares strictly against eps, so the one-ulp spread of
    ``abs(m * e^{i theta})`` over angles could flip it at a tie; evidence
    is a function of this modulus, which keeps verdicts rotation invariant.
    A modulus further from 12 digits, such as a weight itself, stays exact.
    """
    r = abs(complex(lam))
    q = round(r, 12)
    return q if abs(q - r) <= 4 * math.ulp(r) else r


def run_criterion(
    w: WeightSequence,
    lam: complex,
    eps_schedule=None,
    d_schedule=None,
    k_max: int | None = None,
) -> RunEvidence:
    """Scan for runs of d+2 consecutive weights within eps of |lambda|."""
    if eps_schedule is None or d_schedule is None:
        eps_schedule, d_schedule = CharacterConfig().run_levels()
    eps_schedule = list(eps_schedule)
    d_schedule = list(d_schedule)
    if not eps_schedule or len(eps_schedule) != len(d_schedule):
        raise ValueError("need matching non-empty eps and d schedules")
    dist = np.abs(w.a - lambda_modulus(lam))
    deepest = -1
    levels = []
    for level, (eps, d) in enumerate(zip(eps_schedule, d_schedule)):
        km = k_max if k_max is not None else w.n - d - 2
        window = min(w.n, max(km, 0) + d + 2)
        close = dist[:window] < eps
        best, best_start = _longest_run(close)
        found = best >= d + 2
        levels.append((float(eps), int(d), bool(found), int(best_start), int(best)))
        if found and deepest == level - 1:
            deepest = level
    return RunEvidence(kind="run", levels=tuple(levels), deepest=deepest, delta=float(np.min(dist)))


def _longest_run(mask: np.ndarray):
    """Length and start of the first longest run of True, vectorized.

    Only the run edges are indexed, so no full-length integer array is
    formed: at 2^15 weights those were 256 KB each, allocated and faulted
    in afresh several times per level.
    """
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    if len(edges) == 0:
        return 0, -1
    lengths = edges[1::2] - edges[::2]
    i = int(np.argmax(lengths))
    return int(lengths[i]), int(edges[2 * i])


def tridiagonal_parts(w: WeightSequence, lam: complex, n: int):
    """Diagonal and first superdiagonal of the truncated X."""
    if n < 2:
        raise ValueError("need truncation n >= 2")
    if w.n < n:
        raise ValueError(f"weight sequence holds {w.n} weights, need {n}")
    lam = complex(lam)
    asq = w.a[:n] ** 2
    diag = asq + np.concatenate(([0.0], asq[: n - 1])) + 2 * abs(lam) ** 2
    off = -2.0 * lam * w.a[: n - 1]
    return diag, off


def character_membership(
    w: WeightSequence, lam: complex, config: CharacterConfig | None = None
) -> CharacterVerdict:
    """Combine run, gap, and trend evidence into a membership verdict."""
    return _verdicts(w, [complex(lam)], config or CharacterConfig())[0]


def _usable_schedule(cfg: CharacterConfig, w: WeightSequence) -> list:
    usable = [n for n in cfg.n_schedule if n <= w.n]
    if not usable:
        if w.n < 2:
            raise ValueError("weight sequence too short for any truncation")
        usable = [w.n]
    return usable


def _assemble_verdict(runs, gap, trend) -> tuple:
    """(verdict, deciding channel) of one modulus's evidence; an
    inconclusive verdict reports the trend."""
    member_ev = runs.satisfied or trend.classification == VANISHING
    non_ev = (gap is not None and gap.verified) or trend.classification == BOUNDED_BELOW
    if member_ev and not non_ev:
        return MEMBER, runs if runs.satisfied else trend
    if non_ev and not member_ev:
        return NON_MEMBER, gap if (gap is not None and gap.verified) else trend
    return INCONCLUSIVE, trend


def character_set_scan(
    w: WeightSequence,
    moduli,
    n_angles: int = 1,
    config: CharacterConfig | None = None,
) -> list:
    """Verdicts over a modulus x angle grid, in modulus-major order.

    Rotation invariance makes the evidence a function of |lambda|, so X_N
    is solved once per distinct |lambda| and the angles share its evidence.
    """
    lams = [
        complex(complex(m) * np.exp(2j * np.pi * k / n_angles))
        for m in moduli
        for k in range(n_angles)
    ]
    return _verdicts(w, lams, config or CharacterConfig())


def _solver_threads() -> int:
    """The CPUs this process may run on (every CPU where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1


def _lambda_mins(w: WeightSequence, tasks: list) -> list:
    """lambda_min(X_N) for each (modulus, N) task, in task order.

    The solves are independent and ``lapack.dstebz`` releases the GIL, so
    they run on one thread per CPU (at most one per task), largest N
    first so that no long solve starts last; the results are read back in
    task order, so the values do not depend on the thread count.  A
    thread holds one X_N at a time: memory is O(threads * N).  With the
    CLI's BLAS thread policy on (``lapack.one_blas_thread``), the solver
    threads are the only busy threads: no OpenBLAS worker spins beside them.
    """

    def solve(task):
        return float(lambda_min_batch(*tridiagonal_parts(w, *task))[0])

    threads = min(_solver_threads(), len(tasks))
    if threads <= 1:
        return [solve(task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(threads)
    try:
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
        futures = {i: pool.submit(solve, tasks[i]) for i in order}
        return [futures[i].result() for i in range(len(tasks))]
    finally:
        # a failed solve drops the tasks not yet started
        pool.shutdown(cancel_futures=True)


def _verdicts(w: WeightSequence, lams: list, cfg: CharacterConfig) -> list:
    """The one evidence path: X_N is built and solved once per distinct
    |lambda| and truncation (``_lambda_mins``, on one thread per CPU, so
    memory is O(threads * N)), each modulus is decided once, and each
    lambda shares the verdict and channels of its modulus."""
    if not lams:
        return []
    usable_n = _usable_schedule(cfg, w)
    eps_schedule, d_schedule = cfg.run_levels()
    k_max = min(cfg.scan_len, w.n) - 2 ** cfg.m_max - 2
    keys = [lambda_modulus(lam) for lam in lams]
    moduli = list(dict.fromkeys(keys))
    lmins = iter(_lambda_mins(w, [(r, n) for r in moduli for n in usable_n]))
    decided = {}
    for r in moduli:
        lam_min = [next(lmins) for _ in usable_n]
        sigma = [math.sqrt(max(x, 0.0)) for x in lam_min]
        runs = run_criterion(w, r, eps_schedule, d_schedule, k_max=k_max)
        # a positive delta certifies X >= delta^2/2, checked against the
        # solver's lambda_min of the deepest truncation
        d = runs.delta
        gap = None if d <= 0.0 else GapEvidence("gap", d, d * d / 2.0, lam_min[-1], usable_n[-1])
        trend = TrendEvidence(
            kind="sigma_trend",
            ns=tuple(usable_n),
            sigma_min=tuple(sigma),
            classification=classify_trend(sigma, cfg.trend),
        )
        decided[r] = (*_assemble_verdict(runs, gap, trend), {"run": runs, "gap": gap, "sigma_trend": trend})
    return [CharacterVerdict(complex(lam), *decided[r]) for lam, r in zip(lams, keys)]


def scan_to_dict(verdicts: list, config: CharacterConfig) -> dict:
    """A scan as plain data for ``formats.to_json``, the ``charspace``
    document: ``schedules`` once; ``moduli``, one record per distinct
    |lambda| in first-appearance order, with its verdict, the channel that
    decided it (``decided_by``, None when inconclusive) and all three
    channels (``gap`` None when delta = 0); and ``verdicts``, per lambda
    only its verdict."""
    records = {}
    for v in verdicts:
        r = lambda_modulus(v.lam)
        if r not in records:
            runs, gap, trend = v.channels["run"], v.channels["gap"], v.channels["sigma_trend"]
            records[r] = {
                "modulus": r,
                "verdict": v.verdict,
                "decided_by": None if v.verdict == INCONCLUSIVE else v.evidence.kind,
                "run": {"deepest_level": runs.deepest, "levels": runs.levels},
                "gap": None if gap is None else {
                    "delta": gap.delta, "bound": gap.bound, "lambda_min": gap.lambda_min, "n": gap.n,
                },
                "sigma_trend": {"ns": trend.ns, "sigma_min": trend.sigma_min, "classification": trend.classification},
            }
    return {
        "schedules": {
            "m_max": config.m_max,
            "n_schedule": list(verdicts[0].channels["sigma_trend"].ns) if verdicts else [],
            "scan_len": config.scan_len,
        },
        "moduli": list(records.values()),
        "verdicts": [{"lambda": v.lam, "verdict": v.verdict} for v in verdicts],
    }
