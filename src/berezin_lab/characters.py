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
    truncation.

A third channel tracks sigma_min = sqrt(lambda_min(X_N)) over a doubling
truncation schedule and classifies the trend; it is heuristic (a finite
section cannot prove unboundedness below) and is kept in the evidence
for auditing.  Contradicting channels produce "inconclusive" with both
attached.

The matrix entries here follow the dense expansion of X: the
off-diagonal is x_{i,i+1} = -2 lambda a_i (its sign and conjugation are
immaterial to the spectrum, which depends only on |lambda| and the
weights; that is what makes verdicts rotation invariant).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import TruncatedOperator
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


@dataclass(frozen=True)
class RunEvidence:
    kind: str
    levels: tuple  # per level: (eps, d, found, start_index, max_run)
    deepest: int   # deepest satisfied level, -1 if none
    max_run: int   # longest qualifying run seen at the deepest failed level

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
    evidence: object
    channels: dict
    schedules: dict


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
        cfg = CharacterConfig()
        eps_schedule = [2.0 ** -m for m in range(cfg.m_max + 1)]
        d_schedule = [2 ** m for m in range(cfg.m_max + 1)]
    eps_schedule = list(eps_schedule)
    d_schedule = list(d_schedule)
    if not eps_schedule or len(eps_schedule) != len(d_schedule):
        raise ValueError("need matching non-empty eps and d schedules")
    dist = np.abs(w.a - lambda_modulus(lam))
    deepest = -1
    levels = []
    max_run_at_fail = None
    for level, (eps, d) in enumerate(zip(eps_schedule, d_schedule)):
        km = k_max if k_max is not None else w.n - d - 2
        window = min(w.n, max(km, 0) + d + 2)
        close = dist[:window] < eps
        best, best_start = _longest_run(close)
        found = best >= d + 2
        levels.append((float(eps), int(d), bool(found), int(best_start), int(best)))
        if found and deepest == level - 1:
            deepest = level
        if not found and max_run_at_fail is None:
            max_run_at_fail = best
    return RunEvidence(
        kind="run", levels=tuple(levels), deepest=deepest,
        max_run=max_run_at_fail if max_run_at_fail is not None else 0,
    )


def _longest_run(mask: np.ndarray):
    """Length and start of the longest run of True, vectorized."""
    if len(mask) == 0 or not mask.any():
        return 0, -1
    pos = np.arange(len(mask))
    last_false = np.maximum.accumulate(np.where(~mask, pos, -1))
    runlen = np.where(mask, pos - last_false, 0)
    end = int(np.argmax(runlen))
    best = int(runlen[end])
    return best, end - best + 1


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


def tridiagonal_X(w: WeightSequence, lam: complex, n: int) -> TruncatedOperator:
    """Truncation of (T-l)^*(T-l) + (T-l)(T-l)^* as a dense matrix."""
    diag, off = tridiagonal_parts(w, lam, n)
    mat = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    mat[idx, idx] = diag
    mat[idx[:-1], idx[:-1] + 1] = off
    mat[idx[:-1] + 1, idx[:-1]] = np.conj(off)
    return TruncatedOperator(mat, label=f"X(lambda={lam:g})", space=w)


def gap_certificate(w: WeightSequence, lam: complex, n: int | None = None) -> GapEvidence | None:
    """delta = inf |a_k - |lambda||; a positive delta certifies
    X >= delta^2/2 and is checked against lambda_min of the truncation."""
    n = min(w.n, n or w.n)
    diag, off = tridiagonal_parts(w, lam, n)
    lam_min = float(lambda_min_batch(diag[None, :], off[None, :])[0])
    return _gap_from_lambda_min(w, lam, lam_min, n)


def _gap_from_lambda_min(
    w: WeightSequence, lam: complex, lam_min: float, n: int
) -> GapEvidence | None:
    delta = float(np.min(np.abs(w.a - lambda_modulus(lam))))
    if delta <= 0.0:
        return None
    return GapEvidence(
        kind="gap", delta=delta, bound=delta * delta / 2.0, lambda_min=lam_min, n=n
    )


def test_vector_residual(w: WeightSequence, lam: complex, k: int, d: int):
    """Residual norms ||(T-l)x|| and ||(T-l)^*x|| of the oscillatory
    window vector x = d^(-1/2) sum_{j=1..d} e^(-ij theta) e_{k+j}."""
    lam = complex(lam)
    if d < 1 or k < 0:
        raise ValueError("need window k >= 0, d >= 1")
    if k + d + 1 >= w.n:
        raise ValueError(f"window [{k}, {k + d + 1}] runs past {w.n} weights")
    theta = math.atan2(lam.imag, lam.real)
    n = k + d + 2
    x = np.zeros(n, dtype=complex)
    j = np.arange(1, d + 1)
    x[k + j] = np.exp(-1j * j * theta) / math.sqrt(d)
    a = w.a[:n]
    tx = np.zeros(n, dtype=complex)
    tx[1:] = a[:-1] * x[:-1]
    tax = np.zeros(n, dtype=complex)
    tax[:-1] = a[:-1] * x[1:]
    fwd = float(np.linalg.norm(tx - lam * x))
    back = float(np.linalg.norm(tax - np.conj(lam) * x))
    return fwd, back


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


def _assemble_verdict(lam, runs, gap, trend, cfg) -> CharacterVerdict:
    member_ev = runs.satisfied or trend.classification == VANISHING
    non_ev = (gap is not None and gap.verified) or trend.classification == BOUNDED_BELOW
    channels = {"run": runs, "gap": gap, "sigma_trend": trend}
    schedules = {
        "m_max": cfg.m_max,
        "n_schedule": list(trend.ns),
        "scan_len": cfg.scan_len,
    }
    if member_ev and not non_ev:
        primary = runs if runs.satisfied else trend
        verdict = MEMBER
    elif non_ev and not member_ev:
        primary = gap if (gap is not None and gap.verified) else trend
        verdict = NON_MEMBER
    else:
        primary = trend
        verdict = INCONCLUSIVE
    return CharacterVerdict(
        lam=complex(lam), verdict=verdict, evidence=primary,
        channels=channels, schedules=schedules,
    )


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


def _verdicts(w: WeightSequence, lams: list, cfg: CharacterConfig) -> list:
    """The one evidence path: X_N is built and solved once per distinct
    |lambda| and truncation, and each lambda is stamped onto the run, gap
    and trend evidence of its modulus."""
    if not lams:
        return []
    usable_n = _usable_schedule(cfg, w)
    mods = list(dict.fromkeys(lambda_modulus(lam) for lam in lams))
    sigma = {r: [] for r in mods}
    for n in usable_n:
        diags, offs = zip(*(tridiagonal_parts(w, r, n) for r in mods))
        for r, v in zip(mods, lambda_min_batch(np.array(diags), np.array(offs))):
            sigma[r].append(math.sqrt(max(float(v), 0.0)))

    evidence = {}
    for r in mods:
        runs = run_criterion(
            w,
            r,
            [2.0 ** -m for m in range(cfg.m_max + 1)],
            [2 ** m for m in range(cfg.m_max + 1)],
            k_max=min(cfg.scan_len, w.n) - 2 ** cfg.m_max - 2,
        )
        gap = _gap_from_lambda_min(w, r, sigma[r][-1] ** 2, usable_n[-1])
        trend = TrendEvidence(
            kind="sigma_trend",
            ns=tuple(usable_n),
            sigma_min=tuple(sigma[r]),
            classification=classify_trend(sigma[r], cfg.trend),
        )
        evidence[r] = (runs, gap, trend)
    return [_assemble_verdict(lam, *evidence[lambda_modulus(lam)], cfg) for lam in lams]


def verdict_to_dict(v: CharacterVerdict) -> dict:
    """JSON-ready form of one verdict."""
    ev = v.evidence
    if isinstance(ev, RunEvidence):
        evidence = {
            "type": "run_found",
            "deepest_level": ev.deepest,
            "levels": [list(l) for l in ev.levels],
        }
    elif isinstance(ev, GapEvidence):
        evidence = {
            "type": "gap_certificate",
            "delta": ev.delta,
            "bound": ev.bound,
            "lambda_min": ev.lambda_min,
            "n": ev.n,
        }
    else:
        evidence = {
            "type": "sigma_trend",
            "ns": list(ev.ns),
            "sigma_min": list(ev.sigma_min),
            "classification": ev.classification,
        }
    return {
        "lambda": {"re": v.lam.real, "im": v.lam.imag},
        "verdict": v.verdict,
        "evidence": evidence,
        "schedules": v.schedules,
    }


def verdicts_to_json(verdicts, **extra) -> str:
    doc = {"verdicts": [verdict_to_dict(v) for v in verdicts]}
    doc.update(extra)
    return json.dumps(doc, sort_keys=True, indent=2)
