"""Character-space membership: runs, gap certificates, trends, scans."""

import math

import numpy as np
import pytest

from berezin_lab import characters
from berezin_lab.characters import (
    MEMBER,
    NON_MEMBER,
    CharacterConfig,
    _longest_run,
    character_membership,
    character_set_scan,
    run_criterion,
    scan_to_dict,
    tridiagonal_parts,
)
from berezin_lab.formats import to_json
from berezin_lab.shifts import (
    cluster_weights,
    constant_weights,
    simple_weights,
    space_weights,
)
from berezin_lab.spaces import monomial_norms
from berezin_lab.trends import INCONCLUSIVE, TrendThresholds
from oracles import dense_tridiagonal, window_residuals

rng = np.random.default_rng(818283)


def dense_X_oracle(a, lam, n):
    """(T-l)^*(T-l) + (T-l)(T-l)^* assembled from the dense shift.

    Assembled one size larger and compressed, so the corner entry carries
    a_{n-1}^2 like every nested truncation of the full operator."""
    m = n + 1
    t = np.zeros((m, m), dtype=complex)
    t[np.arange(1, m), np.arange(m - 1)] = a[: m - 1]
    d = t - lam * np.eye(m)
    full = d.conj().T @ d + d @ d.conj().T
    return full[:n, :n]


# ---------------------------------------------------------------------------
# run criterion


def test_runs_constant_weights_at_modulus_one():
    w = constant_weights(1.0, 4096)
    ev = run_criterion(w, np.exp(0.7j))
    assert ev.satisfied
    assert ev.deepest == len(ev.levels) - 1


def test_runs_constant_weights_fail_off_modulus():
    w = constant_weights(1.0, 4096)
    ev = run_criterion(w, 0.5)
    # fails already at eps = 1/4: all weights are 1
    assert not ev.levels[2][2]
    assert not ev.satisfied


def test_runs_cluster_set_unbounded():
    w = cluster_weights([1.0, 0.5], 20000)
    ev = run_criterion(w, 0.5)
    assert ev.satisfied
    # oracle: direct scan of the emitted sequence for the longest 0.5-run
    longest = 0
    cur = 0
    for a in w.a:
        cur = cur + 1 if a == 0.5 else 0
        longest = max(longest, cur)
    assert longest >= 2 ** 6 + 2


def test_longest_run_matches_loop():
    # the first longest run of True, by a direct scan
    def loop(mask):
        best, start, cur = 0, -1, 0
        for i, m in enumerate(mask):
            cur = cur + 1 if m else 0
            if cur > best:
                best, start = cur, i - cur + 1
        return best, start

    for n in (0, 1, 2, 3, 7, 64, 1000):
        for p in (0.0, 0.3, 0.7, 0.95, 1.0):
            mask = rng.random(n) < p
            assert _longest_run(mask) == loop(mask), (n, p)


def test_runs_schedule_validation():
    w = constant_weights(1.0, 64)
    with pytest.raises(ValueError):
        run_criterion(w, 1.0, [], [])
    with pytest.raises(ValueError):
        run_criterion(w, 1.0, [0.5], [1, 2])


# ---------------------------------------------------------------------------
# tridiagonal X


def test_tridiagonal_entries_at_zero():
    w = constant_weights(1.0, 16)
    x = dense_tridiagonal(*tridiagonal_parts(w, 0.0, 8))
    assert np.allclose(np.diag(x), [1, 2, 2, 2, 2, 2, 2, 2])
    assert np.allclose(np.diag(x, 1), 0)


@pytest.mark.parametrize("lam", [0.3, -0.4 + 0.2j, 0.9j, 1.1])
def test_tridiagonal_matches_dense_assembly(lam):
    for wgen in (
        constant_weights(0.8, 64),
        simple_weights(0.5, 64),
        cluster_weights([1.0, 0.5, 0.25], 64),
    ):
        got = dense_tridiagonal(*tridiagonal_parts(wgen, lam, 32))
        want = dense_X_oracle(wgen.a, lam, 32)
        assert np.max(np.abs(got - want)) < 1e-14


def test_tridiagonal_real_for_real_data():
    w = simple_weights(0.5, 32)
    x = dense_tridiagonal(*tridiagonal_parts(w, 0.25, 16))
    assert np.max(np.abs(x.imag)) == 0.0
    assert np.allclose(x, x.T)


def test_tridiagonal_needs_two_rows():
    with pytest.raises(ValueError):
        tridiagonal_parts(constant_weights(1.0, 8), 0.1, 1)


# ---------------------------------------------------------------------------
# gap certificates


def gap_certificate(w, lam):
    """The gap channel of the membership verdict at lambda."""
    return character_membership(w, lam).channels["gap"]


def test_gap_certificate_constant_weights():
    w = constant_weights(1.0, 2048)
    ev = gap_certificate(w, 0.5)
    assert ev is not None
    assert ev.delta == pytest.approx(0.5)
    assert ev.bound == pytest.approx(0.125)
    assert ev.lambda_min >= 0.125 - 1e-10
    assert ev.verified


def test_gap_certificate_absent_on_the_circle():
    w = constant_weights(1.0, 512)
    assert gap_certificate(w, 1.0) is None


def test_gap_certificate_simple_weights():
    w = simple_weights(0.5, 2048)
    ev = gap_certificate(w, 0.3)
    # oracle: min over generated weights
    assert ev.delta == pytest.approx(float(np.min(np.abs(w.a - 0.3))))
    assert ev.delta > 0.2
    assert ev.verified


def test_gap_certificate_soundness_random():
    for _ in range(8):
        r = float(rng.uniform(0.3, 0.7))
        w = simple_weights(r, 1024)
        lam = complex(rng.uniform(0, 1.2) * np.exp(2j * np.pi * rng.uniform()))
        ev = gap_certificate(w, lam)
        if ev is not None:
            assert ev.lambda_min >= ev.bound - 1e-10


# ---------------------------------------------------------------------------
# oscillatory test vectors


def test_window_residuals_on_matching_run():
    w = constant_weights(1.0, 256)
    fwd, back = window_residuals(w, 1.0, 0, 100)
    assert fwd <= 0.3 and back <= 0.3
    # oracle: dense application of T - I to the window vector
    n = 103
    t = np.zeros((n, n))
    t[np.arange(1, n), np.arange(n - 1)] = 1.0
    x = np.zeros(n, dtype=complex)
    x[1:101] = 1 / np.sqrt(100)
    assert fwd == pytest.approx(np.linalg.norm((t - np.eye(n)) @ x), abs=1e-12)


def test_window_residuals_mismatched_modulus():
    w = constant_weights(1.0, 256)
    fwd, _ = window_residuals(w, 0.5, 0, 100)
    assert fwd >= 0.4


def test_window_residuals_oscillation_matters():
    w = constant_weights(1.0, 256)
    lam = np.exp(1j * np.pi / 3)
    fwd, back = window_residuals(w, lam, 0, 144)
    assert fwd <= 0.2 and back <= 0.2


def test_window_residuals_degenerate_and_errors():
    w = constant_weights(1.0, 64)
    fwd, back = window_residuals(w, 1.0, 0, 1)
    assert np.isfinite(fwd) and np.isfinite(back)
    with pytest.raises(ValueError):
        window_residuals(w, 1.0, 60, 10)


# ---------------------------------------------------------------------------
# membership verdicts


CFG = CharacterConfig(n_schedule=(256, 512, 1024, 2048), scan_len=2 ** 14)


def test_hardy_membership_on_circle():
    w = constant_weights(1.0, 2 ** 14)
    v = character_membership(w, np.exp(1j * np.pi / 4), CFG)
    assert v.verdict == MEMBER
    assert v.channels["run"].satisfied


def test_hardy_non_membership_at_zero():
    w = constant_weights(1.0, 2 ** 14)
    v = character_membership(w, 0.0, CFG)
    assert v.verdict == NON_MEMBER
    # sigma_min of the column at lambda = 0 is exactly 1
    assert v.channels["sigma_trend"].sigma_min[-1] == pytest.approx(1.0, abs=1e-10)


def test_hardy_interior_certificates():
    w = constant_weights(1.0, 2 ** 14)
    for mod in (0.25, 0.6, 0.9):
        v = character_membership(w, mod, CFG)
        assert v.verdict == NON_MEMBER
        assert v.channels["gap"] is not None and v.channels["gap"].verified


def test_simple_weights_everywhere_non_member():
    w = simple_weights(0.5, 2 ** 14)
    for mod in (0.25, 0.5, 0.7071, 0.9, 1.0):
        v = character_membership(w, mod * np.exp(0.4j), CFG)
        assert v.verdict in (NON_MEMBER, INCONCLUSIVE)
    # the accumulation moduli still come out non-member via the trend
    v = character_membership(w, 1.0, CFG)
    assert v.verdict == NON_MEMBER


def test_rotation_invariance_of_verdicts():
    w = cluster_weights([1.0, 0.5], 2 ** 14)
    for mod in (0.5, 0.75):
        scan = character_set_scan(w, [mod], n_angles=5, config=CFG)
        assert len({v.verdict for v in scan}) == 1
        # |0.75 e^{6 pi i/5}| = 0.7500000000000001 ties the strict run test
        # at eps = 1/4 against the weights 0.5 and 1.0; the run level must
        # not move with that ulp
        assert len({v.channels["run"].deepest for v in scan}) == 1
        angles = [complex(mod) * np.exp(2j * np.pi * k / 5) for k in range(5)]
        assert len({run_criterion(w, lam).deepest for lam in angles}) == 1
        # a single query at a scanned lambda sees the scan's evidence
        for v in scan:
            single = character_membership(w, v.lam, CFG)
            assert single.verdict == v.verdict
            assert single.evidence == v.evidence
            assert single.channels == v.channels


def test_membership_channels_agree_randomly():
    # on 50 random weight/lambda instances the run channel and the
    # trend/gap channel agree or one is inconclusive; the rare finite-size
    # conflicts (a slowly decaying sigma_min can look stable early) must
    # surface as inconclusive verdicts carrying both diagnostics
    conflicts = 0
    for _ in range(50):
        kind = rng.integers(0, 3)
        if kind == 0:
            w = constant_weights(float(rng.uniform(0.4, 1.0)), 2 ** 12)
        elif kind == 1:
            w = simple_weights(float(rng.uniform(0.3, 0.8)), 2 ** 12)
        else:
            w = cluster_weights([1.0, float(rng.uniform(0.3, 0.8))], 2 ** 12)
        lam = complex(rng.uniform(0, 1.1) * np.exp(2j * np.pi * rng.uniform()))
        cfg = CharacterConfig(n_schedule=(256, 1024, 2 ** 12), scan_len=2 ** 12)
        v = character_membership(w, lam, cfg)
        runs = v.channels["run"]
        gap = v.channels["gap"]
        trend = v.channels["sigma_trend"]
        member_claim = runs.satisfied or trend.classification == "vanishing"
        non_claim = (gap is not None and gap.verified) or trend.classification == "bounded_below"
        if member_claim and non_claim:
            # a gap certificate with delta below the deepest run tolerance
            # is the expected way this happens: runs only certify
            # membership at resolution m_max
            conflicts += 1
            assert v.verdict == INCONCLUSIVE
            if runs.satisfied and gap is not None and gap.verified:
                assert gap.delta < 2.0 ** -cfg.m_max
    assert conflicts <= 5


# ---------------------------------------------------------------------------
# scans


def test_cluster_scan_recovers_the_set():
    w = cluster_weights([1.0, 0.5, 0.25], 2 ** 15)
    moduli = [round(0.05 * k, 2) for k in range(21)]
    cfg = CharacterConfig(n_schedule=(256, 1024, 4096, 10 ** 4), scan_len=2 ** 15)
    verdicts = character_set_scan(w, moduli, n_angles=1, config=cfg)
    members = {abs(v.lam) for v in verdicts if v.verdict == MEMBER}
    assert members == {0.25, 0.5, 1.0}
    for v in verdicts:
        if abs(v.lam) not in members:
            assert v.verdict == NON_MEMBER


def test_hardy_scan_members_exactly_on_circle():
    w = constant_weights(1.0, 2 ** 14)
    moduli = [round(0.1 * k, 2) for k in range(11)]
    verdicts = character_set_scan(w, moduli, n_angles=2, config=CFG)
    for v in verdicts:
        assert (v.verdict == MEMBER) == (abs(abs(v.lam) - 1.0) < 1e-12)


def test_mu_space_scan_members_only_on_circle():
    space = monomial_norms("mu", 4)
    w = space_weights(space, 2 ** 14)
    assert w.a[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert np.allclose(w.a[1:], 1.0)
    moduli = [0.0, 0.3, 1 / np.sqrt(2), 0.9, 1.0]
    verdicts = character_set_scan(w, moduli, n_angles=1, config=CFG)
    members = {abs(v.lam) for v in verdicts if v.verdict == MEMBER}
    assert members == {1.0}
    # the single matching weight a_0 cannot form runs; the trend still
    # certifies a spectral gap there
    odd = [v for v in verdicts if abs(abs(v.lam) - 1 / np.sqrt(2)) < 1e-12][0]
    assert odd.verdict == NON_MEMBER


def test_slowly_oscillating_weights_fill_a_band():
    # weights oscillating between 0.5 and 1 with |a_{i+1} - a_i| -> 0:
    # runs grow without bound, so every attained modulus is a member;
    # moduli off the band keep a certified gap; band moduli the discrete
    # samples never hit exactly carry a genuine-but-tiny window gap below
    # the run resolution, which the verdict must surface as inconclusive
    n = 2 ** 15
    t = np.arange(n)
    a = 0.75 + 0.25 * np.sin(0.35 * np.sqrt(t))
    from berezin_lab.shifts import explicit_weights

    w = explicit_weights(a)
    cfg = CharacterConfig(n_schedule=(256, 1024, 4096), scan_len=n)
    for mod in (0.75, float(a[2000]), float(a[20000])):
        v = character_membership(w, mod, cfg)
        assert v.verdict == MEMBER, (mod, v.verdict)
        assert v.channels["run"].satisfied
    for mod in (0.3, 0.45, 1.1):
        v = character_membership(w, mod, cfg)
        assert v.verdict == NON_MEMBER, (mod, v.verdict)
        assert v.channels["gap"] is not None and v.channels["gap"].verified
    in_band_off_sample = character_membership(w, 0.6, cfg)
    assert in_band_off_sample.verdict == INCONCLUSIVE
    assert in_band_off_sample.channels["run"].satisfied
    gap = in_band_off_sample.channels["gap"]
    assert gap is not None and 0 < gap.delta < 2.0 ** -cfg.m_max


def test_scan_verdicts_serialize():
    # the schedules once, one record per modulus with every channel, and
    # per lambda only its verdict, which is its modulus's verdict
    import json

    w = constant_weights(1.0, 2048)
    cfg = CharacterConfig(n_schedule=(256, 512, 1024), scan_len=2048)
    verdicts = character_set_scan(w, [0.5, 1.0], n_angles=2, config=cfg)
    doc = json.loads(to_json(scan_to_dict(verdicts, cfg)))
    assert set(doc) == {"schedules", "moduli", "verdicts"}
    assert doc["schedules"] == {"m_max": 6, "n_schedule": [256, 512, 1024], "scan_len": 2048}
    assert [r["modulus"] for r in doc["moduli"]] == [0.5, 1.0]
    for r in doc["moduli"]:
        assert set(r) == {"modulus", "verdict", "decided_by", "run", "gap", "sigma_trend"}
        assert set(r["run"]) == {"deepest_level", "levels"}
        assert set(r["sigma_trend"]) == {"ns", "sigma_min", "classification"}
    half, one = doc["moduli"]
    assert (half["verdict"], half["decided_by"]) == ("non_member", "gap")
    assert set(half["gap"]) == {"delta", "bound", "lambda_min", "n"}
    assert (one["verdict"], one["decided_by"], one["gap"]) == ("member", "run", None)
    by_modulus = {r["modulus"]: r["verdict"] for r in doc["moduli"]}
    assert len(doc["verdicts"]) == 4
    for v in doc["verdicts"]:
        assert set(v) == {"lambda", "verdict"}
        assert v["verdict"] == by_modulus[round(abs(complex(v["lambda"]["re"], v["lambda"]["im"])), 12)]


def test_scan_lambdas_share_their_modulus_channels():
    w = cluster_weights([1.0, 0.5], 2 ** 12)
    cfg = CharacterConfig(n_schedule=(256, 1024), scan_len=2 ** 12)
    scan = character_set_scan(w, [0.5, 0.75], n_angles=3, config=cfg)
    assert len({id(v.channels) for v in scan}) == 2
    assert all(v.channels is scan[0].channels for v in scan[:3])


def test_an_inconclusive_record_keeps_every_channel():
    # the in-band modulus off the samples: the run channel claims
    # membership and a gap below the run resolution claims the opposite;
    # the record names no deciding channel and keeps both diagnostics
    n = 2 ** 15
    a = 0.75 + 0.25 * np.sin(0.35 * np.sqrt(np.arange(n)))
    from berezin_lab.shifts import explicit_weights

    cfg = CharacterConfig(n_schedule=(256, 1024, 4096), scan_len=n)
    verdicts = character_set_scan(explicit_weights(a), [0.6], n_angles=2, config=cfg)
    (record,) = scan_to_dict(verdicts, cfg)["moduli"]
    assert (record["verdict"], record["decided_by"]) == (INCONCLUSIVE, None)
    assert record["run"]["deepest_level"] == cfg.m_max
    assert record["gap"]["lambda_min"] >= record["gap"]["bound"] - 1e-10
    assert record["sigma_trend"]["ns"] == (256, 1024, 4096)


def test_gap_certificate_reports_the_solvers_lambda_min():
    # the gap channel reads lambda_min(X_N) as the solver returned it, not
    # the square of the trend's sigma_min
    w = simple_weights(0.5, 2 ** 12)
    cfg = CharacterConfig(n_schedule=(256, 1024, 2 ** 12), scan_len=2 ** 12)
    checked = 0
    for mod in (0.05, 0.3, 0.7, 0.9, 1.1):
        gap = character_membership(w, mod, cfg).channels["gap"]
        want = float(characters.lambda_min_batch(*tridiagonal_parts(w, mod, 2 ** 12))[0])
        assert gap.n == 2 ** 12 and gap.lambda_min == want
        checked += gap.lambda_min != math.sqrt(max(want, 0.0)) ** 2
    assert checked >= 1


def test_trend_thresholds_configurable():
    w = constant_weights(1.0, 2 ** 13)
    cfg = CharacterConfig(
        n_schedule=(256, 512, 1024),
        scan_len=2 ** 13,
        trend=TrendThresholds(vanish_ratio=0.9, stable_rel=0.2, floor=1e-9),
    )
    v = character_membership(w, 1.0, cfg)
    assert v.verdict == MEMBER


# (weights, grid, distinct moduli times the five truncations 2^8..2^12)
@pytest.mark.parametrize("weights, grid, solves", [
    ("simple:r=0.5", "mod=0:1:0.05,args=2", 21 * 5),
    ("cluster:file={cluster}", "mod=0:1:0.1,args=1", 11 * 5),
    ("constant:c=1", "mod=0.5:1:0.25,args=1", 3 * 5),
])
def test_charspace_bytes_do_not_depend_on_the_solver_threads(monkeypatch, tmp_path, weights, grid, solves):
    from berezin_lab.cli import main

    cluster = tmp_path / "cluster.csv"
    cluster.write_text("p\n0.3\n0.7\n")
    solved = []
    real_solve = characters.lambda_min_batch

    def solve(diags, offs):
        solved.append(np.size(diags))
        return real_solve(diags, offs)

    monkeypatch.setattr(characters, "lambda_min_batch", solve)
    docs, rows = [], []
    for threads in (1, 2, 3):
        monkeypatch.setattr(characters, "_solver_threads", lambda: threads)
        solved.clear()
        out = tmp_path / f"scan-{threads}.json"
        argv = ["charspace", "--weights", weights.format(cluster=cluster), "--weight-count", "4096",
                "--lambda-grid", grid, "--n-max-log2", "12", "--out", str(out)]
        assert main(argv) in (0, 1)
        docs.append(out.read_bytes())
        rows.append(sorted(solved))
    assert docs[0] == docs[1] == docs[2]
    # every thread count solves the same tridiagonals, each once
    assert rows[0] == rows[1] == rows[2] and len(rows[0]) == solves
