import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from jsonschema import validate
from numpy.testing import assert_allclose

from qmeter import (
    CampaignConfig,
    ConfigError,
    ConsistencyError,
    DimensionMismatchError,
    Observable,
    Operator,
    Scenario,
    TOL_ABS,
    TestState,
    Vector,
    Verdict,
    basis_family,
    conclusive_classes,
    kappa_state,
    class_probabilities,
    labeled_class_operators,
    optimal_test_state,
    outcome_table,
    pairwise_success_angle,
    resolve_test_state,
    run_campaign,
    run_trial,
    sweep_theta,
    sweep_to_csv,
    unlabeled_operators,
)
from qmeter import simulate
from qmeter.cli import DEFAULT_THETA_GRID, parse_theta_grid
from qmeter.haar import haar_unitaries
from qmeter.simulate import (
    SHARD_SIZE,
    _bloch_class_law,
    _bloch_form,
    _bloch_terms,
    _is_invariant,
    _is_z_invariant,
    _labeled_equal_law,
    _labeled_probs_row,
    _meridian_terms,
    _sample_rows,
    _shard_counts,
)
from qmeter.symmetry import swap

SCHEMA_PATH = "docs/campaign_result.schema.json"


# --- config validation --------------------------------------------------------

def test_config_rejects_bad_values():
    scen = Scenario("labeled", 2)
    with pytest.raises(ConfigError):
        CampaignConfig(scen, trials=0, seed=1)
    with pytest.raises(ConfigError):
        CampaignConfig(scen, trials=10, seed=1, ground_truth="maybe")
    with pytest.raises(ConfigError):
        CampaignConfig(scen, trials=10, seed=-1)
    with pytest.raises(ConfigError):
        CampaignConfig(scen, trials=10, seed=True)
    with pytest.raises(ConfigError):
        CampaignConfig(scen, trials=10, seed=1, workers=0)
    # counts and seeds are integers, and a bool is not one; a campaign's
    # trials stop at 2**34 per truth, far inside the int64 class counts
    for bad in ({"trials": 2.5}, {"trials": True}, {"workers": 2.5}, {"workers": True},
                {"seed": 1.0}, {"trials": "10"}, {"test_state": None}, {"test_state": 3},
                {"trials": 2 ** 63}, {"trials": 10 ** 19}):
        with pytest.raises(ConfigError):
            CampaignConfig(scen, **{"trials": 10, "seed": 1, **bad})
    # a scenario name in place of a Scenario once died in an AttributeError
    with pytest.raises(ConfigError):
        CampaignConfig("labeled", trials=10, seed=1)
    with pytest.raises(ConfigError):
        resolve_test_state("optimal", "labeled")
    cfg = CampaignConfig(scen, trials=np.int64(10), seed=np.uint32(1), workers=np.int8(1))
    assert json.loads(run_campaign(cfg).to_json())["trials"] == 10


@pytest.mark.parametrize("trials,seed", [(2.5, 1), (True, 1), (0, 1), (10, -1), (10, 1.0),
                                         (10, False)])
def test_sweep_rejects_bad_trials_and_seeds(trials, seed):
    with pytest.raises(ConfigError):
        sweep_theta([0.3], trials, seed)


def test_resolve_test_state_specs(tmp_path):
    scen_u = Scenario("unlabeled", 2)
    for spec, state in (("optimal", optimal_test_state(scen_u)), ("kappa", kappa_state(1)),
                        ("kappa:3", kappa_state(3))):
        assert_allclose(resolve_test_state(spec, scen_u).rho.mat, state.rho.mat, rtol=0, atol=0)
    with pytest.raises(ConfigError):
        resolve_test_state("kappa:9", scen_u)
    with pytest.raises(ConfigError):
        resolve_test_state("kappa", Scenario("labeled", 2))
    for spec in (None, 3, ["optimal"]):
        with pytest.raises(ConfigError):
            resolve_test_state(spec, Scenario("labeled", 2))
    with pytest.raises(ConfigError):
        resolve_test_state(str(tmp_path / "missing.npy"), scen_u)
    # vector file round-trip
    vec = optimal_test_state(scen_u)
    w, v = vec.pure_components()
    path = tmp_path / "state.npy"
    np.save(path, v[0])
    loaded = resolve_test_state(str(path), scen_u)
    assert_allclose(loaded.rho.mat, vec.rho.mat, atol=1e-12)
    # wrong shape
    np.save(path, np.zeros(7))
    with pytest.raises(ConfigError):
        resolve_test_state(str(path), scen_u)


# --- single trials --------------------------------------------------------------

def test_labeled_trial_record():
    rng = np.random.default_rng(0)
    a = Observable.random(3, rng)
    b = Observable.random(3, rng)
    scen = Scenario("labeled", 3)
    rec = run_trial(scen, a, b, optimal_test_state(scen), rng=rng)
    assert rec.outcomes[0] in range(3) and rec.outcomes[1] in range(3)
    assert rec.outcome_class in ("same", "diff")
    assert rec.verdict in (Verdict.DIFFERENT, Verdict.INCONCLUSIVE)
    assert (rec.verdict is Verdict.DIFFERENT) == (rec.outcome_class == "same")


def test_single_trials_reject_a_state_of_the_other_protocol():
    # the outcome table reads its slot count off the state, so the trial
    # checks it against its protocol
    z = Observable.computational(2)
    labeled, unlabeled = Scenario("labeled", 2), Scenario("unlabeled", 2)
    with pytest.raises(DimensionMismatchError):
        run_trial(labeled, z, z, optimal_test_state(unlabeled), rng=1)
    with pytest.raises(DimensionMismatchError):
        run_trial(unlabeled, z, z, optimal_test_state(labeled), rng=1)


def test_a_trial_decomposes_its_state_once(monkeypatch):
    # a TestState brings its one eigh, so a trial calls none
    z, x = Observable.computational(2), Observable.qubit_angle(0.4)
    scenarios = [Scenario(kind, 2) for kind in ("labeled", "unlabeled")]
    states = [optimal_test_state(scen) for scen in scenarios]
    for scen, state in zip(scenarios, states):
        run_trial(scen, z, x, state, rng=1)  # warm the analytic caches
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    for scen, state in zip(scenarios, states):
        for seed in range(3):
            run_trial(scen, z, x, state, rng=seed)
    assert calls == []


def test_labeled_trial_equal_devices_never_agree():
    # a trial takes no list of conclusive classes: with one it called every
    # equal-device trial of the antisymmetric state "different"
    z = Observable.computational(2)
    labeled = Scenario("labeled", 2)
    with pytest.raises(TypeError):
        run_trial(labeled, z, z, optimal_test_state(labeled), rng=1, conclusive=("diff",))
    rng = np.random.default_rng(42)
    for d in (2, 3):
        scen = Scenario("labeled", d)
        st = optimal_test_state(scen)
        for _ in range(200):
            a = Observable.random(d, rng)
            rec = run_trial(scen, a, a, st, rng=rng)
            assert rec.outcome_class == "diff"
            assert rec.verdict is Verdict.INCONCLUSIVE


def test_unlabeled_trial_record():
    rng = np.random.default_rng(1)
    a = Observable.random(2, rng)
    b = Observable.random(2, rng)
    scen = Scenario("unlabeled", 2)
    rec = run_trial(scen, a, b, optimal_test_state(scen), rng=rng)
    assert len(rec.outcomes) == 4
    assert rec.outcome_class in ("same_same", "same_diff", "diff_same", "diff_diff")


def test_unlabeled_trial_relabeling_hides_labels():
    # with equal devices and the optimal state, the conclusive classes never
    # fire no matter how outcomes are relabeled
    rng = np.random.default_rng(3)
    scen = Scenario("unlabeled", 2)
    optimal = optimal_test_state(scen)
    for i in range(300):
        a = Observable.random(2, rng)
        rec = run_trial(scen, a, a, optimal, rng=rng)
        assert rec.outcome_class in ("same_same", "diff_diff")
        assert rec.verdict is Verdict.INCONCLUSIVE
        # a kappa state certifies diff_diff, which equal devices never give
        rec = run_trial(scen, a, a, kappa_state(1 + i % 3), rng=rng)
        assert rec.outcome_class != "diff_diff"
        assert rec.verdict is Verdict.INCONCLUSIVE


def test_trial_records_are_pinned():
    # labeled d = 2, 3, 4 with the antisymmetric state, then unlabeled with
    # the optimal and kappa_2 states; every third (fourth) pair is equal
    rng = np.random.default_rng(2024)
    records = []
    for d in (2, 3, 4):
        scen = Scenario("labeled", d)
        state = optimal_test_state(scen)
        for i in range(6):
            a = Observable.random(d, rng)
            b = a if i % 3 == 0 else Observable.random(d, rng)
            records.append(run_trial(scen, a, b, state, rng=rng))
    scen = Scenario("unlabeled", 2)
    optimal = optimal_test_state(scen)
    for i in range(8):
        a = Observable.random(2, rng)
        b = a if i % 4 == 0 else Observable.random(2, rng)
        records.append(run_trial(scen, a, b, kappa_state(2) if i % 2 else optimal, rng=rng))
    assert [(r.outcomes, r.outcome_class, r.verdict.value) for r in records] == [
        ((0, 1), "diff", "inconclusive"),
        ((0, 0), "same", "different"),
        ((1, 1), "same", "different"),
        ((0, 1), "diff", "inconclusive"),
        ((0, 0), "same", "different"),
        ((1, 1), "same", "different"),
        ((2, 0), "diff", "inconclusive"),
        ((1, 1), "same", "different"),
        ((0, 1), "diff", "inconclusive"),
        ((0, 2), "diff", "inconclusive"),
        ((2, 0), "diff", "inconclusive"),
        ((2, 1), "diff", "inconclusive"),
        ((2, 1), "diff", "inconclusive"),
        ((2, 3), "diff", "inconclusive"),
        ((2, 1), "diff", "inconclusive"),
        ((0, 1), "diff", "inconclusive"),
        ((0, 2), "diff", "inconclusive"),
        ((3, 3), "same", "different"),
        ((0, 0, 0, 0), "same_same", "inconclusive"),
        ((1, 0, 0, 1), "diff_diff", "different"),
        ((0, 0, 0, 0), "same_same", "inconclusive"),
        ((0, 0, 1, 0), "same_diff", "inconclusive"),
        ((1, 1, 1, 1), "same_same", "inconclusive"),
        ((0, 0, 1, 1), "same_same", "inconclusive"),
        ((1, 1, 0, 0), "same_same", "inconclusive"),
        ((1, 0, 0, 0), "diff_same", "inconclusive"),
    ]


# --- campaigns ------------------------------------------------------------------

def test_shard_layout(monkeypatch):
    # each stream that draws devices is cut into full shards and a short
    # last one, numbered from 0: kappa:2 draws devices in both streams
    tasks = []
    shard_counts = simulate._shard_counts
    monkeypatch.setattr(simulate, "_shard_counts",
                        lambda task: tasks.append((task[2], *task[-2:])) or shard_counts(task))
    scen = Scenario("unlabeled", 2)
    run_campaign(CampaignConfig(scen, trials=1, seed=1, test_state="kappa:2"))
    assert tasks == [("different", 0, 1), ("equal", 0, 1)]
    tasks.clear()
    run_campaign(CampaignConfig(scen, trials=2 * SHARD_SIZE + 5, seed=1, test_state="kappa:2"))
    assert tasks == [(truth, shard, count) for truth in ("different", "equal")
                     for shard, count in ((0, SHARD_SIZE), (1, SHARD_SIZE), (2, 5))]


def test_campaign_counts_add_up():
    cfg = CampaignConfig(Scenario("labeled", 2), trials=3000, seed=9, ground_truth="both")
    res = run_campaign(cfg)
    for truth in ("different", "equal"):
        block = res.results[truth]
        assert sum(block.class_counts.values()) == 3000
        assert block.different_verdicts + block.inconclusive_verdicts == 3000
    assert res.results["equal"].different_verdicts == 0


def test_campaign_seed_determinism_and_worker_independence():
    scen = Scenario("unlabeled", 2)
    trials = SHARD_SIZE + 777  # spans two shards
    a = run_campaign(CampaignConfig(scen, trials=trials, seed=5, workers=1)).to_json()
    b = run_campaign(CampaignConfig(scen, trials=trials, seed=5, workers=3)).to_json()
    c = run_campaign(CampaignConfig(scen, trials=trials, seed=6, workers=1)).to_json()
    assert a == b
    assert a != c
    # the JSON does not leak the worker count
    assert "workers" not in json.loads(a)


def test_one_pool_per_campaign_capped_at_the_task_count(monkeypatch):
    # both truths share one pool for the shards after the first, which runs
    # here, and a fork pool starts every worker up front, so it must not get
    # more workers than there are shards left to send; the "equal" shards of
    # an invariant state draw no device and never go.  The host's CPUs are
    # taken as plenty, so only the task count caps, and a start-up cost of 0
    # makes a pool pay for any split.
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(simulate, "_POOL_START_S", 0.0)
    pools = []

    class RecordingPool(simulate.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append([max_workers])
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, tasks, **kwargs):
            pools[-1].append(sorted((t[2], t[-2]) for t in tasks))
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    cfg = CampaignConfig(Scenario("unlabeled", 2), trials=SHARD_SIZE + 1, seed=5, workers=4,
                         test_state="kappa:2")
    pooled = run_campaign(cfg).to_json()
    # two shards per truth, and ("different", 0) ran here
    assert pools == [[3, [("different", 1), ("equal", 0), ("equal", 1)]]]
    assert pooled == run_campaign(replace(cfg, workers=1)).to_json()
    assert len(pools) == 1  # workers=1 opens no pool
    run_campaign(replace(cfg, trials=3000))
    assert len(pools) == 1  # one shard per truth leaves one to send, and one is no split
    optimal = replace(cfg, test_state="optimal")
    run_campaign(optimal)
    assert len(pools) == 1  # two shards draw devices, the same
    pooled = run_campaign(replace(optimal, trials=2 * SHARD_SIZE + 1)).to_json()
    assert pools[1] == [2, [("different", 1), ("different", 2)]]
    assert pooled == run_campaign(replace(optimal, trials=2 * SHARD_SIZE + 1, workers=1)).to_json()


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    # a worker count far above the CPUs would fork that many processes for
    # output that is the same at any count; the stand-in pool starts none,
    # and a start-up cost of 0 makes it pay for any split
    monkeypatch.setattr(simulate, "_POOL_START_S", 0.0)
    sizes = []

    class StandInPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            sizes.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", StandInPool)
    cfg = CampaignConfig(Scenario("labeled", 2), trials=4 * SHARD_SIZE + 1, seed=3,
                         ground_truth="different", workers=4000)  # five shards
    serial = run_campaign(replace(cfg, workers=1)).to_json()
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
    assert run_campaign(cfg).to_json() == serial
    # without an affinity mask the machine's CPU count caps, and with no
    # known count the campaign runs in this process
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    assert run_campaign(cfg).to_json() == serial
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert run_campaign(cfg).to_json() == serial
    assert sizes == [3, 4, 4, 4]  # (workers, shards sent) twice; the first shard ran here


@pytest.mark.parametrize("first_s, rest, workers, pays", [
    (1000.0, 1, 1, False),  # one shard left is never split
    (0.016, 3, 2, False),  # 131,072-trial kappa:2: saves 24 ms
    (0.0045, 15, 2, False),  # 1,048,576-trial optimal: saves 34 ms
    (0.012, 31, 2, True),  # 1,048,576-trial kappa:2: saves 186 ms
    (0.040, 2, 2, False),  # saves 40 ms, not more
    (0.041, 2, 2, True),
    (0.010, 8, 2, False),  # saves 40 ms on two workers
    (0.010, 8, 8, True),  # and 70 ms on eight
])
def test_the_pool_starts_only_when_the_split_saves_its_start_up(monkeypatch, first_s, rest,
                                                                 workers, pays):
    # the rest are priced at the first shard's time each, split over the
    # workers, against a start-up cost of 40 ms; the first cases follow
    # campaigns measured on a 2-vCPU host
    monkeypatch.setattr(simulate, "_POOL_START_S", 0.040)
    assert simulate._pool_pays(first_s, rest, workers) is pays


@pytest.mark.parametrize("start_up_s", [0.0, float("inf")], ids=["forced", "refused"])
@pytest.mark.parametrize("kind, dim, state, trials", [
    ("labeled", 3, "optimal", 3 * SHARD_SIZE + 5),
    ("unlabeled", 2, "kappa:2", 2 * SHARD_SIZE + 5),
], ids=["labeled-d3", "kappa2"])
def test_campaign_bytes_do_not_depend_on_whether_the_pool_starts(monkeypatch, start_up_s, kind,
                                                                  dim, state, trials):
    # which process runs a shard never changes a count: the same bytes come
    # from one process, from a pool that always pays and from one that never
    # does, across several shards of each drawn truth
    started = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(**kwargs)

    cfg = CampaignConfig(Scenario(kind, dim), trials=trials, seed=31, workers=1, test_state=state)
    serial = run_campaign(cfg).to_json()
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_POOL_START_S", start_up_s)
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    assert run_campaign(replace(cfg, workers=2)).to_json() == serial
    assert started == ([2] if start_up_s == 0 else [])


def test_campaign_single_truth_blocks():
    cfg = CampaignConfig(Scenario("labeled", 2), trials=500, seed=2, ground_truth="different")
    doc = run_campaign(cfg).to_json_dict()
    assert set(doc["results"]) == {"different"}
    assert "success_estimate" in doc["results"]["different"]
    cfg2 = CampaignConfig(Scenario("labeled", 2), trials=500, seed=2, ground_truth="equal")
    doc2 = run_campaign(cfg2).to_json_dict()
    assert set(doc2["results"]) == {"equal"}
    assert doc2["results"]["equal"]["false_positives"] == 0


def test_campaign_matches_schema():
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    for scen, truth in [(Scenario("labeled", 3), "both"),
                        (Scenario("unlabeled", 2), "different"),
                        (Scenario("unlabeled", 2), "equal")]:
        cfg = CampaignConfig(scen, trials=2000, seed=1, ground_truth=truth)
        doc = run_campaign(cfg).to_json_dict()
        validate(instance=doc, schema=schema)


def test_campaign_success_tracks_analytic():
    from qmeter import analytic_success
    cfg = CampaignConfig(Scenario("unlabeled", 2), trials=40000, seed=17,
                         ground_truth="different")
    block = run_campaign(cfg).results["different"]
    target = analytic_success(Scenario("unlabeled", 2)).total
    assert abs(block.different_rate - target) < 5 * block.different_rate_stderr


def test_campaign_kappa_state():
    cfg = CampaignConfig(Scenario("unlabeled", 2), trials=30000, seed=8,
                         ground_truth="both", test_state="kappa:2")
    res = run_campaign(cfg)
    assert res.conclusive == ("diff_diff",)
    assert res.results["equal"].different_verdicts == 0
    rate = res.results["different"].different_rate
    assert abs(rate - 1 / 9) < 5 * res.results["different"].different_rate_stderr


@pytest.mark.parametrize("spec", ["kappa:2", "kappa_mix"])
def test_kappa_equal_streams_give_no_false_positive_in_a_million_trials(tmp_path, spec):
    # the Bloch class law of the prepared state puts at most TOL_ABS/2 plus
    # rounding on diff_diff in every equal-device trial, and the clamp makes
    # it exactly 0, for the pure state and for the mixture alike
    path = _kappa_mixture_file(tmp_path) if spec == "kappa_mix" else spec
    res = run_campaign(CampaignConfig(Scenario("unlabeled", 2), trials=1 << 20, seed=20,
                                      ground_truth="equal", test_state=path))
    assert res.conclusive == ("diff_diff",)
    assert res.results["equal"].different_verdicts == 0
    assert sum(res.results["equal"].class_counts.values()) == 1 << 20


def test_labeled_different_shard_draws_one_uniform_per_trial_for_its_row(monkeypatch):
    # a labeled "different" batch draws one uniform v per trial for its
    # row, 1 - |x_0|^2 = v^(1 / (d - 1)), and then one uniform per trial
    # for its class, sampled from the two-class law (1 - r, r): no
    # unitary, no component and no equal-device law, even for a mixed
    # state that is not invariant.  With equal devices the antisymmetric
    # state's law puts every trial in "diff".
    d, trials = 3, 4000
    anti = optimal_test_state(Scenario("labeled", d))
    w, v = anti.pure_components()
    equal = _shard_counts(("labeled", d, "equal", 2, None, w, v, 99, 0, trials))
    assert equal.tolist() == [0, trials]

    def no_call(*args, **kwargs):
        raise AssertionError("unitary or equal-device law")

    monkeypatch.setattr(simulate, "haar_unitaries", no_call)
    monkeypatch.setattr(simulate, "_labeled_equal_law", no_call)
    mixture = _antisymmetric_mixture(d, (0.7, 0.3), 8)
    assert not _is_invariant(mixture.rho)
    gen = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0, 0)))
    rest = gen.random(trials) ** (1 / (d - 1))  # one batch: trials < _SUBCHUNK
    expected = _sample_rows(np.stack((1 - rest, rest)), gen).tolist()
    for state in (anti, mixture):
        w, v = state.pure_components()
        counts = _shard_counts(("labeled", d, "different", 2, None, w, v, 99, 0, trials))
        assert counts.tolist() == expected


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_different_draw_has_the_moments_of_a_haar_row(monkeypatch, d):
    # the "same" probability p a labeled "different" trial samples from must
    # be |x_0|^2 for x uniform on the unit sphere of C^d: mean 1/d and
    # second moment E|x_0|^4 = 2 / (d (d + 1)).  A constant law p = 1/d
    # gives every class count its right mean, so only the spread of p tells
    # the two apart
    laws = []
    sample = simulate._sample_rows
    monkeypatch.setattr(simulate, "_sample_rows",
                        lambda p, gen: laws.append(p[0].copy()) or sample(p, gen))
    w, v = optimal_test_state(Scenario("labeled", d)).pure_components()
    trials = 2 * SHARD_SIZE
    _shard_counts(("labeled", d, "different", 0, None, w, v, 300 + d, 0, trials))
    p = np.concatenate(laws)
    assert len(p) == trials
    for power, moment in ((1, 1 / d), (2, 2 / (d * (d + 1)))):
        x = p ** power
        se = x.std() / np.sqrt(trials)
        assert abs(x.mean() - moment) <= 5 * se, (power, x.mean(), moment, se)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_different_draw_follows_the_law_of_a_haar_row(monkeypatch, d):
    # |x_0|^2 of a uniform unit vector in C^d is the first coordinate of a
    # flat Dirichlet, Beta(1, d - 1), with CDF 1 - (1 - t)^(d - 1): the
    # "same" probability of a labeled "different" trial must follow it at
    # every t, not only in its first two moments
    laws = []
    sample = simulate._sample_rows
    monkeypatch.setattr(simulate, "_sample_rows",
                        lambda p, gen: laws.append(p[0].copy()) or sample(p, gen))
    w, v = optimal_test_state(Scenario("labeled", d)).pure_components()
    trials = 2 * SHARD_SIZE
    _shard_counts(("labeled", d, "different", 0, None, w, v, 400 + d, 0, trials))
    p = np.concatenate(laws)
    assert len(p) == trials
    for t in (0.05, 0.1, 0.25, 0.5, 0.75):
        cdf = 1 - (1 - t) ** (d - 1)
        se = np.sqrt(cdf * (1 - cdf) / trials)
        assert abs(np.mean(p <= t) - cdf) <= 5 * se, (t, np.mean(p <= t), cdf, se)


def _antisymmetric_qutrit_file(tmp_path) -> str:
    # a pure antisymmetric d=3 vector: one vector of a three-dimensional
    # subspace is not invariant, but it is certified for "same", so its
    # "equal" stream is all "diff" and draws nothing
    m = np.array([[0, 1, 2j], [-1, 0, 1], [-2j, -1, 0]])
    path = tmp_path / "anti3.npy"
    np.save(path, m.reshape(-1) / np.linalg.norm(m))
    return str(path)


def _antisymmetric_projector_file(tmp_path) -> str:
    # the labeled d=3 optimal state as a custom density matrix: invariant, so
    # its "equal" stream draws no device although its kind is "custom"
    path = tmp_path / "anti_proj3.npy"
    np.save(path, optimal_test_state(Scenario("labeled", 3)).rho.mat)
    return str(path)


def _invariant_mixture(d: int, w_sym: float) -> TestState:
    # w_sym of the normalized symmetric projector plus the rest of the
    # normalized antisymmetric one: alpha 1 + beta SWAP with beta != -alpha
    s = swap(1, 2, 2, d).mat
    one = np.eye(d * d)
    rho = w_sym * (one + s) / (d * (d + 1)) + (1 - w_sym) * (one - s) / (d * (d - 1))
    return TestState(Operator(rho, d, 2))


def _invariant_mixture_file(tmp_path) -> str:
    path = tmp_path / "invariant_mix3.npy"
    np.save(path, _invariant_mixture(3, 0.3).rho.mat)
    return str(path)


def _kappa_mixture_file(tmp_path) -> str:
    fam = basis_family("kappa")
    rho = sum(w * v.projector().mat for w, v in zip((0.5, 0.3, 0.2), fam))
    path = tmp_path / "kappa_mix.npy"
    np.save(path, rho)
    return str(path)


def _antisymmetric_mixture(d: int, weights, seed: int) -> TestState:
    # a mixture of random antisymmetric vectors: certified for class "same",
    # and not invariant while its rank is below d(d-1)/2
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(len(weights), d, d)) + 1j * rng.normal(size=(len(weights), d, d))
    vecs = (x - x.transpose(0, 2, 1)).reshape(len(weights), -1)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    rho = np.einsum("r,ri,rj->ij", np.asarray(weights), vecs, vecs.conj())
    return TestState(Operator(rho, d, 2))


def _antisymmetric_mixture_file(tmp_path) -> str:
    path = tmp_path / "anti_mix4.npy"
    np.save(path, _antisymmetric_mixture(4, (0.5, 0.3, 0.2), 404).rho.mat)
    return str(path)


def _spin0_mixture() -> TestState:
    # the normalized projector onto the 4-qubit spin-0 span of the two
    # crossed singlet pairings (slots 1-3 with 2-4, and 1-4 with 2-3): rank 2
    # and invariant, certified for same_diff and diff_same, with the
    # different-device law (2/9, 1/9, 1/9, 5/9)
    s = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
    pairings = np.stack([np.einsum("ac,bd->abcd", s, s).reshape(-1),
                         np.einsum("ad,bc->abcd", s, s).reshape(-1)], axis=1)
    q, _ = np.linalg.qr(pairings)
    return TestState(Operator(q @ q.conj().T / 2, 2, 4))


def _spin0_mixture_file(tmp_path) -> str:
    path = tmp_path / "spin0_mix.npy"
    np.save(path, _spin0_mixture().rho.mat)
    return str(path)


def _dense_labeled_mixture_file(tmp_path) -> str:
    path = tmp_path / "dense_mix2.npy"
    np.save(path, _random_mixed_state(2, 2, 3, np.random.default_rng(606)).rho.mat)
    return str(path)


def _rank2_qutrit_mixture(seed: int = 8) -> TestState:
    # a random rank-2 mixture at labeled d = 3: neither certified nor
    # invariant, so its "equal" stream samples the mixture law per trial
    return _random_mixed_state(3, 2, 2, np.random.default_rng(seed))


def _rank2_qutrit_mixture_file(tmp_path) -> str:
    path = tmp_path / "rank2_mix3.npy"
    np.save(path, _rank2_qutrit_mixture().rho.mat)
    return str(path)


def _dense_mixture_file(tmp_path) -> str:
    path = tmp_path / "dense_mix.npy"
    np.save(path, _random_mixed_state(2, 4, 3, np.random.default_rng(505)).rho.mat)
    return str(path)


def test_two_shard_class_counts_are_pinned(tmp_path):
    # exact counts of two-shard campaigns of pure and invariant states, the
    # same in formats qmeter.campaign/4 to /11 except the labeled "different"
    # blocks, which format 7 draws as one Haar row per trial for every state
    # (so the d = 3 optimal and anti3 blocks agree) and format 11 as d
    # exponentials per trial, and the unlabeled optimal "different" block,
    # which format 9 draws as device B alone (the kappa:2 blocks draw the
    # same Haar devices and uniforms as before, and the Bloch class law is
    # their Born table's class law); any change to
    # the random streams, the kernels, the sampler or the outcome-to-class
    # map shows up here.  Format 13 draws device A of a z-invariant state on
    # its meridian, which moves the kappa:2 blocks alone, format 14 B of
    # an invariant state's "different" trial, which moves the optimal
    # "different" block alone, and format 15 a labeled "different" trial's
    # row as one uniform, which moves the labeled "different" blocks alone.
    anti3 = _antisymmetric_qutrit_file(tmp_path)
    expected = {
        ("labeled", 3, "optimal"): {"different": {"same": 22738, "diff": 45798},
                                    "equal": {"same": 0, "diff": 68536}},
        # the "equal" block draws no device, so it is the format-3 count
        ("unlabeled", 2, "optimal"): {"different": {"same_same": 30446, "same_diff": 15199,
                                                    "diff_same": 15305, "diff_diff": 7586},
                                      "equal": {"same_same": 45794, "same_diff": 0,
                                                "diff_same": 0, "diff_diff": 22742}},
        ("labeled", 3, anti3): {"different": {"same": 22738, "diff": 45798},
                                "equal": {"same": 0, "diff": 68536}},
        ("unlabeled", 2, "kappa:2"): {"different": {"same_same": 30267, "same_diff": 15209,
                                                    "diff_same": 15342, "diff_diff": 7718},
                                      "equal": {"same_same": 22910, "same_diff": 23148,
                                                "diff_same": 22478, "diff_diff": 0}},
        # d = 2 and 5 are the shortest and longest rows of the labeled pins
        ("labeled", 2, "optimal"): {"different": {"same": 34288, "diff": 34248},
                                    "equal": {"same": 0, "diff": 68536}},
        ("labeled", 5, "optimal"): {"different": {"same": 13578, "diff": 54958},
                                    "equal": {"same": 0, "diff": 68536}},
    }
    for (kind, dim, spec), counts in expected.items():
        res = run_campaign(CampaignConfig(Scenario(kind, dim), trials=SHARD_SIZE + 3000,
                                          seed=2024, test_state=spec))
        assert {t: dict(r.class_counts) for t, r in res.results.items()} == counts


def test_mixed_state_class_counts_are_pinned(tmp_path):
    # exact counts of two-shard campaigns of mixed, non-invariant states: the
    # unlabeled blocks sample the Bloch class law of the prepared mixture
    # (format qmeter.campaign/9), the certified labeled "equal" block draws
    # nothing (formats 8 to 11), the uncertified one samples the labeled
    # mixture law (format 10) and the labeled "different" blocks are the
    # one-uniform rows of format 15; the kappa mixture is z-invariant, so
    # format 13 draws its device A on the meridian
    expected = {
        ("unlabeled", 2, _kappa_mixture_file(tmp_path)): {
            "different": {"same_same": 30419, "same_diff": 15161, "diff_same": 15324,
                          "diff_diff": 7632},
            "equal": {"same_same": 22898, "same_diff": 22910, "diff_same": 22728,
                      "diff_diff": 0}},
        ("labeled", 4, _antisymmetric_mixture_file(tmp_path)): {
            "different": {"same": 17119, "diff": 51417},
            "equal": {"same": 0, "diff": 68536}},
        ("labeled", 3, _rank2_qutrit_mixture_file(tmp_path)): {
            "different": {"same": 22738, "diff": 45798},
            "equal": {"same": 23205, "diff": 45331}},
    }
    for (kind, dim, spec), counts in expected.items():
        res = run_campaign(CampaignConfig(Scenario(kind, dim), trials=SHARD_SIZE + 3000,
                                          seed=2024, test_state=spec))
        assert {t: dict(r.class_counts) for t, r in res.results.items()} == counts


def test_a_mixed_shard_prepares_one_component_per_trial(tmp_path):
    # a trial prepares component r with probability w_r / sum(w), so its
    # class law is that of the prepared mixture: after its Haar unitaries a
    # batch draws one uniform per trial from that law.  Replaying the stream
    # by hand, with the law read off the dense Born table of each device
    # used twice, gives the shard's counts.  The labeled "equal" stream of a
    # generic mixture certifies nothing, so its class law is not fixed: the
    # campaign takes this path and puts trials in both classes.
    state = _rank2_qutrit_mixture()
    w, v = state.pure_components()
    assert len(w) == 2 and not _is_invariant(state.rho)
    assert conclusive_classes(Scenario("labeled", 3), state) == ()
    trials = 3000
    counts = dict(zip(("same", "diff"),
                      _shard_counts(("labeled", 3, "equal", 2, None, w, v, 12, 0,
                                     trials)).tolist()))
    gen = np.random.default_rng(np.random.SeedSequence(12, spawn_key=(1, 0)))
    prepared = TestState(Operator((v.T * (w / w.sum())) @ v.conj(), 3, 2))
    devices = [Observable(u) for u in haar_unitaries(3, trials, gen)]
    same = [np.trace(outcome_table(a, a, prepared)) for a in devices]
    drawn = _sample_rows(np.stack((same, np.subtract(1.0, same))), gen)
    assert counts == dict(zip(("same", "diff"), drawn.tolist()))
    assert min(counts.values()) > 0
    res = run_campaign(CampaignConfig(Scenario("labeled", 3), trials=trials, seed=12,
                                      ground_truth="equal",
                                      test_state=_rank2_qutrit_mixture_file(tmp_path)))
    assert dict(res.results["equal"].class_counts) == counts


def test_a_certified_mixed_state_never_reports_equal_devices_different(monkeypatch):
    # every component of a certified state keeps its own equal-device leak
    # below TOL_ABS/2, so the prepared mixture's p(same) is at most that in
    # every trial, and the clamp makes it 0.  A campaign does not draw this
    # stream (its class law is fixed), so its shards are run by hand, one
    # law per batch.
    state = _antisymmetric_mixture(3, (0.6, 0.4), 31)
    assert not _is_invariant(state.rho)
    scen = Scenario("labeled", 3)
    assert conclusive_classes(scen, state) == ("same",)
    w, v = state.pure_components()
    assert len(w) == 2
    laws = []
    law = simulate._labeled_equal_law
    monkeypatch.setattr(simulate, "_labeled_equal_law", lambda *a: laws.append(1) or law(*a))
    trials = 2 * SHARD_SIZE
    counts = [_shard_counts(("labeled", 3, "equal", 2, None, w, v, 77, shard,
                             SHARD_SIZE)) for shard in range(trials // SHARD_SIZE)]
    assert len(laws) == trials // simulate._SUBCHUNK
    assert sum(c[1] for c in counts) == trials  # (same, diff)
    assert sum(c[0] for c in counts) == 0


def _random_mixed_state(d: int, n: int, rank: int, rng) -> TestState:
    g = rng.normal(size=(d ** n, rank)) + 1j * rng.normal(size=(d ** n, rank))
    rho = g @ g.conj().T
    return TestState(Operator(rho / np.trace(rho).real, d, n))


def test_invariance_is_read_off_rho(tmp_path):
    # the optimal states commute with every U^(x)n whatever their kind, and so
    # does the same projector read from a file; the kappa states, one vector
    # of the three-dimensional antisymmetric qutrit subspace and generic
    # mixed states do not
    unlabeled, qutrits = Scenario("unlabeled", 2), Scenario("labeled", 3)
    for d in range(2, 6):
        assert _is_invariant(optimal_test_state(Scenario("labeled", d)).rho)
    assert _is_invariant(optimal_test_state(unlabeled).rho)
    assert _is_invariant(resolve_test_state(_antisymmetric_projector_file(tmp_path), qutrits).rho)
    assert _is_invariant(_invariant_mixture(3, 0.3).rho)
    for j in (1, 2, 3):
        assert not _is_invariant(kappa_state(j).rho)
    assert not _is_invariant(resolve_test_state(_antisymmetric_qutrit_file(tmp_path), qutrits).rho)
    rng = np.random.default_rng(12)
    for d, n in ((2, 2), (3, 2), (5, 2), (2, 4)):
        assert not _is_invariant(_random_mixed_state(d, n, 3, rng).rho)
    # larger labeled spaces: a Werner-type mixture of 1 and SWAP is invariant,
    # a rank-2 mixture of antisymmetric vectors is not
    for d in (8, 16):
        assert _is_invariant(_invariant_mixture(d, 0.3).rho)
        assert not _is_invariant(_antisymmetric_mixture(d, (0.6, 0.4), d).rho)


def test_invariance_holds_within_tol_abs():
    # a full-rank invariant state moved by eps H, with H traceless, Hermitian
    # and outside the span of 1 and SWAP: a move far below TOL_ABS keeps the
    # state invariant, a visible one does not
    rho = _invariant_mixture(3, 0.3).rho.mat
    h = np.zeros((9, 9), dtype=complex)
    h[1, 1], h[3, 3] = 1.0, -1.0  # |01><01| - |10><10|
    h[1, 5], h[5, 1] = 1j, -1j  # i |01><12| + h.c.
    assert _is_invariant(Operator(rho + 1e-13 * h, 3, 2))
    assert not _is_invariant(Operator(rho + 1e-6 * h, 3, 2))


@pytest.mark.parametrize("kind,d", [("labeled", 2), ("labeled", 3), ("labeled", 5),
                                    ("unlabeled", 2)])
def test_invariant_born_table_depends_on_w_alone(kind, d):
    # for an invariant state the table of (U, V) is the table of (I, U^dag V),
    # with device A the computational basis (dense oracle, pair by pair)
    rng = np.random.default_rng(40 + d)
    us, vs = haar_unitaries(d, 50, rng), haar_unitaries(d, 50, rng)
    ws = np.conj(us.transpose(0, 2, 1)) @ vs
    state = _invariant_mixture(d, 0.3) if kind == "labeled" else optimal_test_state(
        Scenario(kind, d))
    eye = Observable.computational(d)
    for u, v, w in zip(us, vs, ws):
        assert_allclose(outcome_table(eye, Observable(w), state),
                        outcome_table(Observable(u), Observable(v), state),
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_born_row_is_the_law_of_v_dagger_chi(d):
    # device A's outcome j leaves B's slot in chi_j, the normalized
    # (<u_j| (x) 1) psi, and B's law given j is |V^dag chi_j|^2: row j of
    # the Born table of (U, V) (dense oracle), divided by its sum, for any
    # pure state.  B agrees with j with probability |x_j|^2, so the row
    # kernel, given r = 1 - |x_j|^2 read off the moduli of x = V^dag chi_j,
    # gives that row's law
    rng = np.random.default_rng(70 + d)
    us, vs = haar_unitaries(d, 20, rng), haar_unitaries(d, 20, rng)
    for _ in range(3):
        psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        psi /= np.linalg.norm(psi)
        state = TestState.pure(Vector(psi, d, 2))
        table = np.array([outcome_table(Observable(u), Observable(v), state)
                          for u, v in zip(us, vs)])
        # chi[b, j, n] = sum_m conj(U_b[m, j]) psi[m, n]; x = chi_j V^*
        chi = np.conj(us.transpose(0, 2, 1)) @ psi.reshape(d, d)
        chi /= np.linalg.norm(chi, axis=2, keepdims=True)
        x = chi @ np.conj(vs)
        assert_allclose(np.linalg.norm(x, axis=2), 1.0, rtol=0, atol=1e-12)
        for j in range(d):
            row = table[:, j] / table[:, j].sum(axis=1, keepdims=True)
            moduli = np.abs(x[:, j]) ** 2
            assert_allclose(moduli, row, rtol=0, atol=1e-12)
            law = np.stack((row[:, j], 1.0 - row[:, j]))
            r = 1.0 - moduli[:, j] / moduli.sum(axis=1)
            assert_allclose(_labeled_probs_row(r), law, rtol=0, atol=1e-12)


def test_labeled_different_counts_do_not_depend_on_the_test_state(tmp_path):
    # B's law given A's outcome is |x_k|^2 for x uniform on the sphere,
    # whatever the state, so at one seed every labeled "different" block is
    # the same: the paper's O_same^diff = I/d for every test state
    scen = Scenario("labeled", 3)
    product = tmp_path / "product3.npy"
    np.save(product, np.kron([1, 0, 0], [0.6, 0.8j, 0]))
    anti_mix = tmp_path / "anti_mix3.npy"
    np.save(anti_mix, _antisymmetric_mixture(3, (0.5, 0.3, 0.2), 17).rho.mat)
    blocks = [
        dict(run_campaign(CampaignConfig(scen, trials=SHARD_SIZE + 3000, seed=41,
                                         ground_truth="different", test_state=spec))
             .results["different"].class_counts)
        for spec in ("optimal", _antisymmetric_qutrit_file(tmp_path), str(anti_mix),
                     _invariant_mixture_file(tmp_path), str(product))
    ]
    assert blocks == [blocks[0]] * len(blocks)


@pytest.mark.parametrize("d,spec", [(2, "optimal"), (3, "optimal"), (4, "optimal"),
                                    (5, "optimal"), (3, "invariant_mix"), (3, "anti3"),
                                    (4, "anti_mix4"), (2, "dense")])
def test_labeled_invariant_law_at_high_statistics(tmp_path, d, spec):
    # the one-row draw of a labeled "different" stream must give
    # P(same) = tr(rho O_same) = 1/d, the same law for every state, invariant
    # or not, over enough trials to resolve a bias of a thousandth (SE about
    # 6e-4 at 2^19 trials)
    files = {"invariant_mix": _invariant_mixture_file, "anti3": _antisymmetric_qutrit_file,
             "anti_mix4": _antisymmetric_mixture_file, "dense": _dense_labeled_mixture_file}
    path = files[spec](tmp_path) if spec in files else spec
    scen, trials = Scenario("labeled", d), 1 << 19
    res = run_campaign(CampaignConfig(scen, trials=trials, seed=606, test_state=path,
                                      ground_truth="different"))
    rho = resolve_test_state(path, scen).rho.mat
    ops = labeled_class_operators(d)
    for name, count in res.results["different"].class_counts.items():
        p = float(np.trace(rho @ ops[name].different.mat).real)
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(count / trials - p) <= 5 * se, (name, count, p)


def test_invariant_equal_shard_draws_no_device(monkeypatch, tmp_path):
    # with equal devices an invariant state's table is diag(rho) for every
    # device, and a state that leaves one class open puts every trial in it
    # (each Born entry of a conclusive class is clamped), so the "equal"
    # campaigns of both draw no device and evaluate no class law
    states = [("labeled", 3, "optimal"), ("unlabeled", 2, "optimal"),
              ("unlabeled", 2, _spin0_mixture_file(tmp_path)),
              ("labeled", 3, _antisymmetric_qutrit_file(tmp_path)),
              ("labeled", 4, _antisymmetric_mixture_file(tmp_path))]

    def no_call(*args, **kwargs):
        raise AssertionError("device draw or class law")

    for name in ("haar_unitaries", "_labeled_probs_row", "_bloch_class_law",
                 "_labeled_equal_law"):
        monkeypatch.setattr(simulate, name, no_call)
    trials = SHARD_SIZE + 3000
    for kind, d, spec in states:
        scen = Scenario(kind, d)
        res = run_campaign(CampaignConfig(scen, trials=trials, seed=5, ground_truth="equal",
                                          test_state=spec))
        counts = res.results["equal"].class_counts
        assert sum(counts.values()) == trials
        assert not any(counts[c] for c in res.conclusive)
        if kind == "labeled":
            assert counts == {"same": 0, "diff": trials}
    with pytest.raises(AssertionError, match="device draw"):
        run_campaign(CampaignConfig(Scenario("unlabeled", 2), trials=10, seed=5,
                                    ground_truth="different"))


def _bloch_terms_of(device: Observable) -> tuple:
    """The Bloch terms e_1..e_6 of one fixed qubit device as a batch of one
    trial, as a campaign reads them off its unitary (_bloch_terms)."""
    return _bloch_terms(device.basis[None])


def _unlabeled_states() -> list:
    rng = np.random.default_rng(66)
    return ([kappa_state(j) for j in (1, 2, 3)] + [optimal_test_state(Scenario("unlabeled", 2))]
            + [_random_mixed_state(2, 4, 2, rng)])


@pytest.mark.parametrize("state", _unlabeled_states(),
                         ids=["kappa:1", "kappa:2", "kappa:3", "phi_q", "rank2"])
def test_the_bloch_class_law_is_the_born_table_summed_into_classes(state):
    # p(same_same) = e(n)^T G e(m) / 4 and the marginals of G's first row and
    # column: for fixed devices the class law is the Born table summed into
    # classes (class_probabilities), for random, rotated and equal device pairs
    rng = np.random.default_rng(67)
    form = _bloch_form(*state.pure_components())
    pairs = [(Observable.random(2, rng), Observable.random(2, rng)) for _ in range(10)]
    pairs += [(Observable.qubit_angle(s), Observable.qubit_angle(t))
              for s, t in rng.uniform(0, np.pi, size=(10, 2))]
    pairs += [(a, a) for a, _ in pairs]
    for a, b in pairs:
        law = _bloch_class_law(form, _bloch_terms_of(a), _bloch_terms_of(b))
        assert_allclose(law[:, 0], class_probabilities(a, b, state), rtol=0, atol=1e-12)
    # and over a batch, one column per pair
    terms = [_bloch_terms(np.array([x.basis for x in side])) for side in zip(*pairs)]
    expected = np.transpose([class_probabilities(a, b, state) for a, b in pairs])
    assert_allclose(_bloch_class_law(form, *terms), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["phi_q", "spin0"])
def test_an_invariant_state_measures_device_a_along_z(name):
    # the law of an invariant state is the same for both axes turned by any
    # one rotation: turning A's axis n to z and then B's axis m about z to
    # azimuth 0 puts B on the meridian at height c = n.m, read here off
    # |<u_0|v_0>|^2 = (1 + n.m) / 2.  So the law with A's terms at the
    # meridian's pole, _meridian_terms(1.0), and B's at _meridian_terms(c)
    # is the class law of the unturned pair (U, V); so is the law of (I, W)
    # with W = U^dag V, A's axis z
    state = optimal_test_state(Scenario("unlabeled", 2)) if name == "phi_q" else _spin0_mixture()
    assert _is_invariant(state.rho)
    form = _bloch_form(*state.pure_components())
    rng = np.random.default_rng(90)
    pairs = [haar_unitaries(2, 2, rng) for _ in range(200)]
    c = np.array([2 * abs(np.vdot(u[:, 0], v[:, 0])) ** 2 - 1 for u, v in pairs])
    expected = np.transpose([class_probabilities(Observable(u), Observable(v), state)
                             for u, v in pairs])
    z_axis = _meridian_terms(1.0)
    assert_allclose(_bloch_class_law(form, z_axis, _meridian_terms(c)), expected,
                    rtol=0, atol=1e-12)
    eye = Observable.computational(2)
    for (u, v), law_uv in zip(pairs[:20], expected.T):
        w = Observable(u.conj().T @ v)
        law = _bloch_class_law(form, z_axis, _bloch_terms_of(w))[:, 0]
        assert_allclose(law, class_probabilities(eye, w, state), rtol=0, atol=1e-12)
        assert_allclose(law, law_uv, rtol=0, atol=1e-12)


def test_an_invariant_different_shard_draws_device_b_alone():
    # with A along z, a batch draws B's height c = n.m on the meridian, one
    # uniform per trial, and one uniform per trial for its class; replaying
    # that stream by hand gives the shard's counts, and the campaign's
    scen = Scenario("unlabeled", 2)
    state = optimal_test_state(scen)
    w, v = state.pure_components()
    form = _bloch_form(w, v)
    trials = 5000
    task = ("unlabeled", 2, "different", 0, form, w, v, 33, 0, trials)
    counts = dict(zip(scen.classes, _shard_counts(task).tolist()))
    gen = np.random.default_rng(np.random.SeedSequence(33, spawn_key=(0, 0)))
    em = _meridian_terms(gen.uniform(-1.0, 1.0, trials))
    drawn = _sample_rows(_bloch_class_law(form, _meridian_terms(1.0), em), gen)
    assert counts == dict(zip(scen.classes, drawn.tolist()))
    assert min(counts.values()) > 0
    res = run_campaign(CampaignConfig(scen, trials=trials, seed=33, ground_truth="different"))
    assert dict(res.results["different"].class_counts) == counts


def test_a_law_that_reads_no_drawn_term_still_samples_every_trial(tmp_path):
    # the maximally mixed state's class law is 1/4 per class for every pair
    # of devices, so it reads none of the axis terms a batch draws; its
    # "different" stream once got one law for the whole batch, and the
    # sampler failed with a raw IndexError
    path = tmp_path / "mixed16.npy"
    np.save(path, np.eye(16) / 16)
    trials = 40_000
    res = run_campaign(CampaignConfig(Scenario("unlabeled", 2), trials=trials, seed=3,
                                      test_state=str(path)))
    assert res.conclusive == ()
    se = np.sqrt(0.25 * 0.75 / trials)
    for truth in ("different", "equal"):
        counts = res.results[truth].class_counts
        assert sum(counts.values()) == trials
        assert all(abs(count / trials - 0.25) <= 5 * se for count in counts.values()), counts


@pytest.mark.parametrize("spec,truth,devices", [("kappa:2", "different", 2),
                                                ("kappa:2", "equal", 1),
                                                ("optimal", "different", 1),
                                                ("dense_mix", "different", 2),
                                                ("dense_mix", "equal", 1)])
def test_an_unlabeled_batch_draws_its_devices_then_one_uniform_per_trial(monkeypatch, tmp_path,
                                                                         spec, truth, devices):
    # each batch draws its devices, A first, then step uniforms for the
    # classes, and nothing else.  A device draws the axis coordinates that
    # the state's symmetry leaves free, B in a "different" stream one more
    # than A: none (A of an invariant state, along z), one (step uniforms
    # on the meridian) or two (a Haar device, d (d + 1) = 6 step normals).
    # A twin generator that draws just that ends in the same state
    scen = Scenario("unlabeled", 2)
    state = resolve_test_state(_dense_mixture_file(tmp_path) if spec == "dense_mix" else spec,
                               scen)
    w, v = state.pure_components()
    trials = simulate._SUBCHUNK + 1000  # a full batch and a short one
    gen = np.random.default_rng(5)
    monkeypatch.setattr(simulate, "_shard_rng", lambda *args: gen)
    free = 0 if _is_invariant(state.rho) else 1 if _is_z_invariant(state.rho) else 2
    _shard_counts(("unlabeled", 2, truth, free, _bloch_form(w, v), w, v, 5, 0, trials))
    coords = [c for c in (free, min(free + 1, 2))[:1 if truth == "equal" else 2] if c]
    assert len(coords) == devices
    twin = np.random.default_rng(5)
    for step in (simulate._SUBCHUNK, 1000):
        for c in coords:
            if c == 1:
                twin.random(step)
            else:
                twin.standard_normal(6 * step)
        twin.random(step)
    assert gen.bit_generator.state == twin.bit_generator.state


def _z_invariant_states(tmp_path) -> dict:
    scen = Scenario("unlabeled", 2)
    states = {f"kappa:{j}": kappa_state(j) for j in (1, 2, 3)}
    states["kappa_mix"] = resolve_test_state(_kappa_mixture_file(tmp_path), scen)
    states["optimal"] = optimal_test_state(scen)
    states["spin0"] = _spin0_mixture()
    return states


def test_z_invariance_is_read_off_rho(tmp_path):
    # the kappa states, their mixtures and the invariant states have no
    # entry between kets of different Hamming weight; a dense mixture has.
    # Oracle: rho equals D^(x)4 rho D^dag(x)4 for random diagonal unitaries
    # D exactly when it is z-invariant
    states = _z_invariant_states(tmp_path)
    states["dense_mix"] = resolve_test_state(_dense_mixture_file(tmp_path),
                                             Scenario("unlabeled", 2))
    rng = np.random.default_rng(14)
    for name, state in states.items():
        assert _is_z_invariant(state.rho) == (name != "dense_mix"), name
        for phase in rng.uniform(0, 2 * np.pi, size=5):
            d4 = np.exp(1j * phase * np.indices((2,) * 4).reshape(4, -1).sum(axis=0))
            drift = np.max(np.abs(d4[:, None] * state.rho.mat * d4.conj() - state.rho.mat))
            assert (drift <= 1e-12) == (name != "dense_mix"), name
    # within TOL_ABS: an entry between weights 1 and 2 far below it keeps
    # the decision, a visible one does not
    rho = kappa_state(2).rho.mat.copy()
    for eps, kept in ((1e-13, True), (1e-6, False)):
        h = np.zeros((16, 16), dtype=complex)
        h[1, 3], h[3, 1] = eps, eps  # |0001><0011| + h.c.
        assert _is_z_invariant(Operator(rho + h, 2, 4)) == kept


@pytest.mark.parametrize("name", ["kappa:1", "kappa:2", "kappa:3", "kappa_mix", "optimal",
                                  "spin0"])
def test_a_z_invariant_state_measures_device_a_on_its_meridian(tmp_path, name):
    # rotating both devices about z by minus A's azimuth phi leaves the Born
    # table of a z-invariant state unchanged, so the law with A's terms at
    # _meridian_terms(n_z) and B rotated, D V with D = diag(1, e^(-i phi)),
    # is the class law of the unrotated pair (U, V), and of (U, U) with B
    # also on the meridian
    state = _z_invariant_states(tmp_path)[name]
    form = _bloch_form(*state.pure_components())
    rng = np.random.default_rng(91)
    for _ in range(20):
        u, v = haar_unitaries(2, 2, rng)
        a, b = Observable(u), Observable(v)
        # n_x + i n_y = 2 conj(u_00) u_10 and n_z = |u_00|^2 - |u_10|^2
        phi = np.angle(np.conj(u[0, 0]) * u[1, 0])
        rot = np.diag([1.0, np.exp(-1j * phi)])
        en = _meridian_terms(np.array([abs(u[0, 0]) ** 2 - abs(u[1, 0]) ** 2]))
        law = _bloch_class_law(form, en, _bloch_terms_of(Observable(rot @ v)))
        assert_allclose(law[:, 0], class_probabilities(a, b, state), rtol=0, atol=1e-12)
        assert_allclose(_bloch_class_law(form, en, en)[:, 0], class_probabilities(a, a, state),
                        rtol=0, atol=1e-12)


def _labeled_states():
    """(id, state): a sparse antisymmetric vector, a vector with a zero row
    and a zero column, dense random vectors and random rank-2 mixtures."""
    rng = np.random.default_rng(55)
    anti3 = np.array([[0, 1, 2j], [-1, 0, 1], [-2j, -1, 0]])
    holes = np.array([[1, 2j, 0], [0, 0, 0], [3, -1j, 0]])  # row 1 and column 2 zero
    vecs = [("anti3", 3, anti3.reshape(-1)), ("holes", 3, holes.reshape(-1))]
    vecs += [(f"dense{d}^2", d, rng.normal(size=d * d) + 1j * rng.normal(size=d * d))
             for d in (2, 3, 4)]
    out = [(name, TestState.pure(Vector(psi / np.linalg.norm(psi), d, 2)))
           for name, d, psi in vecs]
    return out + [(f"rank2-d{d}", _random_mixed_state(d, 2, 2, rng)) for d in (2, 3, 4, 5)]


@pytest.mark.parametrize("state", [s for _, s in _labeled_states()],
                         ids=[name for name, _ in _labeled_states()])
def test_labeled_equal_law_matches_the_oracle_on_sparse_and_dense_states(state):
    # p(same) of one device used twice is sum_j |<u_j u_j|psi>|^2, weighed
    # over the prepared mixture; it must be the dense oracle's fixed-pair
    # success, on the batch-last views that haar_unitaries returns and on
    # C-contiguous (size, d, d) stacks
    d = state.rho.d
    w, v = state.pure_components()
    prepared = TestState(Operator((v.T * (w / w.sum())) @ v.conj(), d, 2))
    us = haar_unitaries(d, 16, np.random.default_rng(d))
    assert not us.flags.c_contiguous
    expected = [class_probabilities(Observable(u), Observable(u), prepared)[0] for u in us]
    for stack in (us, np.ascontiguousarray(us)):
        law = _labeled_equal_law(stack, w, v)
        assert_allclose(law[0], expected, rtol=0, atol=1e-12)
        assert_allclose(law.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def _running_sum(p: np.ndarray) -> np.ndarray:
    # np.cumsum of the table clamped at TOL_ABS, not renormalized
    return np.cumsum(np.where(p <= TOL_ABS, 0.0, p), axis=0)


def _inverse_cdf_draws(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    # the category each column of p draws at its uniform u, by an inverse
    # CDF built with np.cumsum: u scaled to the column's clamped total, and
    # the trailing plateau pinned to infinity, which no scaled uniform reaches
    cum = _running_sum(p)
    total = cum[-1].copy()
    cum[cum >= total] = np.inf
    return (u * total >= cum).sum(axis=0)


def _drawn_category(column: np.ndarray, gen) -> int:
    # the one category a one-column table draws: its one nonzero count
    counts = _sample_rows(column.reshape(-1, 1), gen)
    assert counts.sum() == 1
    return int(np.flatnonzero(counts)[0])


def test_sampling_in_row_blocks_keeps_the_stream():
    # one uniform per column, in column order, for outcome records and for
    # the class laws campaigns sample: one-column tables drawn one after
    # another each take the category of the inverse CDF at their uniform,
    # and consecutive column blocks count what one call counts
    gen = np.random.default_rng(31)
    us, vs = haar_unitaries(2, 1000, gen), haar_unitaries(2, 1000, gen)
    form = _bloch_form(*optimal_test_state(Scenario("unlabeled", 2)).pure_components())
    for table in (gen.dirichlet(np.full(16, 0.3), size=1000).T,
                  _bloch_class_law(form, _bloch_terms(us), _bloch_terms(vs))):
        one_by_one = np.random.default_rng(7)
        drawn = np.array([_drawn_category(column, one_by_one) for column in table.T])
        reference = _inverse_cdf_draws(table, np.random.default_rng(7).random(1000))
        assert np.array_equal(drawn, reference)
        whole = _sample_rows(table, np.random.default_rng(7))
        assert np.array_equal(whole, np.bincount(drawn, minlength=len(table)))
        blocks = np.random.default_rng(7)
        for lo in range(0, 1000, 300):
            assert np.array_equal(_sample_rows(table[:, lo:lo + 300], blocks),
                                  np.bincount(drawn[lo:lo + 300], minlength=len(table)))


def test_sampler_matches_an_inverse_cdf_built_by_cumsum():
    # the sampler sums the clamped table row by row, which is np.cumsum's
    # order, so its counts are those of the draws of the reference built
    # with np.cumsum
    p = np.random.default_rng(12).dirichlet(np.full(16, 0.3), size=5000).T
    reference = _inverse_cdf_draws(p, np.random.default_rng(3).random(p.shape[1]))
    assert np.array_equal(_sample_rows(p, np.random.default_rng(3)),
                          np.bincount(reference, minlength=16))


@pytest.mark.parametrize("uniforms", ["seeded", "top", "ties"])
def test_counting_sampler_matches_the_cumsum_reference_on_clamped_tables(uniforms):
    # the sampler counts each category from the running sum and never
    # builds a per-column draw; on tables with clamped entries (at or below
    # TOL_ABS, inside a column and at its end) and with trailing zero
    # plateaus its counts must still be the bincount of the reference's
    # draws: under seeded uniforms, under the largest uniform below 1,
    # which scaled to the total lands just below it, in the last nonzero
    # category, and
    # under uniforms that, scaled to the total, equal a value of the running
    # sum, where a draw goes to the category above it
    rng = np.random.default_rng(45)
    k, n = 6, 6000
    p = rng.dirichlet(np.full(k, 0.4), size=n).T
    p[rng.random((k, n)) < 0.2] = TOL_ABS / 2  # clamped anywhere
    for tail in (1, 2, 3):  # zero plateaus of 1 to 3 categories
        p[k - tail:, tail * 1000:(tail + 1) * 1000] = 0.0
    p[k - 1, 4000:5000] = TOL_ABS  # a clamped last category
    p /= p.sum(axis=0)
    assert (p[-1] == 0.0).sum() >= 3000 and (p <= TOL_ABS).sum() > n
    if uniforms == "ties":
        cum = _running_sum(p)
        total = cum[-1]
        target = cum[rng.integers(0, k, n), np.arange(n)]
        u = np.minimum(target / total, np.nextafter(1.0, 0.0))
        assert ((u * total == target) & (target < total)).sum() > n / 2
        gens = _FixedUniforms(u), _FixedUniforms(u)
    elif uniforms == "top":
        gens = _TopOfRangeGenerator(), _TopOfRangeGenerator()
    else:
        gens = np.random.default_rng(17), np.random.default_rng(17)
    reference = _inverse_cdf_draws(p, gens[0].random(n))
    counts = _sample_rows(p, gens[1])
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.bincount(reference, minlength=k))
    if uniforms == "top":  # every column drew its last category above TOL_ABS
        last = k - 1 - np.argmax(p[::-1] > TOL_ABS, axis=0)
        assert np.array_equal(counts, np.bincount(last, minlength=k))


@pytest.mark.parametrize("kind,dim,spec", [
    ("labeled", 3, "anti3"), ("unlabeled", 2, "kappa_mix"), ("unlabeled", 2, "dense_mix"),
    ("labeled", 4, "anti_mix4"),
    # z-invariant states: device A on its meridian, one uniform per trial
    ("unlabeled", 2, "kappa:1"), ("unlabeled", 2, "kappa:3"),
    # uncertified, non-invariant labeled mixtures: the "equal" stream samples
    # the mixture law p(same | U) per trial
    ("labeled", 2, "dense"), ("labeled", 3, "rank2_mix3"),
    # invariant states: one multinomial per "equal" shard, for custom states
    # too (and device B alone per unlabeled "different" trial)
    ("labeled", 3, "anti_proj3"), ("labeled", 3, "invariant_mix"),
    ("labeled", 2, "optimal"), ("labeled", 3, "optimal"), ("labeled", 4, "optimal"),
    ("labeled", 5, "optimal"), ("unlabeled", 2, "optimal"), ("unlabeled", 2, "spin0"),
])
def test_every_class_count_follows_its_operator(tmp_path, kind, dim, spec):
    # trials are i.i.d. Haar, so class c occurs with probability tr(rho O_c)
    # under each hypothesis; every count, not only the conclusive rate, must
    # sit within 5 standard errors of it (a zero-probability class exactly at 0)
    files = {"anti3": _antisymmetric_qutrit_file, "kappa_mix": _kappa_mixture_file,
             "anti_proj3": _antisymmetric_projector_file,
             "invariant_mix": _invariant_mixture_file, "dense_mix": _dense_mixture_file,
             "anti_mix4": _antisymmetric_mixture_file, "spin0": _spin0_mixture_file,
             "dense": _dense_labeled_mixture_file, "rank2_mix3": _rank2_qutrit_mixture_file}
    path = files[spec](tmp_path) if spec in files else spec
    scen = Scenario(kind, dim)
    trials = 20000
    res = run_campaign(CampaignConfig(scen, trials=trials, seed=77, test_state=path))
    rho = resolve_test_state(path, scen).rho.mat
    ops = labeled_class_operators(dim) if kind == "labeled" else unlabeled_operators(dim)
    for truth, block in res.results.items():
        for name, count in block.class_counts.items():
            op = ops[name].different if truth == "different" else ops[name].equal
            p = max(float(np.trace(rho @ op.mat).real), 0.0)
            se = np.sqrt(p * (1 - p) / trials)
            assert abs(count / trials - p) <= 5 * se, (truth, name, count, p)


class _TopOfRangeGenerator:
    """Stands in for np.random.Generator: every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class _FixedUniforms:
    """Stands in for np.random.Generator: the uniforms are the given ones."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clamp_rejects_a_non_finite_born_row(bad):
    # a NaN total fails every comparison; it must still fail the row-sum guard
    # instead of sampling category 0
    rows = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, bad, 0.25, 0.25]])
    with pytest.raises(ConsistencyError):
        _sample_rows(rows.T, np.random.default_rng(0))


def test_every_sampled_law_must_sum_to_1_after_the_clamp(monkeypatch):
    # the rule of every sampled law: the clamped column sums to 1 within
    # TOL_RANK.  A column whose raw entries sum to 1 only through a negative
    # entry must fail it, in the sampler, in the clamp of a fixed law and in
    # a campaign's fixed "equal" law, and a NaN entry fails it too
    with pytest.raises(ConsistencyError):
        simulate._clamped(np.array([[1.5], [-0.5]]))
    with pytest.raises(ConsistencyError):
        simulate._clamped(np.array([[0.5], [np.nan]]))
    with pytest.raises(ConsistencyError):
        _sample_rows(np.array([[1.5, 0.7], [-0.5, 0.3]]), np.random.default_rng(0))
    # the unlabeled optimal state is invariant, so its "equal" law is the
    # clamped diag(rho); components that put 1.5 and -0.5 on two kets sum
    # to 1 before the clamp
    equal_law = simulate._equal_law
    kets = np.eye(16)[:2]
    monkeypatch.setattr(simulate, "_equal_law", lambda scen, conclusive, invariant, w, v:
                        equal_law(scen, conclusive, invariant, np.array([1.5, -0.5]), kets))
    config = CampaignConfig(Scenario("unlabeled", 2), trials=100, seed=1, ground_truth="equal")
    with pytest.raises(ConsistencyError):
        run_campaign(config)


def test_sampler_never_draws_a_clamped_category():
    # the rows sum to 1 only up to rounding; a uniform in the gap between the
    # last nonzero cumulative value and 1 must not land on a trailing zero
    uniform_pairs = ((1.0 - np.eye(3)) / 6).reshape(1, -1)  # cum[-2] < 1
    assert np.cumsum(uniform_pairs)[-2] < 1.0
    rng = np.random.default_rng(5)
    st = optimal_test_state(Scenario("labeled", 3))
    equal_devices = [outcome_table(a, a, st).reshape(-1)
                     for a in (Observable.random(3, rng) for _ in range(500))]
    tables = np.vstack([uniform_pairs] + equal_devices)
    for table in tables:  # one column each, so every draw is seen
        assert table[_drawn_category(table, _TopOfRangeGenerator())] > TOL_ABS


@pytest.mark.parametrize("kind,dim,spec", [("labeled", 3, "optimal"), ("unlabeled", 2, "optimal"),
                                           ("unlabeled", 2, "kappa:2"), ("labeled", 3, "anti3"),
                                           ("labeled", 4, "anti_mix4")])
def test_class_sampler_never_draws_a_conclusive_class(tmp_path, kind, dim, spec):
    # a conclusive class has equal-device probability at most TOL_ABS/2 in
    # every trial, so the clamp makes it exactly 0 in the class laws that
    # campaigns sample; the CDF's plateau pin keeps a uniform at the top of
    # [0, 1) off it even when it is the last class (kappa:2 certifies
    # diff_diff alone).  Campaigns of the certified labeled states never
    # sample their law (their "equal" law is fixed), so their per-trial
    # certificate is checked here.
    files = {"anti3": _antisymmetric_qutrit_file, "anti_mix4": _antisymmetric_mixture_file}
    scen = Scenario(kind, dim)
    state = resolve_test_state(files[spec](tmp_path) if spec in files else spec, scen)
    w, v = state.pure_components()
    us = haar_unitaries(dim, 2000, np.random.default_rng(8))
    if kind == "labeled":
        law = _labeled_equal_law(us, w, v)
    else:
        terms = _bloch_terms(us)  # device B's axis is A's
        law = _bloch_class_law(_bloch_form(w, v), terms, terms)
    # the conclusive classes are the same in every trial, so their counts
    # are 0 iff no trial drew one
    counts = _sample_rows(law, _TopOfRangeGenerator())
    assert counts.sum() == 2000
    assert not counts[np.isin(scen.classes, conclusive_classes(scen, state))].any()


# --- sweep ----------------------------------------------------------------------

def test_sweep_points_and_csv():
    thetas = np.linspace(0, np.pi / 2, 5)
    pts = sweep_theta(thetas, trials=20000, seed=21)
    assert len(pts) == 5
    for p in pts:
        assert p.analytic == pytest.approx(pairwise_success_angle(p.theta), abs=1e-12)
        margin = 5 * p.stderr + 1e-9
        assert abs(p.empirical - p.analytic) <= margin
    text = sweep_to_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,trials,empirical,stderr,analytic"
    assert len(lines) == 6
    # deterministic
    assert sweep_to_csv(sweep_theta(thetas, trials=20000, seed=21)) == text


def test_default_sweep_csv_is_pinned():
    # sha256 of `qmeter sweep --seed 5 --trials 20000` on the default grid: one
    # multinomial per fixed-device class law, so a change of a law in its
    # last bit, or of the stream, shows up here
    thetas = parse_theta_grid(DEFAULT_THETA_GRID)
    csv = sweep_to_csv(sweep_theta(thetas, trials=20000, seed=5))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "7c66619152c4ed80ee2225b96d71a1e1b910ea9ab92922440f211920b7e91bf7")


def test_an_empty_theta_grid_sweeps_nothing():
    assert sweep_theta([], trials=10, seed=1) == ()
    assert sweep_theta(np.array([]), trials=10, seed=1) == ()


@pytest.mark.parametrize("chunk", [1, 7])
def test_sweep_bytes_do_not_depend_on_the_stack_size(monkeypatch, chunk):
    # 33 points in stacks of 1 or of 7 (the last one short) give the CSV of
    # one stack
    thetas = np.linspace(0.0, np.pi / 2, 33)
    assert len(thetas) <= simulate._SWEEP_CHUNK
    whole = sweep_to_csv(sweep_theta(thetas, trials=20000, seed=5))
    monkeypatch.setattr(simulate, "_SWEEP_CHUNK", chunk)
    assert sweep_to_csv(sweep_theta(thetas, trials=20000, seed=5)) == whole


def test_a_bad_law_in_a_sweep_stack_fails_before_any_point_is_sampled(monkeypatch):
    # one clamp checks the whole stack, so the bad fourth law stops the
    # sweep before the first three points draw
    def short_law(thetas, state, _laws=simulate._angle_laws):
        laws = np.array(_laws(thetas, state))
        laws[3] *= 0.9
        return laws

    def no_draw(*args):
        raise AssertionError("a point was sampled")

    monkeypatch.setattr(simulate, "_angle_laws", short_law)
    monkeypatch.setattr(simulate, "_fixed_law_counts", no_draw)
    with pytest.raises(ConsistencyError, match=r"sum to at worst 0\.899"):
        sweep_theta(np.linspace(0.1, 1.4, 6), trials=100, seed=1)


def test_a_campaign_stops_at_2_to_the_34_trials_per_truth():
    # run_campaign lists every shard before it runs one, about 350 bytes a
    # shard; 2**34 trials take 2**18 shards.  Neither config is run.
    scen = Scenario("labeled", 2)
    assert CampaignConfig(scen, trials=SHARD_SIZE << 18, seed=1).trials == 2 ** 34
    with pytest.raises(ConfigError, match="trials must be <= 17179869184"):
        CampaignConfig(scen, trials=2 ** 34 + 1, seed=1)


def test_sweep_endpoints_are_exactly_inconclusive():
    # theta = 0 means identical observables: no conclusive outcome can fire
    pts = sweep_theta(np.array([0.0]), trials=5000, seed=3)
    assert pts[0].empirical == 0.0
