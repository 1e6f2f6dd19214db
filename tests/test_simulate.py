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
    _Z_TERMS,
    _bloch_class_law,
    _bloch_form,
    _bloch_terms,
    _is_invariant,
    _labeled_equal_law,
    _labeled_probs_row,
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
    # counts and seeds are integers, and a bool is not one; class counts are
    # int64, so trials stop at 2**63 - 1, the bound sweep_theta shares
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
    # both truths share one pool, and a fork pool starts every worker up
    # front, so it must not get more workers than there are shards to send;
    # the "equal" shards of an invariant state draw no device and never go.
    # The host's CPUs are taken as plenty, so only the task count caps.
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
    pools = []

    class RecordingPool(simulate.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append([max_workers])
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, tasks, **kwargs):
            pools[-1].append(sorted((t[2], t[-2]) for t in tasks))
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    cfg = CampaignConfig(Scenario("unlabeled", 2), trials=3000, seed=5, workers=3,
                         test_state="kappa:2")
    pooled = run_campaign(cfg).to_json()
    assert pools == [[2, [("different", 0), ("equal", 0)]]]  # one shard per truth
    assert pooled == run_campaign(replace(cfg, workers=1)).to_json()
    assert len(pools) == 1  # workers=1 opens no pool
    optimal = replace(cfg, test_state="optimal")
    run_campaign(optimal)
    assert len(pools) == 1  # a single shard draws devices
    pooled = run_campaign(replace(optimal, trials=SHARD_SIZE + 1)).to_json()
    assert pools[1] == [2, [("different", 0), ("different", 1)]]
    assert pooled == run_campaign(replace(optimal, trials=SHARD_SIZE + 1, workers=1)).to_json()


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    # a worker count far above the CPUs would fork that many processes for
    # output that is the same at any count; the stand-in pool starts none
    sizes = []

    class StandInPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, list(tasks))

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
    assert sizes == [3, 4]


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


def test_labeled_different_shard_draws_one_exponential_row_per_trial(monkeypatch):
    # a labeled "different" batch draws d exponentials per trial, one
    # (d, B) array, and one uniform per trial for its class, sampled from
    # the two-class law (E_0, sum_k>=1 E_k) / sum(E): no unitary, no
    # component and no equal-device law, even for a mixed state that is not
    # invariant.  With equal devices the antisymmetric state's law puts
    # every trial in "diff".
    d, trials = 3, 4000
    anti = optimal_test_state(Scenario("labeled", d))
    w, v = anti.pure_components()
    equal = _shard_counts(("labeled", d, "equal", False, None, w, v, 99, 0, trials))
    assert equal.tolist() == [0, trials]

    def no_call(*args, **kwargs):
        raise AssertionError("unitary or equal-device law")

    monkeypatch.setattr(simulate, "haar_unitaries", no_call)
    monkeypatch.setattr(simulate, "_labeled_equal_law", no_call)
    mixture = _antisymmetric_mixture(d, (0.7, 0.3), 8)
    assert not _is_invariant(mixture.rho)
    gen = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0, 0)))
    e = gen.standard_exponential((d, trials))  # one batch: trials < _SUBCHUNK
    rest = e[1:].sum(axis=0)
    drawn = _sample_rows(np.stack((e[0], rest)) / (e[0] + rest), gen)
    expected = np.bincount(drawn, minlength=2).tolist()
    for state in (anti, mixture):
        w, v = state.pure_components()
        counts = _shard_counts(("labeled", d, "different", False, None, w, v, 99, 0, trials))
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
    _shard_counts(("labeled", d, "different", True, None, w, v, 300 + d, 0, trials))
    p = np.concatenate(laws)
    assert len(p) == trials
    for power, moment in ((1, 1 / d), (2, 2 / (d * (d + 1)))):
        x = p ** power
        se = x.std() / np.sqrt(trials)
        assert abs(x.mean() - moment) <= 5 * se, (power, x.mean(), moment, se)


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
    # map shows up here
    anti3 = _antisymmetric_qutrit_file(tmp_path)
    expected = {
        ("labeled", 3, "optimal"): {"different": {"same": 22696, "diff": 45840},
                                    "equal": {"same": 0, "diff": 68536}},
        # the "equal" block draws no device, so it is the format-3 count
        ("unlabeled", 2, "optimal"): {"different": {"same_same": 30341, "same_diff": 15206,
                                                    "diff_same": 15327, "diff_diff": 7662},
                                      "equal": {"same_same": 45794, "same_diff": 0,
                                                "diff_same": 0, "diff_diff": 22742}},
        ("labeled", 3, anti3): {"different": {"same": 22696, "diff": 45840},
                                "equal": {"same": 0, "diff": 68536}},
        ("unlabeled", 2, "kappa:2"): {"different": {"same_same": 30325, "same_diff": 15345,
                                                    "diff_same": 15263, "diff_diff": 7603},
                                      "equal": {"same_same": 22656, "same_diff": 23043,
                                                "diff_same": 22837, "diff_diff": 0}},
        # d = 2 and 5 are the shortest and longest rows of the labeled pins
        ("labeled", 2, "optimal"): {"different": {"same": 34307, "diff": 34229},
                                    "equal": {"same": 0, "diff": 68536}},
        ("labeled", 5, "optimal"): {"different": {"same": 13666, "diff": 54870},
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
    # d exponentials per trial of format 11
    expected = {
        ("unlabeled", 2, _kappa_mixture_file(tmp_path)): {
            "different": {"same_same": 30325, "same_diff": 15340, "diff_same": 15374,
                          "diff_diff": 7497},
            "equal": {"same_same": 22673, "same_diff": 22928, "diff_same": 22935,
                      "diff_diff": 0}},
        ("labeled", 4, _antisymmetric_mixture_file(tmp_path)): {
            "different": {"same": 17065, "diff": 51471},
            "equal": {"same": 0, "diff": 68536}},
        ("labeled", 3, _rank2_qutrit_mixture_file(tmp_path)): {
            "different": {"same": 22696, "diff": 45840},
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
                      _shard_counts(("labeled", 3, "equal", False, None, w, v, 12, 0,
                                     trials)).tolist()))
    gen = np.random.default_rng(np.random.SeedSequence(12, spawn_key=(1, 0)))
    prepared = TestState(Operator((v.T * (w / w.sum())) @ v.conj(), 3, 2))
    devices = [Observable(u) for u in haar_unitaries(3, trials, gen)]
    same = [np.trace(outcome_table(a, a, prepared)) for a in devices]
    drawn = _sample_rows(np.stack((same, np.subtract(1.0, same))), gen)
    assert counts == dict(zip(("same", "diff"), np.bincount(drawn, minlength=2).tolist()))
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
    counts = [_shard_counts(("labeled", 3, "equal", False, None, w, v, 77, shard, SHARD_SIZE))
              for shard in range(trials // SHARD_SIZE)]
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
    # pure state.  B agrees with j with probability |x_j|^2, which the row
    # kernel reads off the moduli of x = V^dag chi_j with entry j moved to
    # the front
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
            # the kernel normalizes its weights, so a multiple of the
            # moduli (as d exponentials are of a Dirichlet row) gives the law
            for scale in (1.0, 3.5):
                assert_allclose(_labeled_probs_row(scale * np.roll(moduli, -j, axis=1).T), law,
                                rtol=0, atol=1e-12)


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
    """The Bloch terms e_1..e_6 of one fixed qubit device, as a campaign
    reads them off its unitary (_bloch_terms)."""
    return tuple(t[0] for t in _bloch_terms(device.basis[None]))


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
        assert_allclose(law, class_probabilities(a, b, state), rtol=0, atol=1e-12)
    # and over a batch, one column per pair
    terms = [np.array([_bloch_terms_of(x) for x in side]).T for side in zip(*pairs)]
    expected = np.transpose([class_probabilities(a, b, state) for a, b in pairs])
    assert_allclose(_bloch_class_law(form, *terms), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["phi_q", "spin0"])
def test_an_invariant_state_measures_device_a_along_z(name):
    # the table of (U, V) is the table of (I, W) with W = U^dag V, and device
    # A in the computational basis has Bloch axis z: the law with A's terms
    # fixed at _Z_TERMS is the class law of (I, W) and of (U, V)
    state = optimal_test_state(Scenario("unlabeled", 2)) if name == "phi_q" else _spin0_mixture()
    assert _is_invariant(state.rho)
    form = _bloch_form(*state.pure_components())
    rng = np.random.default_rng(90)
    eye = Observable.computational(2)
    for _ in range(20):
        u, v = haar_unitaries(2, 2, rng)
        a, b, w = Observable(u), Observable(v), Observable(u.conj().T @ v)
        law = _bloch_class_law(form, _Z_TERMS, _bloch_terms_of(w))
        assert_allclose(law, class_probabilities(eye, w, state), rtol=0, atol=1e-12)
        assert_allclose(law, class_probabilities(a, b, state), rtol=0, atol=1e-12)


def test_an_invariant_different_shard_draws_device_b_alone():
    # a batch draws device B's Haar unitary and one uniform per trial for its
    # class, with A along z; replaying that stream by hand gives the shard's
    # counts, and the campaign's
    scen = Scenario("unlabeled", 2)
    state = optimal_test_state(scen)
    w, v = state.pure_components()
    form = _bloch_form(w, v)
    trials = 5000
    task = ("unlabeled", 2, "different", True, form, w, v, 33, 0, trials)
    counts = dict(zip(scen.classes, _shard_counts(task).tolist()))
    gen = np.random.default_rng(np.random.SeedSequence(33, spawn_key=(0, 0)))
    em = _bloch_terms(haar_unitaries(2, trials, gen))
    drawn = _sample_rows(_bloch_class_law(form, _Z_TERMS, em), gen)
    assert counts == dict(zip(scen.classes, np.bincount(drawn, minlength=4).tolist()))
    assert min(counts.values()) > 0
    res = run_campaign(CampaignConfig(scen, trials=trials, seed=33, ground_truth="different"))
    assert dict(res.results["different"].class_counts) == counts


@pytest.mark.parametrize("spec,truth,devices", [("kappa:2", "different", 2),
                                                ("kappa:2", "equal", 1),
                                                ("optimal", "different", 1)])
def test_an_unlabeled_batch_draws_its_devices_then_one_uniform_per_trial(monkeypatch, spec, truth,
                                                                         devices):
    # each batch draws d (d + 1) = 6 step normals per Haar device it draws
    # (A then B for a non-invariant "different" stream, A alone for "equal",
    # B alone for an invariant state), then step uniforms, and nothing else:
    # a twin generator that draws just that ends in the same state
    scen = Scenario("unlabeled", 2)
    state = resolve_test_state(spec, scen)
    w, v = state.pure_components()
    trials = simulate._SUBCHUNK + 1000  # a full batch and a short one
    gen = np.random.default_rng(5)
    monkeypatch.setattr(simulate, "_shard_rng", lambda *args: gen)
    _shard_counts(("unlabeled", 2, truth, _is_invariant(state.rho), _bloch_form(w, v), w, v,
                   5, 0, trials))
    twin = np.random.default_rng(5)
    for step in (simulate._SUBCHUNK, 1000):
        for _ in range(devices):
            twin.standard_normal(6 * step)
        twin.random(step)
    assert gen.bit_generator.state == twin.bit_generator.state


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
    d = state.d
    w, v = state.pure_components()
    prepared = TestState(Operator((v.T * (w / w.sum())) @ v.conj(), d, 2))
    us = haar_unitaries(d, 16, np.random.default_rng(d))
    assert not us.flags.c_contiguous
    expected = [class_probabilities(Observable(u), Observable(u), prepared)[0] for u in us]
    for stack in (us, np.ascontiguousarray(us)):
        law = _labeled_equal_law(stack, w, v)
        assert_allclose(law[0], expected, rtol=0, atol=1e-12)
        assert_allclose(law.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_sampling_in_row_blocks_keeps_the_stream():
    # one uniform per row, in row order, for outcome records and for the
    # class laws campaigns sample: consecutive row blocks draw what one call
    # would
    gen = np.random.default_rng(31)
    us, vs = haar_unitaries(2, 1000, gen), haar_unitaries(2, 1000, gen)
    form = _bloch_form(*optimal_test_state(Scenario("unlabeled", 2)).pure_components())
    for table in (gen.dirichlet(np.full(16, 0.3), size=1000).T,
                  _bloch_class_law(form, _bloch_terms(us), _bloch_terms(vs))):
        whole = _sample_rows(table, np.random.default_rng(7))
        blocks = np.random.default_rng(7)
        pieces = [_sample_rows(table[:, lo:lo + 300], blocks) for lo in range(0, 1000, 300)]
        assert np.array_equal(np.concatenate(pieces), whole)


def test_sampler_matches_an_inverse_cdf_built_by_cumsum():
    # the sampler sums the clamped table row by row, which is np.cumsum's
    # order, so its draws equal the reference built with np.cumsum
    p = np.random.default_rng(12).dirichlet(np.full(16, 0.3), size=5000).T
    cum = np.cumsum(simulate._clamped(p), axis=0)
    cum[cum >= cum[-1]] = 1.0
    reference = (np.random.default_rng(3).random(p.shape[1]) >= cum).sum(axis=0)
    assert np.array_equal(_sample_rows(p, np.random.default_rng(3)), reference)


@pytest.mark.parametrize("kind,dim,spec", [
    ("labeled", 3, "anti3"), ("unlabeled", 2, "kappa_mix"), ("unlabeled", 2, "dense_mix"),
    ("labeled", 4, "anti_mix4"),
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clamp_rejects_a_non_finite_born_row(bad):
    # a NaN total fails every comparison; it must still fail the row-sum guard
    # instead of sampling category 0
    rows = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, bad, 0.25, 0.25]])
    with pytest.raises(ConsistencyError):
        _sample_rows(rows.T, np.random.default_rng(0))


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
    idx = _sample_rows(tables.T, _TopOfRangeGenerator())
    assert np.all(tables[np.arange(len(tables)), idx] > TOL_ABS)


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
    drawn = _sample_rows(law, _TopOfRangeGenerator())
    assert not np.isin(np.array(scen.classes)[drawn], conclusive_classes(scen, state)).any()


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


def test_sweep_endpoints_are_exactly_inconclusive():
    # theta = 0 means identical observables: no conclusive outcome can fire
    pts = sweep_theta(np.array([0.0]), trials=5000, seed=3)
    assert pts[0].empirical == 0.0
