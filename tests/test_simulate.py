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
    Observable,
    Scenario,
    TOL_ABS,
    TestState,
    Vector,
    Verdict,
    basis_family,
    conclusive_classes,
    kappa_state,
    labeled_class_operators,
    labeled_outcome_distribution,
    optimal_test_state,
    outcome_class_index,
    pairwise_success_angle,
    resolve_test_state,
    run_campaign,
    run_labeled_trial,
    run_unlabeled_trial,
    singlet_pairing_state,
    swap,
    sweep_theta,
    sweep_to_csv,
    unlabeled_operators,
    unlabeled_outcome_distribution,
)
from qmeter import simulate
from qmeter.cli import DEFAULT_THETA_GRID, parse_theta_grid
from qmeter.haar import haar_unitaries
from qmeter.comparison import _outcome_table
from qmeter.simulate import (
    SHARD_SIZE,
    _born_table,
    _is_invariant,
    _labeled_probs_invariant,
    _sample_rows,
    _shard_counts,
    _shards_for,
)

SCHEMA_PATH = "docs/campaign_result.schema.json"


def _mixture_table(us, vs, state: TestState, n: int) -> np.ndarray:
    """The Born table of a mixed state: its pure components' tables, weighted."""
    weights, vecs = state.pure_components()
    return sum(w * _born_table(us, vs, vec, n) for w, vec in zip(weights, vecs))


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
    # counts and seeds are integers, and a bool is not one
    for bad in ({"trials": 2.5}, {"trials": True}, {"workers": 2.5}, {"workers": True},
                {"seed": 1.0}, {"trials": "10"}, {"test_state": None}, {"test_state": 3}):
        with pytest.raises(ConfigError):
            CampaignConfig(scen, **{"trials": 10, "seed": 1, **bad})
    cfg = CampaignConfig(scen, trials=np.int64(10), seed=np.uint32(1), workers=np.int8(1))
    assert json.loads(run_campaign(cfg).to_json())["trials"] == 10


@pytest.mark.parametrize("trials,seed", [(2.5, 1), (True, 1), (0, 1), (10, -1), (10, 1.0),
                                         (10, False)])
def test_sweep_rejects_bad_trials_and_seeds(trials, seed):
    with pytest.raises(ConfigError):
        sweep_theta([0.3], trials, seed)


def test_resolve_test_state_specs(tmp_path):
    scen_u = Scenario("unlabeled", 2)
    assert resolve_test_state("optimal", scen_u).kind == "singlet_pairing"
    assert resolve_test_state("kappa", scen_u).kind == "kappa_1"
    assert resolve_test_state("kappa:3", scen_u).kind == "kappa_3"
    with pytest.raises(ConfigError):
        resolve_test_state("kappa:9", scen_u)
    with pytest.raises(ConfigError):
        resolve_test_state("kappa", Scenario("labeled", 2))
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
    rec = run_labeled_trial(a, b, TestState.antisymmetric(3), rng=rng)
    assert rec.outcomes[0] in range(3) and rec.outcomes[1] in range(3)
    assert rec.outcome_class in ("same", "diff")
    assert rec.verdict in (Verdict.DIFFERENT, Verdict.INCONCLUSIVE)
    assert (rec.verdict is Verdict.DIFFERENT) == (rec.outcome_class == "same")


def test_labeled_trial_equal_devices_never_agree():
    rng = np.random.default_rng(42)
    st = TestState.antisymmetric(2)
    for _ in range(200):
        a = Observable.random(2, rng)
        rec = run_labeled_trial(a, a, st, rng=rng)
        assert rec.outcome_class == "diff"
        assert rec.verdict is Verdict.INCONCLUSIVE


def test_unlabeled_trial_record():
    rng = np.random.default_rng(1)
    a = Observable.random(2, rng)
    b = Observable.random(2, rng)
    rec = run_unlabeled_trial(a, b, rng=rng)
    assert len(rec.outcomes) == 4
    assert rec.outcome_class in ("same_same", "same_diff", "diff_same", "diff_diff")


def test_unlabeled_trial_relabeling_hides_labels():
    # with equal devices and the optimal state, the conclusive classes never
    # fire no matter how outcomes are relabeled
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = Observable.random(2, rng)
        rec = run_unlabeled_trial(a, a, rng=rng)
        assert rec.outcome_class in ("same_same", "diff_diff")
        assert rec.verdict is Verdict.INCONCLUSIVE


def test_trial_records_are_pinned():
    # labeled d = 2, 3, 4 with the antisymmetric state, then unlabeled with
    # the optimal and kappa_2 states; every third (fourth) pair is equal
    rng = np.random.default_rng(2024)
    records = []
    for d in (2, 3, 4):
        state = TestState.antisymmetric(d)
        for i in range(6):
            a = Observable.random(d, rng)
            b = a if i % 3 == 0 else Observable.random(d, rng)
            records.append(run_labeled_trial(a, b, state, rng=rng))
    for i in range(8):
        a = Observable.random(2, rng)
        b = a if i % 4 == 0 else Observable.random(2, rng)
        records.append(run_unlabeled_trial(a, b, kappa_state(2) if i % 2 else None, rng=rng))
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

def test_shard_layout():
    assert _shards_for(1)[-1] == (0, 1)
    shards = _shards_for(2 * SHARD_SIZE + 5)
    assert [c for _, c in shards] == [SHARD_SIZE, SHARD_SIZE, 5]
    assert [s for s, _ in shards] == [0, 1, 2]


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
    # the "equal" shards of an invariant state draw no device and never go
    pools = []

    class RecordingPool(simulate.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append([max_workers])
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, tasks, **kwargs):
            pools[-1].append(sorted((t[2], t[7]) for t in tasks))
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


def test_fast_antisymmetric_path_equals_generic():
    # the closed-form antisymmetric table depends only on W = U^dag V, and a
    # "different" shard draws W as one Haar unitary per trial.  The generic
    # Born kernel on the device pair (I, W) has the same table, so replaying
    # that shard's stream through it must give the same counts.  With equal
    # devices both paths put every trial in class "diff".
    d, trials = 3, 4000
    state = TestState.antisymmetric(d)
    w, v = state.pure_components()
    for invariant in (False, True):
        equal = _shard_counts(("labeled", d, "equal", invariant, w, v, 99, 0, trials))
        assert equal == {"same": 0, "diff": trials}
    fast = _shard_counts(("labeled", d, "different", True, w, v, 99, 0, trials))
    gen = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0, 0)))
    ws = haar_unitaries(d, trials, gen)  # one batch: trials < _SUBCHUNK
    table = _mixture_table(np.broadcast_to(np.eye(d), ws.shape), ws, state, 2)
    drawn = _sample_rows(table, gen, outcome_class_index(2, d))
    assert fast == dict(zip(("same", "diff"), np.bincount(drawn, minlength=2).tolist()))


def _antisymmetric_qutrit_file(tmp_path) -> str:
    # a pure antisymmetric d=3 vector: one vector of a three-dimensional
    # subspace is not invariant, so it takes the generic Born path and both
    # truths draw Haar devices
    m = np.array([[0, 1, 2j], [-1, 0, 1], [-2j, -1, 0]])
    path = tmp_path / "anti3.npy"
    np.save(path, m.reshape(-1) / np.linalg.norm(m))
    return str(path)


def _antisymmetric_projector_file(tmp_path) -> str:
    # the labeled d=3 optimal state as a custom density matrix: invariant, so
    # it takes the one-unitary path although its kind is "custom"
    path = tmp_path / "anti_proj3.npy"
    np.save(path, TestState.antisymmetric(3).rho.mat)
    return str(path)


def _invariant_mixture(d: int, w_sym: float) -> TestState:
    # w_sym of the normalized symmetric projector plus the rest of the
    # normalized antisymmetric one: alpha 1 + beta SWAP with beta != -alpha
    s = swap(1, 2, 2, d).mat
    one = np.eye(d * d)
    rho = w_sym * (one + s) / (d * (d + 1)) + (1 - w_sym) * (one - s) / (d * (d - 1))
    return TestState.from_matrix(rho, d, 2)


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
    return TestState.from_matrix(rho, d, 2)


def _antisymmetric_mixture_file(tmp_path) -> str:
    path = tmp_path / "anti_mix4.npy"
    np.save(path, _antisymmetric_mixture(4, (0.5, 0.3, 0.2), 404).rho.mat)
    return str(path)


def _dense_mixture_file(tmp_path) -> str:
    path = tmp_path / "dense_mix.npy"
    np.save(path, _random_mixed_state(2, 4, 3, np.random.default_rng(505)).rho.mat)
    return str(path)


def test_two_shard_class_counts_are_pinned(tmp_path):
    # exact counts of two-shard campaigns of pure and invariant states, the
    # same in formats qmeter.campaign/4 and /5; any change to the random
    # streams, the Born kernels, the sampler or the outcome-to-class map
    # shows up here
    anti3 = _antisymmetric_qutrit_file(tmp_path)
    expected = {
        ("labeled", 3, "optimal"): {"different": {"same": 22802, "diff": 45734},
                                    "equal": {"same": 0, "diff": 68536}},
        # the "equal" block draws no device, so it is the format-3 count
        ("unlabeled", 2, "optimal"): {"different": {"same_same": 30341, "same_diff": 15206,
                                                    "diff_same": 15327, "diff_diff": 7662},
                                      "equal": {"same_same": 45794, "same_diff": 0,
                                                "diff_same": 0, "diff_diff": 22742}},
        ("labeled", 3, anti3): {"different": {"same": 22783, "diff": 45753},
                                "equal": {"same": 0, "diff": 68536}},
        ("unlabeled", 2, "kappa:2"): {"different": {"same_same": 30325, "same_diff": 15345,
                                                    "diff_same": 15263, "diff_diff": 7603},
                                      "equal": {"same_same": 22656, "same_diff": 23043,
                                                "diff_same": 22837, "diff_diff": 0}},
        # d = 2 and 5 are the fewest and most reflection levels in haar_unitaries
        ("labeled", 2, "optimal"): {"different": {"same": 34264, "diff": 34272},
                                    "equal": {"same": 0, "diff": 68536}},
        ("labeled", 5, "optimal"): {"different": {"same": 13599, "diff": 54937},
                                    "equal": {"same": 0, "diff": 68536}},
    }
    for (kind, dim, spec), counts in expected.items():
        res = run_campaign(CampaignConfig(Scenario(kind, dim), trials=SHARD_SIZE + 3000,
                                          seed=2024, test_state=spec))
        assert {t: dict(r.class_counts) for t, r in res.results.items()} == counts


def test_mixed_state_class_counts_are_pinned(tmp_path):
    # exact counts of two-shard campaigns of mixed, non-invariant states in
    # format qmeter.campaign/5, where each trial prepares one pure component
    expected = {
        ("unlabeled", 2, _kappa_mixture_file(tmp_path)): {
            "different": {"same_same": 30398, "same_diff": 15320, "diff_same": 15242,
                          "diff_diff": 7576},
            "equal": {"same_same": 22676, "same_diff": 23113, "diff_same": 22747,
                      "diff_diff": 0}},
        ("labeled", 4, _antisymmetric_mixture_file(tmp_path)): {
            "different": {"same": 17264, "diff": 51272},
            "equal": {"same": 0, "diff": 68536}},
    }
    for (kind, dim, spec), counts in expected.items():
        res = run_campaign(CampaignConfig(Scenario(kind, dim), trials=SHARD_SIZE + 3000,
                                          seed=2024, test_state=spec))
        assert {t: dict(r.class_counts) for t, r in res.results.items()} == counts


def test_a_mixed_shard_prepares_one_component_per_trial():
    # after its Haar unitaries a batch draws one multinomial over the
    # components, gives them contiguous sub-batches in pure_components order
    # and samples each from its own pure table; replaying that stream by
    # hand gives the shard's counts
    state = _antisymmetric_mixture(3, (0.7, 0.3), 8)
    w, v = state.pure_components()
    assert len(w) == 2
    trials, cls_of = 3000, outcome_class_index(2, 3)
    counts = _shard_counts(("labeled", 3, "different", False, w, v, 12, 0, trials))
    gen = np.random.default_rng(np.random.SeedSequence(12, spawn_key=(0, 0)))
    us, vs = haar_unitaries(3, trials, gen), haar_unitaries(3, trials, gen)
    parts = gen.multinomial(trials, w / w.sum())
    drawn, lo = [], 0
    for vec, k in zip(v, parts):
        table = _born_table(us[lo:lo + k], vs[lo:lo + k], vec, 2)
        drawn.append(_sample_rows(table, gen, cls_of))
        lo += k
    assert counts == dict(zip(("same", "diff"),
                              np.bincount(np.concatenate(drawn), minlength=2).tolist()))


def test_a_certified_mixed_state_never_reports_equal_devices_different():
    # each trial prepares one pure component, and every component of a
    # certified state keeps its own equal-device leak below TOL_ABS/2
    state = _antisymmetric_mixture(3, (0.6, 0.4), 31)
    assert not _is_invariant(state.rho)
    scen = Scenario("labeled", 3)
    assert conclusive_classes(scen, state) == ("same",)
    w, v = state.pure_components()
    assert len(w) == 2
    trials = 2 * SHARD_SIZE
    counts = [_shard_counts(("labeled", 3, "equal", False, w, v, 77, shard, SHARD_SIZE))
              for shard in range(trials // SHARD_SIZE)]
    assert sum(c["diff"] for c in counts) == trials
    assert sum(c["same"] for c in counts) == 0


def _random_mixed_state(d: int, n: int, rank: int, rng) -> TestState:
    g = rng.normal(size=(d ** n, rank)) + 1j * rng.normal(size=(d ** n, rank))
    rho = g @ g.conj().T
    return TestState.from_matrix(rho / np.trace(rho).real, d, n)


def test_invariance_is_read_off_rho(tmp_path):
    # the optimal states commute with every U^(x)n whatever their kind, and so
    # does the same projector read from a file; the kappa states, one vector
    # of the three-dimensional antisymmetric qutrit subspace and generic
    # mixed states do not
    unlabeled, qutrits = Scenario("unlabeled", 2), Scenario("labeled", 3)
    for d in range(2, 6):
        assert _is_invariant(TestState.antisymmetric(d).rho)
    assert _is_invariant(optimal_test_state(unlabeled).rho)
    assert _is_invariant(resolve_test_state(_antisymmetric_projector_file(tmp_path), qutrits).rho)
    assert _is_invariant(_invariant_mixture(3, 0.3).rho)
    for j in (1, 2, 3):
        assert not _is_invariant(kappa_state(j).rho)
    assert not _is_invariant(resolve_test_state(_antisymmetric_qutrit_file(tmp_path), qutrits).rho)
    rng = np.random.default_rng(12)
    for d, n in ((2, 2), (3, 2), (5, 2), (2, 4)):
        assert not _is_invariant(_random_mixed_state(d, n, 3, rng).rho)


@pytest.mark.parametrize("kind,d", [("labeled", 2), ("labeled", 3), ("labeled", 5),
                                    ("unlabeled", 2)])
def test_invariant_born_table_depends_on_w_alone(kind, d):
    # for an invariant state the table of (U, V) is the table of (I, U^dag V):
    # the unlabeled kernel with device A the computational basis, and the
    # labeled alpha + beta |W|^2 form
    rng = np.random.default_rng(40 + d)
    us, vs = haar_unitaries(d, 50, rng), haar_unitaries(d, 50, rng)
    ws = np.conj(us.transpose(0, 2, 1)) @ vs
    if kind == "labeled":
        w_sym = 0.3
        state = _invariant_mixture(d, w_sym)
        alpha = w_sym / (d * (d + 1)) + (1 - w_sym) / (d * (d - 1))
        beta = w_sym / (d * (d + 1)) - (1 - w_sym) / (d * (d - 1))
        shortcut = _labeled_probs_invariant(ws, alpha, beta)
    else:
        state = optimal_test_state(Scenario(kind, d))
        shortcut = _born_table(None, ws, state.pure_components()[1][0], 4)
    n = 2 if kind == "labeled" else 4
    assert_allclose(shortcut, _mixture_table(us, vs, state, n), rtol=0, atol=1e-12)


def test_invariant_equal_shard_draws_no_device(monkeypatch):
    # with equal devices an invariant state's table is diag(rho) for every
    # device, so the shard samples its class law without a Haar draw
    def no_haar(*args, **kwargs):
        raise AssertionError("haar_unitaries called")

    monkeypatch.setattr(simulate, "haar_unitaries", no_haar)
    for kind, d in (("labeled", 3), ("unlabeled", 2)):
        scen = Scenario(kind, d)
        w, v = optimal_test_state(scen).pure_components()
        counts = _shard_counts((kind, d, "equal", True, w, v, 5, 0, 3000))
        assert sum(counts.values()) == 3000
        assert not any(counts[c] for c in conclusive_classes(scen, optimal_test_state(scen)))
    with pytest.raises(AssertionError, match="haar_unitaries called"):
        _shard_counts(("unlabeled", 2, "different", True, w, v, 5, 0, 10))


@pytest.mark.parametrize("kind,d", [("labeled", 2), ("labeled", 3), ("labeled", 4),
                                    ("unlabeled", 2), ("unlabeled", 3)])
def test_born_table_matches_fixed_device_distributions(kind, d):
    # the batched kernels against the dense kron oracle, pair by pair, both on
    # the batch-last views that haar_unitaries returns and on C-contiguous
    # (size, d, d) stacks
    rng = np.random.default_rng(d)
    n, oracle = (2, labeled_outcome_distribution) if kind == "labeled" else (
        4, unlabeled_outcome_distribution)
    state = _random_mixed_state(d, n, 3, rng)
    batch_last = haar_unitaries(d, 6, rng), haar_unitaries(d, 6, rng)
    assert not batch_last[0].flags.c_contiguous
    pairs = [(Observable(u), Observable(v)) for u, v in zip(*batch_last)]
    for us, vs in (batch_last, tuple(np.ascontiguousarray(x) for x in batch_last)):
        table = _mixture_table(us, vs, state, n)
        for row, (a, b) in zip(table, pairs):
            assert_allclose(row, oracle(a, b, state).reshape(-1), rtol=0, atol=1e-12)
        # equal devices: the kernel reuses one device half for both
        for row, (a, _) in zip(_mixture_table(us, us, state, n), pairs):
            assert_allclose(row, oracle(a, a, state).reshape(-1), rtol=0, atol=1e-12)
        if kind == "labeled":
            # the closed form takes W = A^dag B alone; the antisymmetric state
            # is alpha 1 + beta SWAP with alpha = -beta = 1/(d(d-1))
            anti = TestState.antisymmetric(d)
            ws = np.conj(us.transpose(0, 2, 1)) @ vs
            alpha = 1 / (d * (d - 1))
            for row, (a, b) in zip(_labeled_probs_invariant(ws, alpha, -alpha), pairs):
                assert_allclose(row, oracle(a, b, anti).reshape(-1), rtol=0, atol=1e-12)


def _kernel_states():
    """(id, d, n, psi): the paper's sparse states, a vector with a zero row
    and a zero column, and dense random vectors."""
    rng = np.random.default_rng(55)
    anti3 = np.array([[0, 1, 2j], [-1, 0, 1], [-2j, -1, 0]])
    holes = np.array([[1, 2j, 0], [0, 0, 0], [3, -1j, 0]])  # row 1 and column 2 zero
    out = [(f"kappa:{j}", 2, 4, kappa_state(j).pure_components()[1][0]) for j in (1, 2, 3)]
    out += [("phi_q", 2, 4, singlet_pairing_state().vec), ("anti3", 3, 2, anti3.reshape(-1)),
            ("holes", 3, 2, holes.reshape(-1))]
    for d, n in ((2, 2), (3, 2), (4, 2), (2, 4)):
        out.append((f"dense{d}^{n}", d, n,
                    rng.normal(size=d ** n) + 1j * rng.normal(size=d ** n)))
    return [(name, d, n, psi / np.linalg.norm(psi)) for name, d, n, psi in out]


@pytest.mark.parametrize("name,d,n,psi", [pytest.param(*c, id=c[0]) for c in _kernel_states()])
def test_born_table_matches_the_oracle_on_sparse_and_dense_states(name, d, n, psi):
    # the kernel sums over the support of psi only; every entry must match
    # the dense kron oracle, with device A Haar, the same device twice, and
    # device A the computational basis (us=None)
    rng = np.random.default_rng(len(name) + d)
    us, vs = haar_unitaries(d, 8, rng), haar_unitaries(d, 8, rng)
    state = TestState.pure(Vector(psi, d, n))
    eye = Observable.computational(d)
    for a_side, b_side in ((us, vs), (us, us), (None, vs)):
        table = _born_table(a_side, b_side, psi, n)
        for i, row in enumerate(table):
            a = eye if a_side is None else Observable(a_side[i])
            expected = _outcome_table(a, Observable(b_side[i]), state, n).reshape(-1)
            assert_allclose(row, expected, rtol=0, atol=1e-12)


def test_sampling_in_row_blocks_keeps_the_stream():
    # one uniform per row, in row order, for categories and for classes:
    # consecutive row blocks draw what one call would
    gen = np.random.default_rng(31)
    us, vs = haar_unitaries(2, 1000, gen), haar_unitaries(2, 1000, gen)
    phi_q = optimal_test_state(Scenario("unlabeled", 2)).pure_components()[1][0]
    table = _born_table(us, vs, phi_q, 4)
    for classes in (None, outcome_class_index(4, 2)):
        whole = _sample_rows(table, np.random.default_rng(7), classes)
        blocks = np.random.default_rng(7)
        pieces = [_sample_rows(table[lo:lo + 300], blocks, classes) for lo in range(0, 1000, 300)]
        assert np.array_equal(np.concatenate(pieces), whole)


@pytest.mark.parametrize("kind,dim,spec", [
    ("labeled", 3, "anti3"), ("unlabeled", 2, "kappa_mix"), ("unlabeled", 2, "dense_mix"),
    ("labeled", 4, "anti_mix4"),
    # invariant states: one Haar W per "different" trial and one multinomial
    # per "equal" shard, for custom states too
    ("labeled", 3, "anti_proj3"), ("labeled", 3, "invariant_mix"),
    ("labeled", 2, "optimal"), ("labeled", 3, "optimal"), ("labeled", 4, "optimal"),
    ("labeled", 5, "optimal"), ("unlabeled", 2, "optimal"),
])
def test_every_class_count_follows_its_operator(tmp_path, kind, dim, spec):
    # trials are i.i.d. Haar, so class c occurs with probability tr(rho O_c)
    # under each hypothesis; every count, not only the conclusive rate, must
    # sit within 5 standard errors of it (a zero-probability class exactly at 0)
    files = {"anti3": _antisymmetric_qutrit_file, "kappa_mix": _kappa_mixture_file,
             "anti_proj3": _antisymmetric_projector_file,
             "invariant_mix": _invariant_mixture_file, "dense_mix": _dense_mixture_file,
             "anti_mix4": _antisymmetric_mixture_file}
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
        _sample_rows(rows, np.random.default_rng(0))


def test_sampler_never_draws_a_clamped_category():
    # the rows sum to 1 only up to rounding; a uniform in the gap between the
    # last nonzero cumulative value and 1 must not land on a trailing zero
    uniform_pairs = ((1.0 - np.eye(3)) / 6).reshape(1, -1)  # cum[-2] < 1
    assert np.cumsum(uniform_pairs)[-2] < 1.0
    rng = np.random.default_rng(5)
    st = TestState.antisymmetric(3)
    equal_devices = [labeled_outcome_distribution(a, a, st).reshape(-1)
                     for a in (Observable.random(3, rng) for _ in range(500))]
    tables = np.vstack([uniform_pairs] + equal_devices)
    idx = _sample_rows(tables, _TopOfRangeGenerator())
    assert np.all(tables[np.arange(len(tables)), idx] > TOL_ABS)


@pytest.mark.parametrize("kind,dim,spec", [("labeled", 3, "optimal"), ("unlabeled", 2, "optimal"),
                                           ("unlabeled", 2, "kappa:2")])
def test_class_sampler_never_draws_a_conclusive_class(kind, dim, spec):
    # a conclusive class sums only clamped entries, so it is exactly 0 on
    # equal-device rows; the class CDF's plateau pin keeps a uniform at the
    # top of [0, 1) off it even when it is the last class (kappa:2 certifies
    # diff_diff alone)
    scen = Scenario(kind, dim)
    state = resolve_test_state(spec, scen)
    us = haar_unitaries(dim, 2000, np.random.default_rng(8))
    for vec in state.pure_components()[1]:  # a trial prepares one component
        table = _born_table(us, us, vec, scen.slots)
        drawn = _sample_rows(table, _TopOfRangeGenerator(), outcome_class_index(scen.slots, dim))
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
    # multinomial per fixed-device Born table, so a change of a table in its
    # last bit, or of the stream, shows up here
    thetas = parse_theta_grid(DEFAULT_THETA_GRID)
    csv = sweep_to_csv(sweep_theta(thetas, trials=20000, seed=5))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "431a343eac7e403a06001364ae9b7b62495fba0ffe2179a270b7d981b8f73673")


def test_sweep_endpoints_are_exactly_inconclusive():
    # theta = 0 means identical observables: no conclusive outcome can fire
    pts = sweep_theta(np.array([0.0]), trials=5000, seed=3)
    assert pts[0].empirical == 0.0
