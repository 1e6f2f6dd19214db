import json

import numpy as np
import pytest
from jsonschema import validate
from numpy.testing import assert_allclose

from qmeter import (
    CampaignConfig,
    ConfigError,
    Observable,
    Scenario,
    TestState,
    Verdict,
    optimal_test_state,
    pairwise_success_angle,
    resolve_test_state,
    run_campaign,
    run_labeled_trial,
    run_unlabeled_trial,
    sweep_theta,
    sweep_to_csv,
)
from qmeter.simulate import SHARD_SIZE, _shard_counts, _shards_for

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
    # the labeled simulator has a closed-form sampler for the antisymmetric
    # state; with the same seed it must reproduce the generic Born sampler
    st = TestState.antisymmetric(3)
    w, v = st.pure_components()
    for truth in ("different", "equal"):
        fast = _shard_counts(("labeled", 3, truth, True, w, v, 99, 0, 4000))
        slow = _shard_counts(("labeled", 3, truth, False, w, v, 99, 0, 4000))
        assert fast == slow


def test_two_shard_class_counts_are_pinned():
    # exact counts of two-shard campaigns; any change to the random streams
    # or the outcome-to-class map shows up here
    expected = {
        ("labeled", 3): {"different": {"same": 22598, "diff": 45938},
                         "equal": {"same": 0, "diff": 68536}},
        ("unlabeled", 2): {"different": {"same_same": 30672, "same_diff": 15205,
                                         "diff_same": 15081, "diff_diff": 7578},
                           "equal": {"same_same": 45652, "same_diff": 0,
                                     "diff_same": 0, "diff_diff": 22884}},
    }
    for (kind, dim), counts in expected.items():
        res = run_campaign(CampaignConfig(Scenario(kind, dim), trials=SHARD_SIZE + 3000, seed=2024))
        assert {t: dict(r.class_counts) for t, r in res.results.items()} == counts


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


def test_sweep_endpoints_are_exactly_inconclusive():
    # theta = 0 means identical observables: no conclusive outcome can fire
    pts = sweep_theta(np.array([0.0]), trials=5000, seed=3)
    assert pts[0].empirical == 0.0
