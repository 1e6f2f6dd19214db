"""Acceptance gate: eight criteria, one [PASS]/[FAIL] line each.

Every criterion re-derives its target from the package API at the stated
tolerance; nothing is stubbed or pre-recorded.  The Monte Carlo criteria use
fixed seeds, so the suite is deterministic end to end.
"""
import json
import time

import numpy as np
import pytest

from qmeter import (
    CampaignConfig,
    Observable,
    Scenario,
    TestState,
    analytic_success,
    basis_family,
    fixed_pair_class_probability,
    kappa_state,
    mc_agrees,
    mc_perp_moment,
    mc_twirl,
    optimal_test_state,
    outcome_class_index,
    pairwise_success_angle,
    rank,
    run_campaign,
    singlet_pairing_state,
    sweep_theta,
    symmetrizer,
    unlabeled_operators,
)
from qmeter.tensors import Vector
from qmeter.verify import perp_moment, pure_moment, r_operator, rbar

MC_TRIALS = 1_000_000
SWEEP_SHOTS = 100_000
MOMENT_SAMPLES = 100_000


def _announce(capsys, ok: bool, label: str, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_criterion_1_labeled_rate(capsys):
    """Labeled protocol: success 1/d analytically and by simulation, d = 2..5."""
    worst_analytic = 0.0
    worst_sigma = 0.0
    slowest = 0.0
    for d in (2, 3, 4, 5):
        rep = analytic_success(Scenario("labeled", d))
        worst_analytic = max(worst_analytic, abs(rep.total - 1 / d))
        t0 = time.perf_counter()
        cfg = CampaignConfig(Scenario("labeled", d), trials=MC_TRIALS,
                             seed=1000 + d, ground_truth="different")
        block = run_campaign(cfg).results["different"]
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        sigma = abs(block.different_rate - 1 / d) / block.different_rate_stderr
        worst_sigma = max(worst_sigma, sigma)
    ok = worst_analytic <= 1e-10 and worst_sigma <= 3.0 and slowest < 60.0
    _announce(capsys, ok, "criterion 1 (labeled success = 1/d, d=2..5)",
              f"analytic dev {worst_analytic:.1e} (tol 1e-10), MC dev "
              f"{worst_sigma:.2f} SE (limit 3), slowest dim {slowest:.1f}s (< 60s)")
    assert ok


def test_criterion_2_unlabeled_rates(capsys):
    """Unlabeled qubit protocol: 4/9 for the pairing state, 1/9 for kappa."""
    scen = Scenario("unlabeled", 2)
    rep = analytic_success(scen)
    dev = abs(rep.total - 4 / 9)
    dev = max(dev, abs(rep.per_class["same_diff"] - 2 / 9))
    dev = max(dev, abs(rep.per_class["diff_same"] - 2 / 9))
    for j in (1, 2, 3):
        dev = max(dev, abs(analytic_success(scen, kappa_state(j)).total - 1 / 9))
    t0 = time.perf_counter()
    block_phi = run_campaign(CampaignConfig(
        scen, trials=MC_TRIALS, seed=2001, ground_truth="different",
    )).results["different"]
    block_kap = run_campaign(CampaignConfig(
        scen, trials=MC_TRIALS, seed=2002, ground_truth="different",
        test_state="kappa:1",
    )).results["different"]
    elapsed = time.perf_counter() - t0
    sig_phi = abs(block_phi.different_rate - 4 / 9) / block_phi.different_rate_stderr
    sig_kap = abs(block_kap.different_rate - 1 / 9) / block_kap.different_rate_stderr
    ok = dev <= 1e-10 and sig_phi <= 3.0 and sig_kap <= 3.0 and elapsed < 120.0
    _announce(capsys, ok, "criterion 2 (unlabeled 4/9 = 2/9 + 2/9 and kappa 1/9)",
              f"analytic dev {dev:.1e} (tol 1e-10), MC devs {sig_phi:.2f}/"
              f"{sig_kap:.2f} SE (limit 3), {elapsed:.1f}s (< 120s)")
    assert ok


def test_criterion_3_unambiguity(capsys):
    """Equal devices never produce a Different verdict, one million trials each."""
    false_positives = {}
    lab = CampaignConfig(Scenario("labeled", 3), trials=MC_TRIALS, seed=3001,
                         ground_truth="equal")
    false_positives["labeled antisymmetric"] = \
        run_campaign(lab).results["equal"].different_verdicts
    phi = CampaignConfig(Scenario("unlabeled", 2), trials=MC_TRIALS, seed=3002,
                         ground_truth="equal")
    false_positives["unlabeled pairing"] = \
        run_campaign(phi).results["equal"].different_verdicts
    kap = CampaignConfig(Scenario("unlabeled", 2), trials=MC_TRIALS, seed=3003,
                         ground_truth="equal", test_state="kappa:2")
    false_positives["unlabeled kappa"] = \
        run_campaign(kap).results["equal"].different_verdicts
    ok = all(v == 0 for v in false_positives.values())
    _announce(capsys, ok, "criterion 3 (zero false positives in 3 x 10^6 equal-device trials)",
              ", ".join(f"{k}: {v}" for k, v in false_positives.items()))
    assert ok


def test_criterion_4_angle_law(capsys):
    """Fixed observable pairs at angle theta: success (2/3) sin^2(2 theta)."""
    thetas = np.linspace(0.0, np.pi / 2, 33)
    z = Observable.computational(2)
    st = optimal_test_state(Scenario("unlabeled", 2))
    worst_direct = 0.0
    for theta in thetas:
        b = Observable.qubit_angle(float(theta))
        direct = sum(fixed_pair_class_probability(z, b, st, c)
                     for c in ("same_diff", "diff_same"))
        worst_direct = max(worst_direct, abs(direct - pairwise_success_angle(float(theta))))
    points = sweep_theta(thetas, trials=SWEEP_SHOTS, seed=4001)
    worst_sigma = 0.0
    exact_zero_ok = True
    for p in points:
        se = np.sqrt(p.analytic * (1 - p.analytic) / SWEEP_SHOTS)
        if se == 0.0:
            exact_zero_ok = exact_zero_ok and p.empirical == p.analytic
        else:
            worst_sigma = max(worst_sigma, abs(p.empirical - p.analytic) / se)
    ok = worst_direct <= 1e-9 and worst_sigma <= 3.0 and exact_zero_ok
    _announce(capsys, ok, "criterion 4 (angle law (2/3) sin^2(2 theta), 33-point grid)",
              f"direct Born dev {worst_direct:.1e} (tol 1e-9), empirical dev "
              f"{worst_sigma:.2f} SE (limit 3) at {SWEEP_SHOTS} shots/point")
    assert ok


def test_criterion_5_subspace_facts(capsys):
    """Ranks, eigenvalues and overlaps of the four-qubit subspace structure."""
    p12 = symmetrizer((1, 2), 4, 2)
    p34 = symmetrizer((3, 4), 4, 2)
    p1234 = symmetrizer((1, 2, 3, 4), 4, 2)
    p12x34 = p12 @ p34
    ops = unlabeled_operators(2)
    ranks = {
        "P1234+": (rank(p1234), 5),
        "P12+ (x) P34+": (rank(p12x34), 9),
        "P12+ (x) 1": (rank(p12), 12),
        "support(O_dd equal)": (rank(ops["diff_diff"].support_equal), 13),
        "Q_dd": (rank(ops["diff_diff"].no_error), 3),
        "Q_sd": (rank(ops["same_diff"].no_error), 1),
        "Q_ss": (rank(ops["same_same"].no_error), 0),
    }
    rank_ok = all(got == want for got, want in ranks.values())

    q123 = symmetrizer((1, 2, 3), 4, 2) - p1234
    q124 = symmetrizer((1, 2, 4), 4, 2) - p1234
    w = np.linalg.eigvalsh((q123 + q124).mat)
    nonzero = np.sort(w[np.abs(w) > 1e-9])
    target = np.array([2 / 3] * 3 + [4 / 3] * 3)
    eig_dev = (np.max(np.abs(nonzero - target))
               if nonzero.shape == target.shape else np.inf)

    om = basis_family("omega")
    omp = basis_family("omega_prime")
    cross = np.array([[a.inner(b) for b in omp] for a in om])
    cross_dev = np.max(np.abs(cross - (-2) * np.eye(3)))

    k2p = basis_family("kappa_prime")[0]
    p13x24 = symmetrizer((1, 3), 4, 2) @ symmetrizer((2, 4), 4, 2)
    overlap_dev = abs(p13x24.expval(k2p).real - 0.25)

    ok = rank_ok and eig_dev <= 1e-9 and cross_dev <= 1e-10 and overlap_dev <= 1e-10
    rank_str = ", ".join(f"{k}={got}" for k, (got, _) in ranks.items())
    _announce(capsys, ok, "criterion 5 (subspace ranks, eigenvalues, overlaps)",
              f"{rank_str}; eig dev {eig_dev:.1e} (tol 1e-9), "
              f"omega cross dev {cross_dev:.1e} (tol 1e-10), "
              f"kappa' overlap dev {overlap_dev:.1e} (tol 1e-10)")
    assert ok


def test_criterion_6_moment_oracles(capsys):
    """Every closed-form moment operator against a fresh seeded MC integral."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0

    def check(label, mc_result, target):
        nonlocal worst
        ok, sigmas = mc_agrees(*mc_result, target, nsig=5.0)
        worst = max(worst, sigmas)
        if not ok:
            failures.append(f"{label} ({sigmas:.1f} SE)")

    # 12 of the 14 are Haar twirls of diagonals: mc_twirl estimates them
    for d, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)]:
        mean, se = mc_twirl(np.eye(1, d ** k), (k,), d, MOMENT_SAMPLES, seed=6000 + 10 * d + k)
        check(f"pure_moment(k={k},d={d})", (mean[0], se[0]), pure_moment(k, d).mat)
    for d in (2, 3):
        psi = Vector(np.eye(d)[0], d, 1)
        check(f"perp_moment(k=2,d={d})",
              mc_perp_moment(psi, 2, MOMENT_SAMPLES, seed=6100 + d),
              perp_moment(psi, 2).mat)
    for split in ("12-34", "13-24", "14-23"):
        # digit 0 on pair1, 1 on pair2: columns 0 and 1 of U are (psi, phi)
        pair2 = {"12-34": (3, 4), "13-24": (2, 4), "14-23": (2, 3)}[split]
        ket = np.eye(1, 16, sum(2 ** (4 - q) for q in pair2))
        mean, se = mc_twirl(ket, (4,), 2, MOMENT_SAMPLES, seed=6200)
        check(f"r_operator({split})", (mean[0], se[0]),
              (r_operator(split, 2) @ symmetrizer(pair2, 4, 2)).mat)
    for d in (2, 3):
        indicators = (outcome_class_index(2, d) == np.arange(2)[:, None]) / d
        mean, se = mc_twirl(indicators, (2,), d, MOMENT_SAMPLES, seed=6300 + d)
        for i, which in enumerate(("same", "diff")):
            check(f"rbar({which},d={d})", (mean[i], se[i]), rbar(which, d).mat)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    detail = (f"14 operators x {MOMENT_SAMPLES} samples, worst dev {worst:.2f} SE "
              f"(limit 5), {elapsed:.1f}s (< 120s)")
    if failures:
        detail += "; FAILED: " + "; ".join(failures)
    _announce(capsys, ok, "criterion 6 (moment operators vs seeded MC)", detail)
    assert ok


def test_criterion_7_no_error_extraction(capsys):
    """Q subspaces from support algebra coincide with the closed-form bases."""
    ops = unlabeled_operators(2)
    phi = singlet_pairing_state()
    dist_sd = np.linalg.norm(
        ops["same_diff"].no_error.mat - np.outer(phi.vec, phi.vec.conj()), ord=2)
    kap_span = sum(np.outer(v.vec, v.vec.conj()) for v in basis_family("kappa"))
    dist_dd = np.linalg.norm(ops["diff_diff"].no_error.mat - kap_span, ord=2)
    ok = dist_sd < 1e-9 and dist_dd < 1e-9
    _announce(capsys, ok, "criterion 7 (algebraic no-error subspaces match closed forms)",
              f"|Q_sd - phi_Q projector| = {dist_sd:.1e}, "
              f"|Q_dd - kappa span| = {dist_dd:.1e} (tol 1e-9)")
    assert ok


def test_criterion_8_determinism(capsys):
    """Same seed gives byte-identical campaign JSON, for any worker count."""
    from qmeter.simulate import SHARD_SIZE
    trials = SHARD_SIZE + 777  # force a shard boundary
    outputs = {}
    for scen in (Scenario("labeled", 2), Scenario("unlabeled", 2)):
        cfg1 = CampaignConfig(scen, trials=trials, seed=8001, workers=1)
        rerun = CampaignConfig(scen, trials=trials, seed=8001, workers=1)
        split = CampaignConfig(scen, trials=trials, seed=8001, workers=2)
        j1 = run_campaign(cfg1).to_json()
        outputs[scen.kind] = (j1 == run_campaign(rerun).to_json(),
                              j1 == run_campaign(split).to_json())
    ok = all(same and cross for same, cross in outputs.values())
    detail = ", ".join(
        f"{kind}: rerun {'==' if same else '!='} first, "
        f"2-worker {'==' if cross else '!='} 1-worker"
        for kind, (same, cross) in outputs.items())
    _announce(capsys, ok, "criterion 8 (byte-identical outputs across runs and workers)",
              detail)
    assert ok
