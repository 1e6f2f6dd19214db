from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmeter import (
    CampaignConfig,
    DimensionMismatchError,
    InvalidObservableError,
    InvalidStateError,
    LABELED_CLASSES,
    Observable,
    QmeterError,
    Scenario,
    TestState,
    UNLABELED_CLASSES,
    UnambiguityError,
    UnsupportedDimensionError,
    Vector,
    analytic_success,
    basis_family,
    conclusive_classes,
    fixed_pair_class_probability,
    kappa_state,
    labeled_class_operators,
    labeled_fixed_pair_success,
    labeled_outcome_distribution,
    labeled_outcome_probabilities,
    observable_pair_angle,
    optimal_success_over_subspace,
    optimal_test_state,
    pairwise_success_angle,
    rank,
    run_campaign,
    run_labeled_trial,
    singlet_pairing_state,
    unlabeled_operators,
    unlabeled_outcome_distribution,
    unlabeled_single_use_probability,
)

HADAMARD = Observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


# --- scenario / observable / state validation --------------------------------

def test_scenario_validation():
    assert Scenario("labeled", 4).dim == 4
    with pytest.raises(UnsupportedDimensionError):
        Scenario("unlabeled", 3)
    with pytest.raises(ValueError) as exc:
        Scenario("mystery", 2)
    assert isinstance(exc.value, QmeterError)
    assert Scenario("labeled", 4).slots == 2
    assert Scenario("unlabeled").slots == 4


@pytest.mark.parametrize("bad", [2.5, True, 3.0, "3", None])
def test_scenario_dimension_must_be_an_integer(bad):
    # a float or bool dimension once reached run_campaign and died there
    # with a raw TypeError
    with pytest.raises(QmeterError):
        Scenario("labeled", bad)


def test_scenario_accepts_a_numpy_integer_dimension():
    scen = Scenario("labeled", np.int64(3))
    assert scen.dim == 3 and type(scen.dim) is int
    doc = run_campaign(CampaignConfig(scen, trials=10, seed=1)).to_json_dict()
    assert doc["scenario"] == {"kind": "labeled", "dim": 3}


def test_observable_requires_unitary_basis():
    with pytest.raises(InvalidObservableError):
        Observable(np.array([[1.0, 1.0], [0.0, 1.0]]))
    obs = Observable.qubit_angle(0.3)
    projs = obs.projectors()
    assert projs.shape == (2, 2, 2)
    assert_allclose(projs.sum(axis=0), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observable_rejects_a_non_finite_basis(bad):
    # NaN fails every comparison, so an orthonormality test written as
    # "error > tol" would pass it
    with pytest.raises(InvalidObservableError):
        Observable(np.full((2, 2), bad))
    with pytest.raises(InvalidObservableError):
        Observable(np.array([[1.0, 0.0], [0.0, bad]]))


def test_non_finite_device_cannot_yield_a_certificate():
    # with a NaN basis accepted, this trial came out "different" on class same
    with pytest.raises(InvalidObservableError):
        run_labeled_trial(Observable(np.full((2, 2), np.nan)), Observable.computational(2),
                          TestState.antisymmetric(2), rng=1)


def test_observable_random_is_seeded():
    a = Observable.random(3, np.random.default_rng(5))
    b = Observable.random(3, np.random.default_rng(5))
    assert_allclose(a.basis, b.basis)
    assert_allclose(a.basis @ a.basis.conj().T, np.eye(3), atol=1e-12)


def test_test_state_validation():
    with pytest.raises(InvalidStateError):
        TestState.from_matrix(np.eye(4), 2, 2)  # trace 4
    with pytest.raises(InvalidStateError):
        TestState.from_matrix(np.diag([0.7, 0.5, -0.2, 0.0]), 2, 2)  # negative
    for bad in (np.nan, np.inf):  # comparisons pass NaN; eigvalsh would raise LinAlgError
        with pytest.raises(InvalidStateError):
            TestState.from_matrix(np.diag([0.25, 0.25, 0.25, bad]), 2, 2)
        with pytest.raises(InvalidStateError):
            TestState.pure(Vector(np.full(4, bad), 2, 2))
    ok = TestState.from_matrix(np.diag([0.25] * 4), 2, 2)
    w, v = ok.pure_components()
    assert w.shape == (4,)
    assert v.shape == (4, 4)
    assert_allclose(w, 0.25)


def test_pure_components_keep_the_structural_zeros():
    # eigh leaves roundoff where the eigenvectors of these states are zero;
    # the components a trial prepares hold exact zeros there, so the Born
    # kernel skips them (kappa vectors: 4, 2 and 4 nonzero entries of 16;
    # phi_Q: 6)
    fam = basis_family("kappa")
    mix = TestState.from_matrix(
        sum(w * v.projector().mat for w, v in zip((0.5, 0.3, 0.2), fam)), 2, 4)
    w, v = mix.pure_components()
    assert_allclose(w, (0.2, 0.3, 0.5), rtol=0, atol=1e-12)
    for vec, exact in zip(v, fam[::-1]):
        assert np.array_equal(vec != 0, exact.vec != 0)
        assert abs(abs(np.vdot(exact.vec, vec)) - 1) < 1e-12
    phi_q = optimal_test_state(Scenario("unlabeled", 2)).pure_components()[1]
    assert np.array_equal(phi_q[0] != 0, singlet_pairing_state().vec != 0)
    assert np.count_nonzero(phi_q[0]) == 6


def test_antisymmetric_state_dimensions():
    for d in (2, 3, 4, 5):
        st = TestState.antisymmetric(d)
        assert st.rho.d == d and st.rho.n == 2
        assert st.rho.trace().real == pytest.approx(1.0)
        assert rank(st.rho) == d * (d - 1) // 2


# --- labeled protocol ---------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_class_operators_complete(d):
    ops = labeled_class_operators(d)
    assert set(ops) == set(LABELED_CLASSES)
    for hyp in ("equal", "different"):
        total = sum(getattr(ops[c], hyp).mat for c in LABELED_CLASSES)
        assert_allclose(total, np.eye(d * d), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_labeled_different_devices_flat_table(d):
    # averaged over independent bases, every outcome pair is equally likely
    st = TestState.antisymmetric(d)
    table = labeled_outcome_probabilities(st)
    assert table.q_same_different == pytest.approx(1 / d ** 2, abs=1e-12)
    assert table.q_diff_different == pytest.approx(1 / d ** 2, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_antisymmetric_success(d):
    rep = analytic_success(Scenario("labeled", d))
    assert rep.total == pytest.approx(1 / d, abs=1e-10)
    assert rep.per_class["same"] == pytest.approx(1 / d, abs=1e-10)
    assert conclusive_classes(Scenario("labeled", d), TestState.antisymmetric(d)) == ("same",)


def test_labeled_product_state_is_not_unambiguous():
    # a product test state sees equal devices land on "same" sometimes
    from qmeter import basis_ket
    st = TestState.pure(basis_ket((0, 1), 3))
    table = labeled_outcome_probabilities(st)
    assert table.q_same_equal > 1e-3
    assert conclusive_classes(Scenario("labeled", 3), st) == ()
    with pytest.raises(UnambiguityError):
        analytic_success(Scenario("labeled", 3), st, claimed=("same",))


def test_labeled_fixed_pair_singlet():
    z = Observable.computational(2)
    st = TestState.antisymmetric(2)
    # identical devices never agree on the singlet
    table = labeled_outcome_distribution(z, z, st)
    assert np.trace(table) == pytest.approx(0.0, abs=1e-12)
    # mutually unbiased pair: success 1/2
    assert labeled_fixed_pair_success(z, HADAMARD, st) == pytest.approx(0.5, abs=1e-12)


def test_labeled_distribution_rows_sum_to_one():
    rng = np.random.default_rng(11)
    a = Observable.random(3, rng)
    b = Observable.random(3, rng)
    table = labeled_outcome_distribution(a, b, TestState.antisymmetric(3))
    assert table.shape == (3, 3)
    assert np.sum(table) == pytest.approx(1.0, abs=1e-12)


# --- unlabeled protocol -------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_unlabeled_class_operators_complete(d):
    ops = unlabeled_operators(d)
    assert set(ops) == set(UNLABELED_CLASSES)
    for hyp in ("equal", "different"):
        total = sum(getattr(ops[c], hyp).mat for c in UNLABELED_CLASSES)
        assert_allclose(total, np.eye(d ** 4), atol=1e-10)
    for c in UNLABELED_CLASSES:
        for hyp in ("equal", "different"):
            op = getattr(ops[c], hyp)
            assert op.is_psd(), f"{c}/{hyp} not PSD"


@pytest.mark.parametrize("cls,expected", [
    ("same_same", 0), ("same_diff", 1), ("diff_same", 1), ("diff_diff", 3),
])
def test_no_error_subspace_ranks(cls, expected):
    ops = unlabeled_operators(2)
    assert rank(ops[cls].no_error) == expected


def test_no_error_subspaces_annihilate_equal_hypothesis():
    ops = unlabeled_operators(2)
    for c in UNLABELED_CLASSES:
        q = ops[c].no_error.mat
        prod = q @ ops[c].equal.mat
        assert np.max(np.abs(prod)) < 1e-10, c


def test_singlet_pairing_state_success():
    rep = analytic_success(Scenario("unlabeled", 2))
    assert rep.total == pytest.approx(4 / 9, abs=1e-10)
    assert rep.per_class["same_diff"] == pytest.approx(2 / 9, abs=1e-10)
    assert rep.per_class["diff_same"] == pytest.approx(2 / 9, abs=1e-10)
    st = optimal_test_state(Scenario("unlabeled", 2))
    assert st.kind == "singlet_pairing"
    assert conclusive_classes(Scenario("unlabeled", 2), st) == ("same_diff", "diff_same")


@pytest.mark.parametrize("j", [1, 2, 3])
def test_kappa_states_success(j):
    st = kappa_state(j)
    rep = analytic_success(Scenario("unlabeled", 2), st)
    assert rep.total == pytest.approx(1 / 9, abs=1e-10)
    assert rep.per_class["diff_diff"] == pytest.approx(1 / 9, abs=1e-10)
    assert conclusive_classes(Scenario("unlabeled", 2), st) == ("diff_diff",)


def test_kappa_state_rejects_bad_index():
    for j in (0, 4, 7):
        with pytest.raises(ValueError) as exc:
            kappa_state(j)
        assert isinstance(exc.value, QmeterError)


def test_optimal_success_over_no_error_subspaces():
    ops = unlabeled_operators(2)
    best_dd = optimal_success_over_subspace(ops["diff_diff"].no_error,
                                            ops["diff_diff"].different)
    assert best_dd == pytest.approx(1 / 9, abs=1e-10)
    both = ops["same_diff"].different + ops["diff_same"].different
    best_sd = optimal_success_over_subspace(ops["same_diff"].no_error, both)
    assert best_sd == pytest.approx(4 / 9, abs=1e-10)
    # the empty subspace supports nothing
    assert optimal_success_over_subspace(ops["same_same"].no_error, both) == 0.0


def test_unlabeled_distribution_matches_class_table():
    # summing the 16-outcome Born table over each outcome class must agree
    # with the class operators, for a generic fixed pair of observables
    rng = np.random.default_rng(2)
    a = Observable.random(2, rng)
    b = Observable.random(2, rng)
    st = optimal_test_state(Scenario("unlabeled", 2))
    table = unlabeled_outcome_distribution(a, b, st)
    assert table.shape == (2, 2, 2, 2)
    assert np.sum(table) == pytest.approx(1.0, abs=1e-12)
    total = 0.0
    for cls in UNLABELED_CLASSES:
        p_direct = fixed_pair_class_probability(a, b, st, cls)
        total += p_direct
    assert total == pytest.approx(1.0, abs=1e-12)
    # equal devices: conclusive classes carry zero weight
    for cls in ("same_diff", "diff_same"):
        assert fixed_pair_class_probability(a, a, st, cls) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DimensionMismatchError):
        fixed_pair_class_probability(a, b, st, "bogus")


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (4, 2)])
def test_outcome_tables_equal_the_np_kron_construction(n, d):
    # bit for bit: the Kronecker powers associate as kron(A^(x)k, B^(x)k) and
    # the diagonal comes from the same two matmuls
    rng = np.random.default_rng(d)
    weights = rng.uniform(size=3)
    vecs = rng.normal(size=(3, d ** n)) + 1j * rng.normal(size=(3, d ** n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    rho = (vecs.T * weights / weights.sum()) @ vecs.conj()
    table = labeled_outcome_distribution if n == 2 else unlabeled_outcome_distribution
    for _ in range(4):
        a, b = Observable.random(d, rng), Observable.random(d, rng)
        w = np.kron(reduce(np.kron, [a.basis] * (n // 2)), reduce(np.kron, [b.basis] * (n // 2)))
        expected = np.real(np.diagonal(w.conj().T @ rho @ w)).reshape((d,) * n)
        assert np.array_equal(table(a, b, TestState.from_matrix(rho, d, n)), expected)


def test_unlabeled_angle_law_on_grid():
    z = Observable.computational(2)
    st = optimal_test_state(Scenario("unlabeled", 2))
    for theta in np.linspace(0, np.pi / 2, 9):
        b = Observable.qubit_angle(float(theta))
        p = sum(fixed_pair_class_probability(z, b, st, c)
                for c in ("same_diff", "diff_same"))
        assert p == pytest.approx(pairwise_success_angle(float(theta)), abs=1e-10)
        assert observable_pair_angle(z, b) == pytest.approx(float(theta), abs=1e-9)


def test_single_use_is_useless():
    # one shot of each device, arbitrary entangled state: after averaging over
    # the hidden labelings every outcome pair has probability 1/d^2
    rng = np.random.default_rng(7)
    a = Observable.random(2, rng)
    b = Observable.random(2, rng)
    from qmeter import Vector
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = TestState.pure(Vector(vec, 2, 2).normalized())
    table = unlabeled_single_use_probability(a, b, st)
    assert_allclose(table, np.full((2, 2), 0.25), atol=1e-12)


def test_analytic_success_validates_claims():
    # same_same is never conclusive: equal devices can always land there
    with pytest.raises(UnambiguityError):
        analytic_success(Scenario("unlabeled", 2), claimed=("same_same",))
    with pytest.raises(DimensionMismatchError):
        analytic_success(Scenario("unlabeled", 2), claimed=("bogus",))
