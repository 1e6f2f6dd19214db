import itertools
import math
import pickle
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmeter import (
    CampaignConfig,
    ConfigError,
    DimensionMismatchError,
    InvalidObservableError,
    InvalidStateError,
    LABELED_CLASSES,
    Observable,
    Operator,
    QmeterError,
    Scenario,
    TOL_ABS,
    TestState,
    UNLABELED_CLASSES,
    UnsupportedDimensionError,
    Vector,
    all_passed,
    analytic_success,
    antisymmetrizer,
    basis_family,
    basis_ket,
    class_probabilities,
    conclusive_classes,
    identity,
    kappa_state,
    kron,
    labeled_class_operators,
    mc_agrees,
    mc_perp_moment,
    mc_twirl,
    optimal_test_state,
    outcome_class_index,
    outcome_table,
    pairwise_success_angle,
    rank,
    render_report,
    run_campaign,
    run_trial,
    support_projector,
    sweep_theta,
    sweep_to_csv,
    twirl,
    unlabeled_operators,
)
from qmeter.comparison import _check_bases, _optimum, _pair_laws, _pair_tables, _rotations
from qmeter.symmetry import perm_operator, swap, symmetrizer
from qmeter.verify import antisymmetric_state, singlet_pairing_state

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


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: Scenario("labeled", 33), UnsupportedDimensionError, id="labeled-33"),
    pytest.param(lambda: labeled_class_operators(1000), UnsupportedDimensionError,
                 id="labeled-operators-1000"),
    pytest.param(lambda: unlabeled_operators(6), UnsupportedDimensionError,
                 id="unlabeled-operators-6"),
    pytest.param(lambda: twirl(np.zeros((1, 1000 ** 2)), (2,), 1000), UnsupportedDimensionError,
                 id="twirl-1000"),
    pytest.param(lambda: mc_twirl(np.zeros((1, 1000 ** 2)), (2,), 1000, 10, 1),
                 UnsupportedDimensionError, id="mc-twirl-1000"),
    pytest.param(lambda: twirl(np.ones((1, 1)), (), 2), ConfigError, id="twirl-no-blocks"),
    pytest.param(lambda: twirl(np.ones((1, 1)), (0,), 2), ConfigError, id="twirl-zero-block"),
    pytest.param(lambda: twirl(np.ones((1, 1)), (2, -2), 2), ConfigError,
                 id="twirl-negative-block"),
    pytest.param(lambda: mc_twirl(np.ones((1, 1)), (0,), 2, 10, 1), ConfigError,
                 id="mc-twirl-zero-block"),
    pytest.param(lambda: twirl(np.full((1, 4), np.nan), (2,), 2), ConfigError, id="twirl-nan"),
    pytest.param(lambda: mc_perp_moment(Vector(np.array([1.0, 0.0]), 2, 1), 0, 10, 1),
                 ConfigError, id="perp-moment-k0"),
    pytest.param(lambda: identity(2000, 2), UnsupportedDimensionError, id="identity"),
    pytest.param(lambda: identity(np.int64(2), 64), UnsupportedDimensionError,
                 id="identity-int64-wraps"),
    pytest.param(lambda: identity(2.5, 2), ConfigError, id="identity-float"),
    pytest.param(lambda: basis_ket((0, 0), 2000), UnsupportedDimensionError, id="basis-ket"),
    pytest.param(lambda: kron(identity(32, 2), identity(32, 2)), UnsupportedDimensionError,
                 id="kron"),
    pytest.param(lambda: perm_operator((2, 1), 2, 2000), UnsupportedDimensionError,
                 id="perm-operator"),
    pytest.param(lambda: swap(1, 2, 2, 2000), UnsupportedDimensionError, id="swap"),
    pytest.param(lambda: symmetrizer((1, 2), 2, 2000), UnsupportedDimensionError,
                 id="symmetrizer"),
    pytest.param(lambda: antisymmetrizer((1, 2), 2, 2000), UnsupportedDimensionError,
                 id="antisymmetrizer"),
    pytest.param(lambda: outcome_class_index(40, 2), UnsupportedDimensionError,
                 id="outcome-class-index"),
    # n is bounded before d ** n is taken: 2 ** 15000 once broke the error
    # message (Python's 4,300-digit limit), and at d = 1 numpy's 64 axes
    # were the only bound
    pytest.param(lambda: identity(2, 15000), UnsupportedDimensionError, id="identity-15000-slots"),
    pytest.param(lambda: outcome_class_index(100, 1), UnsupportedDimensionError,
                 id="outcome-class-index-d1"),
    pytest.param(lambda: antisymmetrizer((1, 2), 100, 1), UnsupportedDimensionError,
                 id="antisymmetrizer-d1"),
    # 8! slot permutations compared pairwise over 256 kets: 416 GB
    pytest.param(lambda: twirl(np.ones((1, 256)), (8,), 2), UnsupportedDimensionError,
                 id="twirl-permutation-gram"),
])
def test_the_dense_operators_stop_at_1024_dimensions(call, error):
    # d ** slots <= 1024: labeled d = 32, unlabeled qubits (16) and the
    # qutrit class operators (81) fit; each operator takes 16 (d ** slots)^2
    # bytes, and the twirl several times that.  Every dense builder checks
    # its integers and the bound, and the Haar layer its other arguments,
    # before it allocates (each case after the first three once ended in a
    # MemoryError, a raw ValueError or TypeError, or a NaN or empty operator)
    assert Scenario("labeled", 32).dim == 32
    with pytest.raises(error):
        call()


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
    # an empty basis once died in numpy's max over a zero-size array
    with pytest.raises(InvalidObservableError):
        Observable(np.zeros((0, 0)))
    with pytest.raises(InvalidObservableError):
        Observable.random(0)
    with pytest.raises(InvalidObservableError):  # once numpy's ValueError from complex()
        Observable("abc")


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
        run_trial(Scenario("labeled", 2), Observable(np.full((2, 2), np.nan)),
                  Observable.computational(2), optimal_test_state(Scenario("labeled", 2)), rng=1)


def test_observable_random_is_seeded():
    a = Observable.random(3, np.random.default_rng(5))
    b = Observable.random(3, np.random.default_rng(5))
    assert_allclose(a.basis, b.basis)
    assert_allclose(a.basis @ a.basis.conj().T, np.eye(3), atol=1e-12)


def test_test_state_validation():
    with pytest.raises(InvalidStateError):
        TestState(Operator(np.eye(4), 2, 2))  # trace 4
    with pytest.raises(InvalidStateError):
        TestState(Operator(np.diag([0.7, 0.5, -0.2, 0.0]), 2, 2))  # negative
    for bad in (np.nan, np.inf):  # comparisons pass NaN; eigvalsh would raise LinAlgError
        with pytest.raises(InvalidStateError):
            TestState(Operator(np.diag([0.25, 0.25, 0.25, bad]), 2, 2))
        with pytest.raises(InvalidStateError):
            TestState.pure(Vector(np.full(4, bad), 2, 2))
    with pytest.raises(InvalidStateError):  # once an AttributeError on .mat
        TestState(np.eye(4) / 4)
    ok = TestState(Operator(np.diag([0.25] * 4), 2, 2))
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
    mix = TestState(Operator(
        sum(w * v.projector().mat for w, v in zip((0.5, 0.3, 0.2), fam)), 2, 4))
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
        st = optimal_test_state(Scenario("labeled", d))
        assert st.rho.d == d and st.rho.n == 2
        assert st.rho.trace().real == pytest.approx(1.0)
        assert rank(st.rho) == d * (d - 1) // 2
        # the search finds the paper's state
        assert_allclose(st.rho.mat, antisymmetric_state(d).rho.mat, rtol=0, atol=1e-10)


_ST = antisymmetric_state(2)


@pytest.mark.parametrize("call", [
    lambda: optimal_test_state("labeled"),
    lambda: optimal_test_state(["labeled", 2]),  # unhashable: checked before the cache
    lambda: analytic_success("labeled"),
    lambda: conclusive_classes("labeled", _ST),
    lambda: conclusive_classes(Scenario("labeled", 2), "x"),
    lambda: analytic_success(Scenario("labeled", 2), 5),
    lambda: class_probabilities(HADAMARD, HADAMARD, [[1]]),
], ids=["optimal", "optimal-list", "analytic", "conclusive", "conclusive-state",
        "analytic-state", "class-probabilities-state"])
def test_a_bad_scenario_or_state_is_a_qmeter_error(call):
    # each of these once ended in a raw AttributeError; the list would also
    # fail the hash of the optimal state's cache with a TypeError
    with pytest.raises(QmeterError):
        call()


@pytest.mark.parametrize("call", [
    lambda: TestState(Operator("abc", 2, 2)),
    lambda: Operator([["a"]], 1, 1),
    lambda: Vector(["a", "b"], 2, 1),
    lambda: Observable.qubit_angle("a"),
    lambda: pairwise_success_angle("a"),
    lambda: pairwise_success_angle(float("nan")),
    lambda: sweep_to_csv([1]),
], ids=["state-matrix", "operator", "vector", "qubit-angle", "angle-law", "angle-law-nan",
        "sweep-csv"])
def test_non_numeric_input_is_a_qmeter_error(call):
    # each of these once ended in a raw ValueError, TypeError or
    # AttributeError, or (the NaN angle) returned NaN
    with pytest.raises(QmeterError):
        call()


@pytest.mark.parametrize("call", [
    lambda: twirl("x", (2,), 2),
    lambda: Vector([1, 0], 2, 1) * "a",
    lambda: basis_ket("01", 2),
    lambda: mc_agrees("a", "b", "c"),
    lambda: Operator(np.eye(2), "2", 1),
    lambda: kron(identity(2, 1), 3),
    lambda: support_projector(None),
    lambda: rank("x"),
    lambda: TestState.pure("x"),
    lambda: render_report([1]),
    lambda: identity(2, 1) + 3,
    lambda: identity(2, 1) - 3,
    lambda: identity(2, 1) @ 3,
    lambda: identity(2, 1) + Vector([1, 0], 2, 1),
    lambda: identity(2, 1).expval(3),
    lambda: Vector([1, 0], 2, 1).inner(3),
    lambda: Vector([1, 0], 2, 1) + 3,
    lambda: Vector([1, 0], 2, 1) - 3,
    lambda: outcome_table(1, 2, 3),
    lambda: class_probabilities(1, HADAMARD, _ST),
    lambda: run_trial(_LABELED, HADAMARD, 1, _ST, rng=1),
    lambda: all_passed([1]),
    lambda: basis_ket(5, 2),
    lambda: twirl(np.ones((1, 4)), 5, 2),
    lambda: Observable.computational(2.5),
    lambda: Observable.computational(-1),
    lambda: sweep_theta(5, 10, 1),
    lambda: sweep_to_csv(5),
    lambda: render_report(5),
    lambda: mc_agrees(np.ones(2), np.ones(3), np.ones(2)),
    lambda: mc_perp_moment(3, 1, 10, 1),
    lambda: Scenario(np.ones(3), 2),
    lambda: CampaignConfig(Scenario("labeled", 2), 10, 1, ground_truth=np.ones(3)),
    lambda: outcome_class_index(0, 2),
    lambda: outcome_class_index(3, 2),
    lambda: antisymmetrizer((1.5, 2), 2, 2),
    lambda: antisymmetrizer([[1], [2]], 2, 2),
    lambda: Observable.computational(10 ** 6),
    lambda: run_campaign(3),
    lambda: identity(2, 10 ** 5000),
    lambda: identity(10 ** 5000, 1),
    lambda: identity(10 ** 431, 10),
], ids=["twirl", "vector-scalar", "basis-ket", "mc-agrees", "operator-dim", "kron",
        "support-projector", "rank", "pure-state", "render-report", "operator-plus-int",
        "operator-minus-int", "operator-matmul-int", "operator-plus-vector", "expval-int",
        "inner-int", "vector-plus-int", "vector-minus-int", "outcome-table-device",
        "class-probabilities-device", "trial-device", "all-passed", "basis-ket-int",
        "twirl-blocks", "computational-float", "computational-negative", "sweep-thetas",
        "sweep-csv-int", "render-report-int", "mc-agrees-shapes",
        "perp-moment-psi", "scenario-kind", "ground-truth", "class-index-no-slots",
        "class-index-odd-slots", "antisymmetrizer-float-slot", "antisymmetrizer-list-slots",
        "computational-huge", "campaign-config", "identity-slots-past-str",
        "identity-dim-past-str", "identity-space-past-str"])
def test_a_wrong_argument_type_is_a_qmeter_error(call):
    # each of these once ended in a raw ValueError, TypeError, IndexError,
    # AttributeError or MemoryError (a 7.28 TiB np.eye), or (an odd slot
    # count) returned a meaningless class index; the last three put an
    # integer past Python's 4,300-digit str() limit into their message
    with pytest.raises(QmeterError):
        call()


def test_observables_and_test_states_unpickle_through_their_constructors():
    # unpickling once restored the instance dict without __post_init__: an
    # Observable came back with a writable basis, and a TestState unchecked
    # and with the cached eigendecomposition it had computed
    a = Observable.random(3, 8)
    b = pickle.loads(pickle.dumps(a))
    assert np.array_equal(b.basis, a.basis)
    assert not b.basis.flags.writeable
    state = optimal_test_state(Scenario("unlabeled", 2))
    state.pure_components()  # fills the cache
    data = pickle.dumps(state)
    assert b"_eigen" not in data
    copy = pickle.loads(data)
    assert np.array_equal(copy.rho.mat, state.rho.mat)
    assert not copy.rho.mat.flags.writeable
    for x, y in zip(copy.pure_components(), state.pure_components()):
        assert np.array_equal(x, y)


def test_a_computational_basis_stops_where_one_haar_draw_does():
    # d <= 1024, the dense layer's bound, where a Haar unitary draw stops
    # too: every protocol state spans at most 1024 dimensions, so no larger
    # device can be compared
    assert Observable.computational(1024).d == 1024
    with pytest.raises(InvalidObservableError, match="<= 1024"):
        Observable.computational(1025)


_LABELED = Scenario("labeled", 2)


@pytest.mark.parametrize("call", [
    lambda rho: outcome_table(HADAMARD, HADAMARD, rho),
    lambda rho: class_probabilities(HADAMARD, HADAMARD, rho),
    lambda rho: conclusive_classes(_LABELED, rho),
    lambda rho: analytic_success(_LABELED, rho),
    lambda rho: run_trial(_LABELED, HADAMARD, HADAMARD, rho, rng=1),
], ids=["outcome-table", "class-probabilities", "conclusive", "analytic", "trial"])
def test_a_state_is_a_test_state_not_an_operator(call):
    # TestState is the one state type: it validates and decomposes its
    # density matrix once, and a bare Operator would skip both
    with pytest.raises(InvalidStateError):
        call(_ST.rho)


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
    # averaged over independent bases, every outcome pair is equally likely:
    # the d equal pairs (class same) and the d(d-1) unequal pairs (class diff)
    # each have probability 1/d^2
    st = optimal_test_state(Scenario("labeled", d))
    ops = labeled_class_operators(d)
    p_same = np.trace(st.rho.mat @ ops["same"].different.mat).real
    p_diff = np.trace(st.rho.mat @ ops["diff"].different.mat).real
    assert p_same / d == pytest.approx(1 / d ** 2, abs=1e-12)
    assert p_diff / (d * (d - 1)) == pytest.approx(1 / d ** 2, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_antisymmetric_success(d):
    rep = analytic_success(Scenario("labeled", d))
    assert rep.total == pytest.approx(1 / d, abs=1e-10)
    assert rep.per_class["same"] == pytest.approx(1 / d, abs=1e-10)
    assert conclusive_classes(Scenario("labeled", d), antisymmetric_state(d)) == ("same",)


def test_labeled_product_state_is_not_unambiguous():
    # a product test state sees equal devices land on "same" sometimes
    from qmeter import basis_ket
    st = TestState.pure(basis_ket((0, 1), 3))
    assert np.trace(st.rho.mat @ labeled_class_operators(3)["same"].equal.mat).real > 1e-3
    assert conclusive_classes(Scenario("labeled", 3), st) == ()


def test_labeled_fixed_pair_singlet():
    z = Observable.computational(2)
    st = antisymmetric_state(2)
    # identical devices never agree on the singlet
    table = outcome_table(z, z, st)
    assert np.trace(table) == pytest.approx(0.0, abs=1e-12)
    # mutually unbiased pair: success 1/2
    assert_allclose(class_probabilities(z, HADAMARD, st), [0.5, 0.5], rtol=0, atol=1e-12)


def test_labeled_distribution_rows_sum_to_one():
    rng = np.random.default_rng(11)
    a = Observable.random(3, rng)
    b = Observable.random(3, rng)
    table = outcome_table(a, b, optimal_test_state(Scenario("labeled", 3)))
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
            # raises NotPositiveSemidefiniteError on a negative eigenvalue
            # beyond the rank cutoff
            support_projector(getattr(ops[c], hyp))


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
    assert_allclose(st.rho.mat, singlet_pairing_state().projector().mat, rtol=0, atol=TOL_ABS)
    assert conclusive_classes(Scenario("unlabeled", 2), st) == ("same_diff", "diff_same")


@pytest.mark.parametrize("j", [1, 2, 3])
def test_kappa_states_success(j):
    st = kappa_state(j)
    rep = analytic_success(Scenario("unlabeled", 2), st)
    assert rep.total == pytest.approx(1 / 9, abs=1e-10)
    assert rep.per_class["diff_diff"] == pytest.approx(1 / 9, abs=1e-10)
    assert conclusive_classes(Scenario("unlabeled", 2), st) == ("diff_diff",)


def test_kappa_state_rejects_bad_index():
    # "2" once raised a TypeError, and True gave kappa_1
    for j in (0, 4, 7, "2", True, 1.5):
        with pytest.raises(ValueError) as exc:
            kappa_state(j)
        assert isinstance(exc.value, QmeterError)


def test_optimal_success_over_no_error_subspaces():
    scen = Scenario("unlabeled", 2)
    assert _optimum(scen, ("diff_diff",))[0] == pytest.approx(1 / 9, abs=1e-10)
    assert _optimum(scen, ("same_diff", "diff_same"))[0] == pytest.approx(4 / 9, abs=1e-10)
    # the empty no-error subspace supports nothing
    assert abs(_optimum(scen, ("same_same",))[0]) <= TOL_ABS


def test_unlabeled_distribution_matches_class_table():
    # summing the 16-outcome Born table over each outcome class must agree
    # with the class operators, for a generic fixed pair of observables
    rng = np.random.default_rng(2)
    a = Observable.random(2, rng)
    b = Observable.random(2, rng)
    st = optimal_test_state(Scenario("unlabeled", 2))
    table = outcome_table(a, b, st)
    assert table.shape == (2, 2, 2, 2)
    assert np.sum(table) == pytest.approx(1.0, abs=1e-12)
    probs = class_probabilities(a, b, st)
    assert probs.shape == (len(UNLABELED_CLASSES),)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # the same-outcome bit of each device: outcomes (j, k) of a, (m, n) of b
    same_a = np.einsum("jjmn->", table)
    same_b = np.einsum("jkmm->", table)
    both = np.einsum("jjmm->", table)
    assert_allclose(probs, [both, same_a - both, same_b - both, 1 - same_a - same_b + both],
                    rtol=0, atol=1e-12)
    # equal devices: conclusive classes carry zero weight
    assert_allclose(class_probabilities(a, a, st)[1:3], 0.0, rtol=0, atol=1e-10)
    # two devices split the slots evenly
    odd = TestState(Operator(np.eye(8) / 8, 2, 3))
    with pytest.raises(DimensionMismatchError):
        outcome_table(a, b, odd)
    with pytest.raises(DimensionMismatchError):
        class_probabilities(a, b, odd)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (4, 2)])
def test_outcome_tables_equal_the_np_kron_construction(n, d):
    # bit for bit: the Kronecker powers associate as kron(A^(x)k, B^(x)k) and
    # the diagonal comes from the same two matmuls
    rng = np.random.default_rng(d)
    weights = rng.uniform(size=3)
    vecs = rng.normal(size=(3, d ** n)) + 1j * rng.normal(size=(3, d ** n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    rho = (vecs.T * weights / weights.sum()) @ vecs.conj()
    for _ in range(4):
        a, b = Observable.random(d, rng), Observable.random(d, rng)
        w = np.kron(reduce(np.kron, [a.basis] * (n // 2)), reduce(np.kron, [b.basis] * (n // 2)))
        expected = np.real(np.diagonal(w.conj().T @ rho @ w)).reshape((d,) * n)
        assert np.array_equal(outcome_table(a, b, TestState(Operator(rho, d, n))), expected)


def _mixed_state(rng, d, n, rank):
    vecs = rng.normal(size=(rank, d ** n)) + 1j * rng.normal(size=(rank, d ** n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = rng.uniform(size=rank)
    return TestState(Operator((vecs.T * weights / weights.sum()) @ vecs.conj(), d, n))


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (2, 5), (4, 2)])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("m", [1, 33])
def test_stacked_pair_laws_equal_the_single_pair_ones(n, d, rank, m):
    # bit for bit: a pair's table and class law do not depend on the stack,
    # and each table equals the np.kron construction
    rng = np.random.default_rng([n, d, rank, m])
    state = _mixed_state(rng, d, n, rank)
    pairs = [(Observable.random(d, rng), Observable.random(d, rng)) for _ in range(m)]
    a_bases, b_bases = (np.stack([p[side].basis for p in pairs]) for side in (0, 1))
    tables = _pair_tables(a_bases, b_bases, state)
    laws = _pair_laws(tables, state)
    assert tables.shape == (m, d ** n) and laws.shape == (m, 2 ** (n // 2))
    for (a, b), table, law in zip(pairs, tables, laws):
        w = np.kron(reduce(np.kron, [a.basis] * (n // 2)), reduce(np.kron, [b.basis] * (n // 2)))
        assert np.array_equal(table, np.real(np.diagonal(w.conj().T @ state.rho.mat @ w)))
        assert np.array_equal(table, outcome_table(a, b, state).reshape(-1))
        assert np.array_equal(law, class_probabilities(a, b, state))


def test_the_rotation_stack_is_the_qubit_angle_basis():
    thetas = [0.0, 1e-300, -0.3, np.pi / 4, 2.5, 1e6, np.float64(0.7), 3]
    stack = _rotations(thetas)
    assert stack.shape == (len(thetas), 2, 2) and stack.dtype == np.complex128
    for theta, basis in zip(thetas, stack):
        c, s = math.cos(theta), math.sin(theta)
        assert np.array_equal(basis, np.array([[c, -s], [s, c]], dtype=complex))
        assert np.array_equal(basis, Observable.qubit_angle(theta).basis)
    assert _rotations([]).shape == (0, 2, 2)
    with pytest.raises(ConfigError, match="non-finite"):
        _rotations([0.1, np.nan])


def test_a_stack_with_one_non_orthonormal_basis_raises():
    stack = _rotations(np.linspace(0.0, 1.0, 33).tolist())
    _check_bases(stack)
    for bad in (np.array([[1, 1], [0, 1]]), np.array([[np.inf, 0], [0, 1]])):
        spoiled = stack.copy()
        spoiled[17] = bad
        with pytest.raises(InvalidObservableError):
            _check_bases(spoiled)


def test_unlabeled_angle_law_on_grid():
    z = Observable.computational(2)
    st = optimal_test_state(Scenario("unlabeled", 2))
    for theta in np.linspace(0, np.pi / 2, 9):
        b = Observable.qubit_angle(float(theta))
        p = dict(zip(UNLABELED_CLASSES, class_probabilities(z, b, st)))
        assert p["same_diff"] + p["diff_same"] == pytest.approx(
            pairwise_success_angle(float(theta)), abs=1e-10)


# The paper's closing claim: the optimal test detects a difference with
# nonvanishing probability for any pair of distinct observables.  Checked
# for the states the search returns, over Haar-random complex device pairs.

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_labeled_optimum_detects_every_pair_of_distinct_observables(d):
    # success sum_j (1 - |<a_j|b_j>|^2) / (d (d - 1)): zero only if every
    # outcome vector of b equals a's up to phase
    st = optimal_test_state(Scenario("labeled", d))
    rng = np.random.default_rng(40 + d)
    for _ in range(200):
        a, b = Observable.random(d, rng), Observable.random(d, rng)
        overlap = np.abs(np.sum(a.basis.conj() * b.basis, axis=0)) ** 2
        law = np.sum(1 - overlap) / (d * (d - 1))
        assert class_probabilities(a, b, st)[0] == pytest.approx(law, abs=1e-12)
        assert law > 0
        assert abs(class_probabilities(a, a, st)[0]) <= 1e-12
        # relabeled outcomes are a different observable: a cyclic shift
        # leaves no outcome vector in place, so every term counts
        shifted = Observable(np.roll(a.basis, 1, axis=1))
        assert class_probabilities(a, shifted, st)[0] == pytest.approx(1 / (d - 1), abs=1e-12)


def test_unlabeled_optimum_detects_every_pair_of_distinct_observables():
    # success (8/3) c^2 (1 - c^2) with c^2 = |<a_0|b_0>|^2, which is
    # (2/3) sin^2(2 theta): zero for b = a and for a relabeled a, where the
    # two protocols' observables are the same
    st = optimal_test_state(Scenario("unlabeled", 2))
    rng = np.random.default_rng(44)
    for _ in range(200):
        a, b = Observable.random(2, rng), Observable.random(2, rng)
        c2 = abs(np.vdot(a.basis[:, 0], b.basis[:, 0])) ** 2
        _, sd, ds, _ = class_probabilities(a, b, st)
        assert sd + ds == pytest.approx(8 / 3 * c2 * (1 - c2), abs=1e-12)
        assert sd + ds > 0
        for same in (a, Observable(a.basis[:, ::-1])):
            _, sd, ds, _ = class_probabilities(a, same, st)
            assert abs(sd + ds) <= 1e-12


def _qubit_device(polar: float, azimuth: float) -> Observable:
    """The qubit observable whose outcome-0 vector has the Bloch axis at
    this polar angle and azimuth."""
    c, s, phase = np.cos(polar / 2), np.sin(polar / 2), np.exp(1j * azimuth)
    return Observable(np.array([[c, -s * phase.conjugate()], [s * phase, c]]))


def _blind_pairs(j: int) -> list:
    """(a, b, n.m): distinct device pairs that kappa:j never certifies, the
    named witness first.  kappa:1 and kappa:3 miss two axes in the
    xy-plane, kappa:2 every axis of B with A along +z or -z."""
    rng = np.random.default_rng(70 + j)
    if j == 2:
        axes = [(0.0, 1.2, 0.7)] + [(np.pi * rng.integers(2), *rng.uniform(0, np.pi, 2))
                                    for _ in range(200)]
        return [(_qubit_device(pa, 0.0), _qubit_device(pb, az), np.cos(pa) * np.cos(pb))
                for pa, pb, az in axes]
    azimuths = [(0.3, 1.9)] + [tuple(rng.uniform(0, 2 * np.pi, 2)) for _ in range(200)]
    return [(_qubit_device(np.pi / 2, p), _qubit_device(np.pi / 2, q), np.cos(p - q))
            for p, q in azimuths]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_each_kappa_state_is_blind_to_pairs_the_optimum_detects(j):
    # each kappa state certifies diff_diff alone, at 1/9 on Haar average,
    # yet gives it 0 (roundoff squared) on a family of distinct pairs; the
    # optimal state detects each of them at (2/3)(1 - (n.m)^2), 2/3 at the
    # xy-plane witness
    scen = Scenario("unlabeled", 2)
    kappa, best = kappa_state(j), optimal_test_state(scen)
    assert conclusive_classes(scen, kappa) == ("diff_diff",)
    assert analytic_success(scen, kappa).total == pytest.approx(1 / 9, abs=1e-12)
    for a, b, cos_nm in _blind_pairs(j):
        assert class_probabilities(a, b, kappa)[3] <= 1e-30
        _, sd, ds, _ = class_probabilities(a, b, best)
        assert sd + ds == pytest.approx(2 / 3 * (1 - cos_nm ** 2), abs=1e-12)
        assert sd + ds > 0
    if j != 2:
        a, b, _ = _blind_pairs(j)[0]
        assert class_probabilities(a, b, kappa) == pytest.approx([0.5, 0.25, 0.25, 0], abs=1e-12)


def test_single_use_is_useless():
    # one shot of each device, arbitrary entangled state: after averaging over
    # the hidden labelings of each device's outcomes every outcome pair has
    # probability 1/d^2, whatever the devices
    rng = np.random.default_rng(7)
    for d in (2, 3):
        a = Observable.random(d, rng)
        b = Observable.random(d, rng)
        vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        table = outcome_table(a, b, TestState.pure(Vector(vec, d, 2).normalized()))
        perms = list(itertools.permutations(range(d)))
        relabeled = [table[np.ix_(s, t)] for s in perms for t in perms]
        assert_allclose(np.mean(relabeled, axis=0), np.full((d, d), 1 / d ** 2), atol=1e-12)
        assert not np.allclose(table, 1 / d ** 2, atol=1e-3)  # no table is flat by itself


def test_analytic_success_validates_claims():
    # same_same is never conclusive: equal devices can always land there
    scen = Scenario("unlabeled", 2)
    conclusive = conclusive_classes(scen, optimal_test_state(scen))
    assert "same_same" not in conclusive
    assert tuple(analytic_success(scen).per_class) == conclusive
