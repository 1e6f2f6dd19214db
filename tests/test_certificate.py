"""The zero-false-positive certificate: a class is conclusive iff its leak
tr(cover S_c) is at most TOL_ABS/2 (cover: the positive part of rho with
every weight above TOL_ABS raised to 1), so states inside the no-error
subspace Q_c are certified and states that leak are not, however small the
average equal-device probability they show, and however rarely a simulated
trial prepares the pure component that leaks."""
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeter import (
    TOL_ABS,
    Observable,
    Operator,
    Scenario,
    TestState,
    Vector,
    analytic_success,
    basis_family,
    conclusive_classes,
    haar_unitaries,
    outcome_class_index,
    outcome_table,
)
from qmeter.comparison import _leaks, _operators_for
from qmeter.simulate import (
    _bloch_class_law,
    _bloch_form,
    _bloch_terms,
    _clamped,
    _labeled_equal_law,
)
from qmeter.verify import singlet_pairing_state

UNLABELED = Scenario("unlabeled", 2)
PHI_Q = singlet_pairing_state()
ETA = basis_family("eta")
KAPPA = np.array([v.vec for v in basis_family("kappa")])
SEEDS = st.integers(0, 2 ** 32 - 1)


def _assert_uncertified(state: TestState) -> None:
    assert not {"same_diff", "diff_same"} & set(conclusive_classes(UNLABELED, state))


# --- the two leaks the certificate once missed ------------------------------

@pytest.mark.parametrize("k", range(1, 6))
def test_phi_q_plus_a_symmetric_admixture_is_not_certified(k):
    # equal devices give same_diff about 2e-11 on average, but single trials
    # reach 2.5e-11; both are below TOL_ABS, the leak 1e-10 is not below TOL_ABS/2
    _assert_uncertified(TestState.pure((PHI_Q + 1e-5 * ETA[k - 1]).normalized()))


def test_a_negative_eigenvalue_does_not_mask_a_leak():
    # tr(rho O^eq) cancels to ~0, but the positive part still leaks 8e-11
    a = b = 8e-11
    rho = ((1 - a + b) * PHI_Q.projector().mat + a * ETA[1].projector().mat
           - b * ETA[2].projector().mat)
    _assert_uncertified(TestState(Operator(rho, 2, 4)))


# --- property tests -------------------------------------------------------------

def _kappa_span(rank: int, rng):
    """Random rank-`rank` mixture in span(kappa) = Q_diff_diff."""
    vecs = (rng.normal(size=(rank, 3)) + 1j * rng.normal(size=(rank, 3))) @ KAPPA
    return UNLABELED, "diff_diff", rng.dirichlet(np.ones(rank)), vecs


def _antisymmetric(d: int, rng):
    """Random antisymmetric two-slot vector: Q_same of the labeled protocol."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Scenario("labeled", d), "same", np.ones(1), (x - x.T).reshape(1, -1)


_BUILDERS = [partial(_kappa_span, 1), partial(_kappa_span, 3),
             partial(_antisymmetric, 2), partial(_antisymmetric, 3), partial(_antisymmetric, 4)]
NO_ERROR_CASES = st.tuples(st.sampled_from(_BUILDERS), SEEDS).map(
    lambda t: t[0](np.random.default_rng(t[1])))


def _state(scen: Scenario, weights, vecs) -> TestState:
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    rho = np.einsum("r,ri,rj->ij", weights, vecs, vecs.conj())
    return TestState(Operator(rho, scen.dim, scen.slots))


def _equal_device_tables(scen: Scenario, us, vecs) -> np.ndarray:
    """The Born tables of each pure component with each device of `us` used
    twice, from the dense oracle: [component, device, flat record]."""
    psis = [TestState.pure(Vector(vec, scen.dim, scen.slots)) for vec in vecs]
    devices = [Observable(u) for u in us]
    return np.array([[outcome_table(a, a, psi).reshape(-1) for a in devices]
                     for psi in psis])


def _equal_device_law(scen: Scenario, state: TestState, us) -> np.ndarray:
    """The class law a campaign samples in an equal-device trial, before the
    clamp: the labeled mixture law, or the Bloch law with B's axis m = n."""
    weights, vecs = state.pure_components()
    if scen.kind == "labeled":
        return _labeled_equal_law(us, weights, vecs)
    terms = _bloch_terms(us)
    return _bloch_class_law(_bloch_form(weights, vecs), terms, terms)


@settings(max_examples=30, deadline=None)
@given(NO_ERROR_CASES)
def test_states_inside_the_no_error_subspace_are_certified(case):
    scen, cls, weights, vecs = case
    state = _state(scen, weights, vecs)
    assert cls in conclusive_classes(scen, state)
    assert cls in analytic_success(scen, state).per_class


@settings(max_examples=15, deadline=None)
@given(NO_ERROR_CASES, SEEDS)
def test_clamped_equal_device_tables_never_weigh_on_a_certified_class(case, seed):
    scen, cls, weights, vecs = case
    state = _state(scen, weights, vecs)
    us = haar_unitaries(scen.dim, 256, np.random.default_rng(seed))
    in_class = outcome_class_index(scen.slots, scen.dim) == scen.classes.index(cls)
    for p in _equal_device_tables(scen, us, state.pure_components()[1]):
        assert not np.any(_clamped(p.T)[in_class])  # a trial prepares one component
    # a campaign samples the class law of the prepared mixture
    law = _clamped(_equal_device_law(scen, state, us))
    assert not np.any(law[scen.classes.index(cls)])


@settings(max_examples=30, deadline=None)
@given(NO_ERROR_CASES, st.floats(min_value=np.sqrt(TOL_ABS), max_value=1.0), SEEDS)
def test_a_leak_of_tol_abs_is_never_certified(case, eps, seed):
    scen, cls, _, vecs = case
    assert eps ** 2 >= TOL_ABS
    rng = np.random.default_rng(seed)
    s = _operators_for(scen)[cls].support_equal.mat @ (rng.normal(size=vecs.shape[1])
                                                    + 1j * rng.normal(size=vecs.shape[1]))
    q = vecs[0] / np.linalg.norm(vecs[0])
    leaky = Vector(q + eps * s / np.linalg.norm(s), scen.dim, scen.slots).normalized()
    state = TestState.pure(leaky)
    assert cls not in conclusive_classes(scen, state)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([Scenario("labeled", 3), UNLABELED]), st.integers(1, 3), SEEDS)
def test_the_leak_bounds_every_equal_device_trial(scen, rank, seed):
    # U P_c U^dag <= S_c for every U: no single trial exceeds the leak, with
    # whichever pure component of a mixed state the trial prepares
    rng = np.random.default_rng(seed)
    dim = scen.dim ** scen.slots
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    state = _state(scen, rng.dirichlet(np.ones(rank)), vecs)
    us = haar_unitaries(scen.dim, 256, rng)
    cls_of = outcome_class_index(scen.slots, scen.dim)
    leaks = _leaks(_operators_for(scen), state)
    for p in _equal_device_tables(scen, us, state.pure_components()[1]):
        for i, name in enumerate(scen.classes):
            assert p[:, cls_of == i].sum(axis=1).max() <= leaks[name] + 1e-12, name
    # the prepared mixture's class law that a campaign samples, before the clamp
    law = _equal_device_law(scen, state, us)
    for i, name in enumerate(scen.classes):
        assert law[i].max() <= leaks[name] + 1e-12, name


def test_a_rare_leaky_component_is_not_certified():
    # an antisymmetric qutrit vector plus weight 3e-9 of a vector that puts
    # 1% in the symmetric subspace: the mixture leaks only 3e-11 into "same",
    # but a simulated trial that prepares the second component sees up to 1%
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    anti = [(x - x.T).reshape(-1), np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]).reshape(-1)]
    anti[1] = anti[1] - np.vdot(anti[0], anti[1]) / np.vdot(anti[0], anti[0]) * anti[0]
    sym = (x + x.T).reshape(-1)
    a0, a1, s = (v / np.linalg.norm(v) for v in (anti[0], anti[1], sym))
    leaky = np.sqrt(0.99) * a1 + 0.1 * s
    state = _state(Scenario("labeled", 3), np.array([1 - 3e-9, 3e-9]), np.array([a0, leaky]))
    ops = _operators_for(Scenario("labeled", 3))
    mixture_leak = np.vdot(ops["same"].support_equal.mat, state.rho.mat).real
    assert TOL_ABS / 10 < mixture_leak < TOL_ABS / 2
    assert _leaks(ops, state)["same"] > 1e-3
    assert conclusive_classes(Scenario("labeled", 3), state) == ()
