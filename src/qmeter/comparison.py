"""Hypothesis operators and analytic success probabilities for comparing
sharp measurements.

Two devices measure orthonormal bases A and B of C^d.  Under the
"different" hypothesis the bases are independent Haar; under the "equal"
hypothesis B = A with A Haar.  For each observable outcome class c the pair
of averaged operators (O_c^equal, O_c^different) determines whether the
class can certify difference: a test state supported inside

    Q_c = Pi_c - support(O_c^equal)        (Pi_c = support of O_c^different)

never produces class c for equal devices, so observing c is an unambiguous
"different" verdict.  Every class operator is the Haar twirl (haar.twirl)
of a class indicator read off outcome_class_index, the one map from outcome
record to class.  The Q_c and the optimal test states are computed from the
class operators (support_projector, optimal_test_state), not hard-coded.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import (
    ConfigError,
    ConsistencyError,
    DimensionMismatchError,
    InvalidObservableError,
    InvalidStateError,
    UnsupportedDimensionError,
)
from .haar import twirl
from .tensors import (_MAX_SPACE, TOL_ABS, TOL_RANK, Operator, Vector, _as_complex, _check_int,
                      _check_space, _check_type, _projectors, _support_projectors, kron_arrays,
                      support_projector)
from . import haar as _haar

LABELED_CLASSES = ("same", "diff")
UNLABELED_CLASSES = ("same_same", "same_diff", "diff_same", "diff_diff")


def _check_angle(theta) -> float:
    """theta as a float; ConfigError unless it is a real number (not a bool) and finite."""
    if not isinstance(theta, numbers.Real) or isinstance(theta, bool):
        raise ConfigError(f"an angle must be a real number, got {theta!r}")
    if not math.isfinite(theta):
        raise ConfigError(f"non-finite angle {theta!r}")
    return float(theta)


@dataclass(frozen=True)
class Scenario:
    """Protocol selector: labeled single-shot (any d) or unlabeled two-shot (qubits)."""

    kind: str
    dim: int = 2

    def __post_init__(self):
        _check_type("scenario kind", self.kind, str)
        if self.kind not in ("labeled", "unlabeled"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        _check_int("dimension", self.dim, 2, error=UnsupportedDimensionError)
        object.__setattr__(self, "dim", int(self.dim))
        if self.kind == "unlabeled" and self.dim != 2:
            raise UnsupportedDimensionError(
                "the unlabeled two-shot protocol is implemented for qubits (d=2); "
                f"got d={self.dim}"
            )
        _check_space(self.dim, self.slots)

    @property
    def slots(self) -> int:
        """Tensor slots of the test state: one per device use."""
        return 2 if self.kind == "labeled" else 4

    @property
    def classes(self) -> Tuple[str, ...]:
        return LABELED_CLASSES if self.kind == "labeled" else UNLABELED_CLASSES


def _check_basis_dimension(d) -> None:
    """InvalidObservableError unless 1 <= d <= _MAX_SPACE, checked before a
    d x d array is built: every protocol state spans at most _MAX_SPACE
    dimensions, so no larger device can be compared, and the orthonormality
    check alone takes several d x d arrays and a d^3 product."""
    _check_int("basis dimension", d, 1, _MAX_SPACE, error=InvalidObservableError)


def _check_bases(bases: np.ndarray) -> np.ndarray:
    """The nonempty (m, d, d) stack bases; InvalidObservableError unless each
    basis is finite with orthonormal columns, within TOL_ABS."""
    if not np.all(np.isfinite(bases)):
        raise InvalidObservableError("basis has a non-finite entry")
    gram = np.swapaxes(bases.conj(), 1, 2) @ bases
    if not np.max(np.abs(gram - np.eye(bases.shape[1]))) <= TOL_ABS:
        raise InvalidObservableError("basis columns are not orthonormal")
    return bases


def _rotations(thetas) -> np.ndarray:
    """The (m, 2, 2) stack of qubit bases rotated by each angle, the angles
    checked and the bases not.  math's cos and sin, one angle at a time,
    keep the bits free of numpy's vectorized kernels."""
    cs = [(math.cos(t), math.sin(t)) for t in map(_check_angle, thetas)]
    return np.array([[[c, -s], [s, c]] for c, s in cs], dtype=np.complex128).reshape(-1, 2, 2)


@dataclass(frozen=True, eq=False)
class Observable:
    """A sharp non-degenerate measurement: the orthonormal basis it projects onto.

    Column j of `basis` is the measurement vector for outcome j.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = _as_complex(self.basis, InvalidObservableError)
        object.__setattr__(self, "basis", b)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or not b.size:
            raise InvalidObservableError(f"basis must be square and nonempty, got shape {b.shape}")
        _check_basis_dimension(b.shape[0])
        _check_bases(b[None])

    def __reduce__(self):
        # unpickle through the constructor, so the basis is checked and read-only
        return type(self), (self.basis,)

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def computational(cls, d: int) -> "Observable":
        _check_basis_dimension(d)
        return cls(np.eye(d))

    @classmethod
    def qubit_angle(cls, theta: float) -> "Observable":
        """Qubit basis rotated by theta from the computational one."""
        return cls(_rotations([theta])[0])

    @classmethod
    def random(cls, d: int, rng=None) -> "Observable":
        _check_basis_dimension(d)
        return cls(_haar.haar_unitaries(d, 1, rng)[0])


@dataclass(frozen=True, eq=False)
class TestState:
    """Input state of a comparison protocol (two slots labeled, four unlabeled)."""

    __test__ = False  # not a pytest class, despite the name

    rho: Operator

    def __post_init__(self):
        _check_type("rho", self.rho, Operator, InvalidStateError)
        m = self.rho.mat
        if not np.all(np.isfinite(m)):
            raise InvalidStateError("density matrix has a non-finite entry")
        if not self.rho.is_hermitian():
            raise InvalidStateError("density matrix is not Hermitian")
        w = self._eigen[0]
        if float(w[0]) < -TOL_ABS:
            raise InvalidStateError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TOL_ABS:
            raise InvalidStateError(f"density matrix has trace {tr!r}, expected 1")

    def __reduce__(self):
        # unpickle through the constructor: checked, without the cached _eigen
        return type(self), (self.rho,)

    @cached_property
    def _eigen(self) -> Tuple[np.ndarray, np.ndarray]:
        """The one eigendecomposition (w, v) of rho, eigenvectors as columns,
        with every eigenvector entry at or below TOL_ABS in magnitude set to
        zero: the roundoff that eigh leaves in structural zeros.  The
        positivity check of __post_init__, the simulated components
        (pure_components) and the certificate that bounds them (_leaks) all
        read it."""
        w, v = np.linalg.eigh(self.rho.mat)
        v[np.abs(v) <= TOL_ABS] = 0.0
        return w, v

    def pure_components(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition (weights, vectors) keeping weights > TOL_ABS.

        vectors has shape (r, dim) with row r the eigenvector of weight r.
        """
        w, v = self._eigen
        keep = w > TOL_ABS
        return w[keep], v[:, keep].T

    @classmethod
    def pure(cls, vec: Vector) -> "TestState":
        _check_type("a pure test state", vec, Vector, InvalidStateError)
        if abs(vec.norm() - 1.0) > TOL_ABS:
            raise InvalidStateError(f"pure test state is not normalized: {vec.norm()!r}")
        return cls(vec.projector())


@dataclass(frozen=True, eq=False)
class ClassOperators:
    """Averaged operators of one outcome class under both hypotheses, the
    value at the class's name in labeled_class_operators or unlabeled_operators.

    no_error = support(different) - support(equal): the subspace whose
    states can yield this class, but never for equal devices.
    """

    equal: Operator
    different: Operator
    support_equal: Operator
    no_error: Operator


@lru_cache(maxsize=None)
def outcome_class_index(n: int, d: int) -> np.ndarray:
    """Class of every flat n-slot outcome record (slot 1 most significant): one
    bit per consecutive slot pair, set when its two outcomes differ, first pair
    most significant.  Indexes LABELED_CLASSES (n=2) or UNLABELED_CLASSES (n=4)."""
    _check_space(d, n)
    if n < 2 or n % 2:
        raise DimensionMismatchError(f"outcome records pair their slots; got {n} slots")
    digits = np.indices((d,) * n).reshape(n, -1)
    cls = np.zeros(d ** n, dtype=np.intp)
    for differ in digits[0::2] != digits[1::2]:
        cls = 2 * cls + differ
    cls.setflags(write=False)
    return cls


def _hypothesis_operators(names: Tuple[str, ...], n: int, d: int) -> Mapping[str, ClassOperators]:
    """Twirl each class indicator over one Haar basis used by both devices
    (blocks (n,)) and over independent bases for the two devices (blocks
    (n/2, n/2)).  The 2m supports come from one stacked pass, and the m
    no-error subspaces are checked to be projectors in one stacked product:
    support(equal) must lie inside the class domain support(different)."""
    indicators = (outcome_class_index(n, d) == np.arange(len(names))[:, None]).astype(float)
    equal = [Operator(eq, d, n) for eq in twirl(indicators, (n,), d)]
    different = [Operator(ne, d, n) for ne in twirl(indicators, (n // 2, n // 2), d)]
    supports = _support_projectors([op for pair in zip(different, equal) for op in pair])
    no_error = [domain - sup_eq for domain, sup_eq in zip(supports[0::2], supports[1::2])]
    projector = _projectors(np.array([op.mat for op in no_error]))
    if not projector.all():
        raise ConsistencyError(
            f"no-error subspace of class {names[int(np.argmin(projector))]} is not a "
            "projector; support(equal) is not contained in the class domain"
        )
    return MappingProxyType({
        c: ClassOperators(eq, ne, sup_eq, q_c)
        for c, eq, ne, sup_eq, q_c in zip(names, equal, different, supports[1::2], no_error)
    })


@lru_cache(maxsize=None)
def labeled_class_operators(d: int) -> Mapping[str, ClassOperators]:
    """Two-slot class operators for the labeled protocol (classes same/diff)."""
    return _hypothesis_operators(LABELED_CLASSES, 2, d)


@lru_cache(maxsize=None)
def unlabeled_operators(d: int = 2) -> Mapping[str, ClassOperators]:
    """Four-slot class operators for the unlabeled two-shot protocol.

    Slots 1,2 receive the first device twice, slots 3,4 the second device
    twice.  Outcome classes record whether each side's two outcomes agree;
    they are invariant under the unknown outcome relabelings.
    """
    return _hypothesis_operators(UNLABELED_CLASSES, 4, d)


# ------------------------------------------------------------ fixed devices

def _check_state(state: TestState, n: Optional[int], d: int) -> None:
    """Raise unless state is a TestState on n slots (any number if None) of
    dimension d."""
    _check_type("test state", state, TestState, InvalidStateError)
    rho = state.rho
    n = rho.n if n is None else n
    if (rho.n, rho.d) != (n, d):
        raise DimensionMismatchError(
            f"test state lives on {rho.n} slots of dimension {rho.d}, "
            f"expected {n} slots of dimension {d}"
        )


def _pair_tables(a_bases: np.ndarray, b_bases: np.ndarray, state: TestState) -> np.ndarray:
    """The flat outcome_table, shape (m, d ** n), of each of m device pairs
    stacked in a_bases and b_bases, shape (m, d, d), in one unchecked pass:
    the products of a pair alone, in its order, so bit for bit its table."""
    k = state.rho.n // 2
    w = kron_arrays(reduce(kron_arrays, [a_bases] * k), reduce(kron_arrays, [b_bases] * k))
    return np.real(np.diagonal(np.swapaxes(w.conj(), 1, 2) @ state.rho.mat @ w, 0, 1, 2))


def _pair_laws(tables: np.ndarray, state: TestState) -> np.ndarray:
    """Flat tables of the state summed into outcome classes, one row each,
    by one bincount whose bins run on row by row."""
    (m, _), classes = tables.shape, 2 ** (state.rho.n // 2)
    index = outcome_class_index(state.rho.n, state.rho.d) + classes * np.arange(m)[:, None]
    return np.bincount(index.reshape(-1), tables.reshape(-1), m * classes).reshape(m, classes)


def _angle_laws(thetas, state: TestState) -> np.ndarray:
    """The class laws of the pairs (computational, rotated by theta) for a
    nonempty sequence of angles, the rotated bases checked."""
    bases = _check_bases(_rotations(thetas))
    z = np.broadcast_to(np.eye(2, dtype=np.complex128), bases.shape)
    return _pair_laws(_pair_tables(z, bases, state), state)


def outcome_table(a: Observable, b: Observable, state: TestState) -> np.ndarray:
    """Born probabilities p[j_1, ..., j_n] when device a measures the first
    n/2 slots of the test state and device b the last n/2: n = 2 is one use
    of each device (labeled), n = 4 two uses (unlabeled), before any outcome
    relabeling.  A stacked pass (_pair_tables) of one pair."""
    _check_type("device", a, Observable, InvalidObservableError)
    _check_type("device", b, Observable, InvalidObservableError)
    if a.d != b.d:
        raise DimensionMismatchError("devices act on different dimensions")
    _check_state(state, n=None, d=a.d)
    n = state.rho.n
    if n % 2 or not n:
        raise DimensionMismatchError(f"test state lives on {n} slots; two devices need a "
                                     "positive even number of slots")
    return _pair_tables(a.basis[None], b.basis[None], state)[0].reshape((a.d,) * n)


def class_probabilities(a: Observable, b: Observable, state: TestState) -> np.ndarray:
    """The outcome table of fixed devices a and b summed into outcome
    classes (outcome_class_index), in the order of Scenario.classes:
    LABELED_CLASSES for a two-slot state, UNLABELED_CLASSES for four slots."""
    return _pair_laws(outcome_table(a, b, state).reshape(1, -1), state)[0]


_S = 1 / math.sqrt(2)
#: The kappa family (phi_a (x) phi_b - phi_b (x) phi_a) / sqrt2, ket 4 i + j =
#: |i>|j> on the slot pairs (1, 2), (3, 4), for (a, b) = (00, 01), (00, 11),
#: (11, 01) with phi_01 = (|01> + |10>) / sqrt2: a basis of Q_dd (verify).
_KAPPA = tuple(Vector(np.bincount(list(v), list(v.values()), 16), 2, 4) for v in (
    {1: _S * _S, 2: _S * _S, 4: -_S * _S, 8: -_S * _S},
    {3: _S, 12: -_S},
    {13: _S * _S, 14: _S * _S, 7: -_S * _S, 11: -_S * _S},
))


def kappa_state(j: int) -> TestState:
    """Pure test state on the j-th vector (1-based) of the kappa family."""
    _check_int("kappa index", j, 1, len(_KAPPA))
    return TestState.pure(_KAPPA[j - 1])


@lru_cache(maxsize=None)
def _optimum(scenario: Scenario, group: Tuple[str, ...]) -> Tuple[float, Operator]:
    """The best success of the states that certify every class in `group`, and
    the normalized projector onto the states that reach it: those states span
    the kernel K of sum_c S_c (S_c = support_equal), and the best is the top
    eigenspace of K (sum_c O_c^diff) K, within TOL_RANK of its eigenvalue."""
    ops = _operators_for(scenario)
    d, n = scenario.dim, scenario.slots
    leak = Operator(sum(ops[c].support_equal.mat for c in group), d, n)
    kernel = np.eye(d ** n) - support_projector(leak).mat
    w, v = np.linalg.eigh(kernel @ sum(ops[c].different.mat for c in group) @ kernel)
    span = v[:, w >= w[-1] - TOL_RANK * abs(w[-1])]
    return float(w[-1]), Operator(span @ span.conj().T / span.shape[1], d, n)


def optimal_test_state(scenario: Scenario) -> TestState:
    """The test state of best unambiguous success: the best _optimum over the
    nonempty sets of classes, the first in itertools.combinations order on a
    tie.  A mixture certifies only what all its parts do, so none does better."""
    _check_type("scenario", scenario, Scenario)  # before the cache, which cannot hash a list
    classes = scenario.classes
    groups = (g for k in range(1, len(classes) + 1) for g in itertools.combinations(classes, k))
    return TestState(max((_optimum(scenario, g) for g in groups), key=lambda best: best[0])[1])


# ------------------------------------------------------- success accounting

@dataclass(frozen=True)
class SuccessReport:
    """Analytic conclusive-class probabilities under the different hypothesis:
    per_class maps each conclusive class, in the order of Scenario.classes,
    to tr(rho O_c^diff), and total is their sum."""

    per_class: Mapping[str, float]
    total: float


def _operators_for(scenario: Scenario) -> Mapping[str, ClassOperators]:
    _check_type("scenario", scenario, Scenario)
    if scenario.kind == "labeled":
        return labeled_class_operators(scenario.dim)
    return unlabeled_operators(scenario.dim)


def _leaks(ops: Mapping[str, ClassOperators], state: TestState) -> Mapping[str, float]:
    """tr(cover S_c) per class, S_c the support of the class's equal-device
    operator and cover the positive part of the state with every weight
    above TOL_ABS raised to at least 1: an upper bound on the class's
    equal-device probability in any single trial, both of rho itself and of
    each pure component that a simulated trial prepares (pure_components),
    from the same decomposition."""
    w, v = state._eigen
    lift = np.where(w > TOL_ABS, np.maximum(w, 1.0), np.maximum(w, 0.0))
    cover = (v * lift) @ v.conj().T
    return {name: float(np.vdot(cls.support_equal.mat, cover).real)
            for name, cls in ops.items()}


def _certified(scenario: Scenario, state: TestState) -> Mapping[str, float]:
    """Different-hypothesis probability tr(rho O_c^diff) of each class that
    certifies "different": its leak (_leaks) is <= TOL_ABS/2 and that
    probability exceeds TOL_ABS."""
    ops = _operators_for(scenario)
    _check_state(state, n=scenario.slots, d=scenario.dim)
    leaks = _leaks(ops, state)
    certified = {}
    for name, cls in ops.items():
        if leaks[name] <= TOL_ABS / 2:
            success = float(np.trace(state.rho.mat @ cls.different.mat).real)
            if success > TOL_ABS:
                certified[name] = success
    return certified


def conclusive_classes(scenario: Scenario, state: TestState) -> Tuple[str, ...]:
    """Outcome classes that certify "different" for this test state.

    A class qualifies iff its leak (_leaks) is <= TOL_ABS/2 and its
    different-hypothesis probability exceeds TOL_ABS.  U P_c U^dag <= S_c for
    every device basis U, so the leak bounds the class's equal-device
    probability trial by trial, not only on average, and for every pure
    component of a mixed state, not only for the mixture; the sampler clamps Born
    entries at or below TOL_ABS to zero, so a conclusive class is never drawn
    for equal devices (tensors module docstring).
    """
    return tuple(_certified(scenario, state))


def analytic_success(scenario: Scenario, state: Optional[TestState] = None) -> SuccessReport:
    """Exact success probability of the unambiguous comparison protocol: the
    total different-hypothesis probability of the conclusive classes
    (conclusive_classes), for the optimal test state when state is None."""
    if state is None:
        state = optimal_test_state(scenario)
    per_class = _certified(scenario, state)
    return SuccessReport(per_class=MappingProxyType(per_class),
                         total=float(sum(per_class.values())))


def pairwise_success_angle(theta: float) -> float:
    """Success of the optimal unlabeled test state for a fixed qubit basis pair
    at angle theta: (2/3) sin^2(2 theta)."""
    return (2.0 / 3.0) * math.sin(2.0 * _check_angle(theta)) ** 2
