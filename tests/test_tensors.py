import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmeter.tensors import kron_arrays
from qmeter import (
    ConfigError,
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    Operator,
    Vector,
    basis_ket,
    identity,
    kron,
    rank,
    support_projector,
)


def test_operator_validates_shape():
    with pytest.raises(DimensionMismatchError):
        Operator(np.eye(3), d=2, n=1)
    with pytest.raises(DimensionMismatchError):
        Operator(np.zeros((4, 2)), d=2, n=1)
    op = Operator(np.eye(4), d=2, n=2)
    assert op.dim == 4
    assert op.is_hermitian()
    assert op.is_projector()


def test_operator_arithmetic_and_matmul():
    a = Operator(np.diag([1.0, 2.0]), 2, 1)
    b = Operator(np.array([[0, 1], [1, 0]], dtype=float), 2, 1)
    assert_allclose((a + b).mat, np.array([[1, 1], [1, 2]], dtype=complex))
    assert_allclose((a - b).mat, np.array([[1, -1], [-1, 2]], dtype=complex))
    assert_allclose((2 * a).mat, np.diag([2.0, 4.0]).astype(complex))
    assert_allclose((a / 2).mat, np.diag([0.5, 1.0]).astype(complex))
    assert_allclose((a @ b).mat, np.array([[0, 1], [2, 0]], dtype=complex))
    v = Vector(np.array([1.0, 0.0]), 2, 1)
    assert_allclose((b @ v).vec, np.array([0, 1], dtype=complex))


def test_a_sum_keeps_its_type_and_an_operator_maps_a_vector_to_a_vector():
    op, v = identity(2, 1), Vector([3.0, 4.0], 2, 1)
    assert type(op @ v) is Vector
    assert type(v / 2) is Vector
    assert_allclose((v / 2).vec, [1.5, 2.0])
    with pytest.raises(ConfigError):
        op + v
    with pytest.raises(ConfigError):
        v - op


@pytest.mark.parametrize("call", [
    lambda: identity(2, 1) / 0,
    lambda: Vector([0, 0], 2, 1) / 0.0j,
    lambda: Vector([0, 0], 2, 1).normalized(),
], ids=["operator", "vector", "normalized"])
def test_division_by_zero_is_a_config_error(call):
    # once an array of inf or nan entries with a RuntimeWarning
    with pytest.raises(ConfigError):
        call()


def test_operator_matrices_are_read_only():
    op = identity(2, 1)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0
    v = basis_ket((0,), 2)
    with pytest.raises(ValueError):
        v.vec[1] = 1.0
    # and after a pickle round trip, which goes through the constructor
    for x, arr in ((op, "mat"), (v, "vec")):
        y = pickle.loads(pickle.dumps(x))
        assert (type(y), y.d, y.n) == (type(x), x.d, x.n)
        assert np.array_equal(getattr(y, arr), getattr(x, arr))
        assert not getattr(y, arr).flags.writeable


def test_vector_norm_inner_projector():
    v = Vector(np.array([3.0, 4.0]), 2, 1)
    assert v.norm() == pytest.approx(5.0)
    u = v.normalized()
    assert u.norm() == pytest.approx(1.0)
    assert_allclose(u.projector().mat, np.outer(u.vec, u.vec.conj()))
    w = basis_ket((1,), 2)
    assert u.inner(w) == pytest.approx(0.8)


def test_kron_and_vkron_slot_counts():
    a = identity(2, 1)
    ab = kron(a, a)
    assert ab.n == 2 and ab.dim == 4
    with pytest.raises(DimensionMismatchError):
        kron(identity(2, 1), identity(3, 1))


def test_expval_matches_quadratic_form():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = Operator((m + m.conj().T) / 2, 2, 2)
    v = Vector(rng.normal(size=4) + 1j * rng.normal(size=4), 2, 2).normalized()
    assert herm.expval(v) == pytest.approx(v.vec.conj() @ herm.mat @ v.vec)


def test_support_projector_recovers_support():
    # rank-2 PSD operator with known support
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = 2.0
    p[3, 3] = 1e-3
    op = Operator(p, 2, 2)
    proj = support_projector(op)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1.0
    assert_allclose(proj.mat, expected, atol=1e-12)
    assert rank(op) == 2


def test_support_projector_of_zero_is_zero():
    z = Operator(np.zeros((4, 4)), 2, 2)
    assert_allclose(support_projector(z).mat, np.zeros((4, 4)))
    assert rank(z) == 0


def test_rank_uses_relative_cutoff():
    op = Operator(np.diag([1.0, 1e-12, 0.0, 0.0]), 2, 2)
    assert rank(op) == 1
    op2 = Operator(np.diag([1.0, 1e-3, 0.0, 0.0]), 2, 2)
    assert rank(op2) == 2


def test_support_projector_zeroes_eigenvalues_inside_the_rank_cutoff():
    # |w| <= TOL_RANK * max|w| counts as zero whatever its sign; a negative
    # eigenvalue beyond the cutoff is not PSD
    tiny = Operator(np.diag([1.0, -1e-9, 1e-9, 0.0]), 2, 2)
    assert_allclose(support_projector(tiny).mat, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert rank(tiny) == 1
    with pytest.raises(NotPositiveSemidefiniteError):
        support_projector(Operator(np.diag([1.0, -1e-7, 0.0, 0.0]), 2, 2))


def test_rank_and_support_reject_a_nan_operator():
    # eigh returns NaN eigenvalues without raising, and no NaN passes the
    # rank cutoff; without the guard this had rank 0 and the zero projector
    op = Operator(np.full((2, 2), np.nan), 2, 1)
    with pytest.raises(NotPositiveSemidefiniteError):
        rank(op)
    with pytest.raises(NotPositiveSemidefiniteError):
        support_projector(op)


def test_rank_and_support_read_the_one_hermiticity_rule():
    # max|A - A^dag| = 1.5e-10 > TOL_ABS, so is_hermitian says no; comparing
    # A with its Hermitian part instead would see 0.75e-10 and give rank 2
    mat = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    mat[0, 1] = 1.5e-10
    op = Operator(mat, 2, 2)
    assert not op.is_hermitian()
    with pytest.raises(NotPositiveSemidefiniteError):
        rank(op)
    with pytest.raises(NotPositiveSemidefiniteError):
        support_projector(op)


@pytest.mark.parametrize("shape_a,shape_b", [((2, 2), (2, 2)), ((4, 4), (2, 2)), ((3,), (5,)),
                                             ((2, 3), (4, 1))])
def test_kron_arrays_equals_np_kron_bitwise(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a) + shape_b[0])
    a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    assert np.array_equal(kron_arrays(a, b), np.kron(a, b))
    assert np.array_equal(kron_arrays(a.real, b), np.kron(a.real, b))
