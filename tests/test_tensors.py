import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmeter.tensors import _ranks, _support_projectors, kron_arrays
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


def _psd_stack(count, seed):
    """`count` random PSD operators of ranks 0..3 on two qubits."""
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(count):
        x = rng.normal(size=(4, k % 4)) + 1j * rng.normal(size=(4, k % 4))
        ops.append(Operator(x @ x.conj().T, 2, 2))
    return ops


def test_a_stacked_pass_equals_the_one_member_ones():
    ops = _psd_stack(9, 5) + [Operator(np.diag([1.0, -1e-9, 1e-9, 0.0]), 2, 2)]
    for got, op in zip(_support_projectors(ops), ops):
        assert np.array_equal(got.mat, support_projector(op).mat)
    assert _ranks(ops) == [rank(op) for op in ops] == [0, 1, 2, 3] * 2 + [0, 1]
    assert _support_projectors([]) == _ranks([]) == []


def _nan():
    return Operator(np.full((4, 4), np.nan), 2, 2)


def _skew():
    mat = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    mat[0, 1] = 1.5e-10
    return Operator(mat, 2, 2)


def _negative():
    return Operator(np.diag([1.0, -1e-7, 0.0, 0.0]), 2, 2)


def _message(call, *args):
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        call(*args)
    return str(err.value)


@pytest.mark.parametrize("bad", [_nan, _skew, _negative])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_stack_raises_what_its_failing_member_raises(bad, where):
    ops = _psd_stack(5, where)
    ops[where] = bad()
    assert _message(_support_projectors, ops) == _message(support_projector, ops[where])
    if bad is not _negative:  # rank reads no sign
        assert _message(_ranks, ops) == _message(rank, ops[where])
    else:
        assert _ranks(ops)[where] == rank(ops[where]) == 2


def test_the_first_failing_member_of_a_stack_raises():
    # a negative eigenvalue before a non-Hermitian member, and the reverse
    good = _psd_stack(1, 7)
    neg, skew = _message(support_projector, _negative()), _message(support_projector, _skew())
    assert neg != skew
    assert _message(_support_projectors, good + [_negative(), _skew()]) == neg
    assert _message(_support_projectors, good + [_skew(), _negative()]) == skew
    assert _message(_support_projectors, [_nan(), _negative()]) == skew


def test_a_stack_checks_the_type_of_each_member():
    with pytest.raises(ConfigError):
        _support_projectors([identity(2, 2), np.eye(4)])


@pytest.mark.parametrize("shape_a,shape_b", [((2, 2), (2, 2)), ((4, 4), (2, 2)), ((2, 3), (4, 1)),
                                             ((5, 2, 3), (5, 4, 2)), ((5, 2, 2), (3, 1)),
                                             ((3, 1), (5, 2, 2))])
def test_kron_arrays_equals_np_kron_bitwise(shape_a, shape_b):
    """Each matrix of the result, of one pair or of a stack against a stack
    or one matrix, is np.kron of its factors bit for bit."""
    rng = np.random.default_rng(len(shape_a) + shape_b[0])
    a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    m = max(shape_a[:-2] + shape_b[:-2], default=1)

    def stack(x):
        return np.broadcast_to(x, (m,) + x.shape[-2:])

    for left in (a, a.real):
        out = kron_arrays(left, b)
        assert out.shape[:-2] == np.broadcast_shapes(shape_a[:-2], shape_b[:-2])
        for o, x, y in zip(out.reshape((m,) + out.shape[-2:]), stack(left), stack(b)):
            assert np.array_equal(o, np.kron(x, y))
