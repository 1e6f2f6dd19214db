import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qmeter import (
    DimensionMismatchError,
    UnsupportedDimensionError,
    antisymmetrizer,
    basis_family,
    rank,
)
from qmeter.symmetry import (SPLITS, pair_product, perm_operator, phi_minus, phi_plus, split_pairs,
                             swap, sym_dim, symmetrizer)


@pytest.mark.parametrize("d,k,expected", [
    (2, 2, 3), (2, 3, 4), (2, 4, 5),
    (3, 2, 6), (4, 2, 10), (5, 2, 15),
])
def test_sym_dim(d, k, expected):
    assert sym_dim(d, k) == expected


def test_perm_operator_moves_slot_contents():
    # cycle 1 -> 2 -> 3 -> 1 on three qubits: |abc> -> |cab>
    op = perm_operator((2, 3, 1), 3, 2)
    from qmeter import basis_ket
    v = basis_ket((0, 1, 1), 2)
    assert_allclose((op @ v).vec, basis_ket((1, 0, 1), 2).vec)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 5)), st.permutations(range(1, 5)))
def test_perm_operators_compose_as_permutations(p, q):
    # applying q then p must equal the operator of the composed permutation
    d = 2
    op_p = perm_operator(tuple(p), 4, d).mat
    op_q = perm_operator(tuple(q), 4, d).mat
    composed = tuple(p[q[i] - 1] for i in range(4))
    assert_allclose(op_p @ op_q, perm_operator(composed, 4, d).mat, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(1, 5)))
def test_perm_operator_unitary_and_symmetrizer_invariant(p):
    op = perm_operator(tuple(p), 4, 2).mat
    assert_allclose(op @ op.conj().T, np.eye(16), atol=1e-12)
    full = symmetrizer((1, 2, 3, 4), 4, 2).mat
    assert_allclose(op @ full, full, atol=1e-12)


def test_swap_is_transposition():
    s = swap(2, 3, 4, 2)
    assert_allclose(s.mat, perm_operator((1, 3, 2, 4), 4, 2).mat)
    assert_allclose(s.mat @ s.mat, np.eye(16), atol=1e-12)


def test_swap_identity_s34():
    s23 = swap(2, 3, 4, 2).mat
    s24 = swap(2, 4, 4, 2).mat
    assert_allclose(swap(3, 4, 4, 2).mat, s24 @ s23 @ s24, atol=1e-12)


@pytest.mark.parametrize("slots,expected_rank", [
    ((1, 2), 12),          # P12+ acts on slots 1,2 of four qubits
    ((1, 2, 3), 8),
    ((1, 2, 4), 8),
    ((1, 2, 3, 4), 5),
])
def test_symmetrizer_ranks_four_qubits(slots, expected_rank):
    p = symmetrizer(slots, 4, 2)
    assert p.is_projector()
    assert rank(p) == expected_rank


def test_symmetrizer_general_d():
    for d in (2, 3, 4):
        p = symmetrizer((1, 2), 2, d)
        assert rank(p) == sym_dim(d, 2)
        assert p.trace().real == pytest.approx(sym_dim(d, 2))


def test_antisymmetrizer_pair():
    for d in (2, 3):
        a = antisymmetrizer((1, 2), 2, d)
        assert a.is_projector()
        assert rank(a) == d * (d - 1) // 2
        assert_allclose(a.mat + symmetrizer((1, 2), 2, d).mat, np.eye(d * d), atol=1e-12)
    with pytest.raises(UnsupportedDimensionError):
        antisymmetrizer((1, 2, 3), 3, 2)
    # a repeated or out-of-range slot is a DimensionMismatchError, before
    # the slots' types are checked
    for slots in ((1, 1), (0, 3), (1.5, 1.5), (5.5, 1)):
        with pytest.raises(DimensionMismatchError):
            antisymmetrizer(slots, 2, 2)
    assert_allclose(antisymmetrizer((np.int64(2), 1), 2, 2).mat, antisymmetrizer((1, 2), 2, 2).mat)


def test_split_pairs():
    assert split_pairs("12-34") == ((1, 2), (3, 4))
    assert split_pairs("13-24") == ((1, 3), (2, 4))
    assert split_pairs("14-23") == ((1, 4), (2, 3))
    with pytest.raises(DimensionMismatchError):
        split_pairs("bogus")
    assert set(SPLITS) == {"12-34", "13-24", "14-23"}


def test_pair_product_places_states_on_slots():
    from qmeter import basis_ket
    x = basis_ket((0, 1), 2)
    y = basis_ket((1, 0), 2)
    v = pair_product(x, (1, 3), y, (2, 4))
    # slot1=0 slot3=1 slot2=1 slot4=0
    assert_allclose(v.vec, basis_ket((0, 1, 1, 0), 2).vec)


def test_phi_plus_minus_orthonormal():
    pp = [phi_plus(0, 0), phi_plus(0, 1), phi_plus(1, 1)]
    pm = phi_minus(0, 1)
    for a, b in itertools.combinations(pp, 2):
        assert abs(a.inner(b)) < 1e-12
    for a in pp:
        assert a.norm() == pytest.approx(1.0)
        assert abs(a.inner(pm)) < 1e-12
    assert pm.norm() == pytest.approx(1.0)


# --- closed-form basis families ----------------------------------------------

def _gram(family):
    return np.array([[a.inner(b) for b in family] for a in family])


def test_eta_family_spans_full_symmetrizer():
    eta = basis_family("eta")
    assert len(eta) == 5
    assert_allclose(_gram(eta), np.eye(5), atol=1e-10)
    span = sum(np.outer(v.vec, v.vec.conj()) for v in eta)
    assert_allclose(span, symmetrizer((1, 2, 3, 4), 4, 2).mat, atol=1e-9)


def test_kappa_family_gram_and_invariance():
    kap = basis_family("kappa")
    assert len(kap) == 3
    assert_allclose(_gram(kap), np.eye(3), atol=1e-10)
    p12 = symmetrizer((1, 2), 4, 2).mat
    p34 = symmetrizer((3, 4), 4, 2).mat
    p1234 = symmetrizer((1, 2, 3, 4), 4, 2).mat
    for v in kap:
        assert_allclose(p12 @ p34 @ v.vec, v.vec, atol=1e-10)
        assert np.max(np.abs(p1234 @ v.vec)) < 1e-10


def test_kappa_with_prime_spans_product_complement():
    kap = basis_family("kappa")
    k2p = basis_family("kappa_prime")[0]
    vs = [v.vec for v in kap] + [k2p.vec]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert_allclose(gram, np.eye(4), atol=1e-10)
    span = sum(np.outer(v, v.conj()) for v in vs)
    p12 = symmetrizer((1, 2), 4, 2).mat
    p34 = symmetrizer((3, 4), 4, 2).mat
    p1234 = symmetrizer((1, 2, 3, 4), 4, 2).mat
    assert_allclose(span, p12 @ p34 - p1234, atol=1e-9)


def test_omega_families_gram_structure():
    om = basis_family("omega")
    omp = basis_family("omega_prime")
    assert_allclose(_gram(om), 6 * np.eye(3), atol=1e-10)
    assert_allclose(_gram(omp), 6 * np.eye(3), atol=1e-10)
    cross = np.array([[a.inner(b) for b in omp] for a in om])
    assert_allclose(cross, -2 * np.eye(3), atol=1e-10)


def test_omega_spans_are_triple_complements():
    p1234 = symmetrizer((1, 2, 3, 4), 4, 2)
    q123 = symmetrizer((1, 2, 3), 4, 2) - p1234
    q124 = symmetrizer((1, 2, 4), 4, 2) - p1234
    om = basis_family("omega")
    omp = basis_family("omega_prime")
    assert_allclose(sum(np.outer(v.vec, v.vec.conj()) for v in om) / 6,
                    q123.mat, atol=1e-9)
    assert_allclose(sum(np.outer(v.vec, v.vec.conj()) for v in omp) / 6,
                    q124.mat, atol=1e-9)


def test_basis_family_rejects_unknown():
    with pytest.raises(DimensionMismatchError):
        basis_family("nope")


# --- index maps against dense construction --------------------------------------

def _dense_perm(images, n, d):
    """perm_operator built ket by ket: |i_1 ... i_n> -> the ket whose slot
    images[a-1] carries i_a."""
    dim = d ** n
    mat = np.zeros((dim, dim))
    for src, digits in enumerate(itertools.product(range(d), repeat=n)):
        moved = [0] * n
        for a, digit in enumerate(digits):
            moved[images[a] - 1] = digit
        mat[np.ravel_multi_index(moved, (d,) * n), src] = 1.0
    return mat


def _dense_symmetrizer(slots, n, d):
    acc = np.zeros((d ** n, d ** n))
    for sigma in itertools.permutations(slots):
        images = list(range(1, n + 1))
        for src, dst in zip(slots, sigma):
            images[src - 1] = dst
        acc += _dense_perm(images, n, d)
    return acc / len(list(itertools.permutations(slots)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_perm_operator_and_symmetrizer_equal_dense_construction(n, d):
    # bit for bit: both are exact 0/1 scatters, and a symmetrizer entry is an
    # integer count divided by |slots|!
    for images in itertools.permutations(range(1, n + 1)):
        assert np.array_equal(perm_operator(images, n, d).mat, _dense_perm(images, n, d))
    for size in range(1, n + 1):
        for slots in itertools.combinations(range(1, n + 1), size):
            assert np.array_equal(symmetrizer(slots, n, d).mat,
                                  _dense_symmetrizer(slots, n, d))
