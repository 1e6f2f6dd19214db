import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmeter import (
    TOL_RANK,
    ConfigError,
    DimensionMismatchError,
    InvalidObservableError,
    Observable,
    Scenario,
    Vector,
    basis_ket,
    haar_unitaries,
    labeled_class_operators,
    mc_agrees,
    mc_perp_moment,
    mc_twirl,
    optimal_test_state,
    outcome_class_index,
    run_trial,
    twirl,
    unlabeled_operators,
)
from qmeter.haar import _MatrixMean, haar_vectors
from qmeter.symmetry import perm_operator, swap, symmetrizer
from qmeter.verify import perp_moment, pure_moment, r_operator, rbar

SEED = 20240817


# --- closed forms -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_twirl_of_corner_is_pure_moment(k, d):
    # U^(x)k |0...0> is (U|0>)^(x)k with U|0> Haar: the k-th pure moment,
    # also for d < k where the slot permutations are linearly dependent
    corner = np.eye(1, d ** k)
    assert_allclose(twirl(corner, (k,), d)[0], pure_moment(k, d).mat, atol=1e-12)


def test_twirl_over_independent_blocks_factorizes():
    # independent unitaries on two blocks: the twirl of a product diagonal is
    # the product of the blockwise twirls
    corner = np.eye(1, 16)
    assert_allclose(twirl(corner, (2, 2), 2)[0],
                    np.kron(pure_moment(2, 2).mat, pure_moment(2, 2).mat), atol=1e-12)


def _dense_stack_twirl(diagonals, blocks, d):
    """The twirl through a dense (P, d**k, d**k) stack of permutation
    matrices: Gram matrix, overlaps and the sum over s all from the stack."""
    k = sum(blocks)
    starts = np.cumsum((0,) + tuple(blocks))
    block_perms = (itertools.permutations(range(s + 1, s + b + 1))
                   for s, b in zip(starts, blocks))
    perms = np.array([perm_operator(sum(images, ()), k, d).mat
                      for images in itertools.product(*block_perms)])
    flat = perms.reshape(len(perms), -1)
    overlaps = np.diagonal(perms, axis1=1, axis2=2) @ np.asarray(diagonals, dtype=float).T
    coeffs = np.linalg.pinv(flat @ flat.T, hermitian=True, rtol=TOL_RANK) @ overlaps
    return np.einsum("si,sab->iab", coeffs, perms)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (2, 5), (4, 2), (4, 3)])
def test_twirl_matches_dense_permutation_stack(n, d):
    # the class indicators of the labeled (n=2) and unlabeled (n=4) protocols,
    # plus random diagonals, under both block structures
    rng = np.random.default_rng(n * 10 + d)
    classes = outcome_class_index(n, d)
    diagonals = np.vstack([(classes == c).astype(float) for c in range(classes.max() + 1)]
                          + [rng.normal(size=(2, d ** n))])
    for blocks in ((n,), (n // 2, n // 2)):
        assert_allclose(twirl(diagonals, blocks, d), _dense_stack_twirl(diagonals, blocks, d),
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_first_moment_is_maximally_mixed(d):
    assert_allclose(pure_moment(1, d).mat, np.eye(d) / d, atol=1e-12)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_pure_moment_is_normalized_symmetrizer(d, k):
    m = pure_moment(k, d)
    sym = symmetrizer(tuple(range(1, k + 1)), k, d)
    dim = round(sym.trace().real)
    assert_allclose(m.mat, sym.mat / dim, atol=1e-12)
    assert m.trace().real == pytest.approx(1.0)


def test_perp_moment_qubit_collapses_to_orthogonal_state():
    # for qubits the complement of psi is a single state
    m = perp_moment(basis_ket((0,), 2), 3)
    expected = np.zeros((8, 8))
    expected[7, 7] = 1.0
    assert_allclose(m.mat, expected, atol=1e-12)


def test_perp_moment_support_avoids_psi():
    psi = Vector(haar_unitaries(3, 1, np.random.default_rng(1))[0][:, 0], 3, 1)
    m = perp_moment(psi, 2)
    # acting on anything containing |psi> in either slot gives zero
    probe = np.kron(psi.vec.reshape(3, 1), np.eye(3))  # columns |psi> (x) |e_j>
    assert np.max(np.abs(m.mat @ probe)) < 1e-12
    assert m.trace().real == pytest.approx(1.0)


def test_r_operator_split_conjugation():
    s23 = swap(2, 3, 4, 2).mat
    r12 = r_operator("12-34", 2).mat
    r13 = r_operator("13-24", 2).mat
    assert_allclose(r13, s23 @ r12 @ s23, atol=1e-12)


def test_rbar_closed_forms_qubit():
    p = symmetrizer((1, 2), 2, 2).mat
    assert_allclose(rbar("same", 2).mat, p / 3, atol=1e-12)
    assert_allclose(rbar("diff", 2).mat, np.eye(4) / 2 - p / 3, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rbar_completeness(d):
    total = d * rbar("same", d).mat + d * rbar("diff", d).mat
    assert_allclose(total, np.eye(d * d), atol=1e-12)


# --- Haar sampling ----------------------------------------------------------

def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitaries(3, 1, np.random.default_rng(SEED))[0]
    assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    v = haar_unitaries(3, 1, np.random.default_rng(SEED))[0]
    assert_allclose(u, v)


def test_haar_unitaries_batch_shape():
    us = haar_unitaries(2, 17, np.random.default_rng(0))
    assert us.shape == (17, 2, 2)
    prods = np.einsum("bij,bkj->bik", us, us.conj())
    assert_allclose(prods, np.broadcast_to(np.eye(2), (17, 2, 2)), atol=1e-12)


def _householder_reference(d, size, gen):
    # the subgroup algorithm matrix by matrix, with dense reflections: level
    # k draws x in C^k for every matrix, re and im interleaved, and
    # U_k = H (1 (+) U_(k-1)) with H e_1 = x / |x|
    levels = [gen.standard_normal((k, 2 * size)).view(np.complex128) for k in range(1, d + 1)]
    out = []
    for b in range(size):
        u = np.eye(0)
        for k, z in enumerate(levels, 1):
            x = z[:, b] / np.linalg.norm(z[:, b])
            a = abs(x[0])
            phase = x[0] / a if a > 0 else 1.0
            v = x + phase * np.eye(k)[0]
            h = (np.eye(k) - np.outer(v, v.conj()) / (1 + a)) @ np.diag([-phase] + [1.0] * (k - 1))
            lifted = np.eye(k, dtype=np.complex128)
            lifted[1:, 1:] = u
            u = h @ lifted
        out.append(u)
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_haar_unitaries_match_dense_householder_products(d):
    us = haar_unitaries(d, 300, np.random.default_rng(SEED))
    ref = _householder_reference(d, 300, np.random.default_rng(SEED))
    assert np.max(np.abs(us - ref)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_haar_unitaries_follow_the_haar_law(d):
    # Haar moments: E[U_ij] = E[U_ij^2] = E[det U] = 0, and the average of
    # (U (x) U) X (U (x) U)^dag is the twirl of X for a diagonal X.  Dropping
    # the phase fix of the reflection makes U_00 real and negative.
    gen = np.random.default_rng(SEED + d)
    diag = gen.normal(size=d * d)
    target = twirl(diag[None], (2,), d)[0]
    first, square, det, second = (_MatrixMean((d, d)), _MatrixMean((d, d)), _MatrixMean((1, 1)),
                                  _MatrixMean((d * d, d * d)))
    for _ in range(10):
        us = haar_unitaries(d, 2000, gen)
        first.add(us)
        square.add(us * us)
        det.add(np.linalg.det(us)[:, None, None])
        w = np.einsum("bij,bkl->bikjl", us, us).reshape(-1, d * d, d * d)
        second.add((w * diag) @ w.conj().transpose(0, 2, 1))
    for acc, expected in ((first, 0), (square, 0), (det, 0), (second, target)):
        mean, se = acc.result()
        _assert_moment_agrees(mean, se, np.broadcast_to(expected, mean.shape))


def test_haar_unitaries_are_unitary_to_roundoff():
    us = haar_unitaries(5, 65536, np.random.default_rng(SEED))
    err = np.einsum("bij,bkj->bik", us, us.conj()) - np.eye(5)
    assert np.max(np.abs(err)) <= 1e-13


@pytest.mark.parametrize("d,size", [(2, 1), (3, 1000), (5, 257)])
def test_haar_unitaries_draw_d_times_d_plus_1_normals(d, size):
    # the stream contract: one complex Gaussian vector in C^k per level
    # k = 1..d and matrix, nothing more
    gen, twin = np.random.default_rng(SEED), np.random.default_rng(SEED)
    haar_unitaries(d, size, gen)
    twin.standard_normal(d * (d + 1) * size)
    assert gen.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_haar_vectors_are_the_levels_of_haar_unitaries(d):
    # haar_unitaries draws one haar_vectors stack per level k = 1..d, and the
    # last one is column 0 of every matrix; a vector in C^k costs 2k normals
    size = 500
    us = haar_unitaries(d, size, np.random.default_rng(SEED))
    gen = np.random.default_rng(SEED)
    levels = [haar_vectors(k, size, gen) for k in range(1, d + 1)]
    assert np.array_equal(levels[-1], us[:, :, 0].T)
    twin = np.random.default_rng(SEED)
    twin.standard_normal(d * (d + 1) * size)
    assert gen.bit_generator.state == twin.bit_generator.state
    assert_allclose(np.linalg.norm(levels[-1], axis=0), 1.0, rtol=0, atol=1e-14)


class _ZeroLeadingEntry(np.random.Generator):
    """Draws x_0 = 0 exactly for matrix 0 at every level k >= 2."""

    def standard_normal(self, *args, out=None, **kwargs):
        result = super().standard_normal(*args, out=out, **kwargs)
        if out is not None and out.shape[0] > 1:
            out[0, :2] = 0.0  # re and im of x_0 of matrix 0
        return result


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_unitaries_survive_a_zero_leading_entry(d):
    # a = |x_0| = 0 leaves the phase x_0 / a undefined; it must not give NaN
    us = haar_unitaries(d, 16, _ZeroLeadingEntry(np.random.PCG64(SEED)))
    assert us[0, 0, 0] == 0
    err = np.einsum("bij,bkj->bik", us, us.conj()) - np.eye(d)
    assert np.all(np.isfinite(us)) and np.max(np.abs(err)) <= 1e-13


# --- Monte Carlo twirl vs closed forms and twirl ----------------------------

def _assert_moment_agrees(mean, se, target):
    ok, worst = mc_agrees(mean, se, target)
    assert ok, f"worst deviation {worst:.2f} standard errors"


@pytest.mark.parametrize("d,k", [(2, 2), (2, 4), (3, 2)])
def test_mc_pure_moment(d, k):
    # the corner ket |0...0> under U^(x)k is (U|0>)^(x)k with U|0> Haar
    mean, se = mc_twirl(np.eye(1, d ** k), (k,), d, samples=20000, seed=SEED)
    _assert_moment_agrees(mean, se, pure_moment(k, d).mat)


def test_mc_perp_moment():
    psi = Vector(haar_unitaries(2, 1, np.random.default_rng(8))[0][:, 0], 2, 1)
    mean, se = mc_perp_moment(psi, 2, samples=20000, seed=SEED)
    _assert_moment_agrees(mean, se, perp_moment(psi, 2).mat)


def test_mc_perp_moment_rejects_a_nan_state():
    # NaN passes the comparison "|norm - 1| > tol"; the guard must still fail
    from qmeter import InvalidStateError
    with pytest.raises(InvalidStateError):
        mc_perp_moment(Vector(np.array([np.nan, 0.0]), 2, 1), 2, samples=10, seed=SEED)


def test_mc_pair_split_moment():
    # columns 0 and 1 of a Haar U have the joint law of (psi, phi), phi
    # Haar-orthogonal to psi: |0011> under U^(x)4 is psi psi on 12, phi phi on 34
    mean, se = mc_twirl(basis_ket((0, 0, 1, 1), 2).vec.real[None], (4,), 2,
                        samples=20000, seed=SEED)
    target = r_operator("12-34", 2).mat @ symmetrizer((3, 4), 4, 2).mat * (2 / (2 * 1))
    _assert_moment_agrees(mean, se, target)


@pytest.mark.parametrize("which", ["same", "diff"])
def test_mc_rbar(which):
    indicator = outcome_class_index(2, 2) == ("same", "diff").index(which)
    mean, se = mc_twirl(indicator[None] / 2, (2,), 2, samples=20000, seed=SEED)
    _assert_moment_agrees(mean, se, rbar(which, 2).mat)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (2, 5), (4, 2)])
def test_mc_twirl_matches_class_operators(n, d):
    # every class operator, equal (one basis) and different (two bases)
    ops = labeled_class_operators(d) if n == 2 else unlabeled_operators(d)
    classes = outcome_class_index(n, d)
    indicators = (classes == np.arange(len(ops))[:, None]).astype(float)
    for blocks, hyp in (((n,), "equal"), ((n // 2, n // 2), "different")):
        mean, se = mc_twirl(indicators, blocks, d, samples=20000, seed=SEED + 10 * n + d)
        _assert_moment_agrees(mean, se, np.array([getattr(c, hyp).mat for c in ops.values()]))


@pytest.mark.parametrize("k,d", [(2, 3), (4, 2)])
def test_mc_twirl_matches_twirl_on_random_diagonals(k, d):
    diagonals = np.random.default_rng(k * 10 + d).normal(size=(3, d ** k))
    diagonals[1, ::2] = 0.0  # the rows have different supports
    diagonals[2] = 0.0
    for blocks in ((k,), (k // 2, k // 2)):
        mean, se = mc_twirl(diagonals, blocks, d, samples=20000, seed=SEED + k)
        _assert_moment_agrees(mean, se, twirl(diagonals, blocks, d))


def test_mc_twirl_is_reproducible():
    diagonals = np.random.default_rng(3).normal(size=(2, 16))
    a = mc_twirl(diagonals, (2, 2), 2, samples=5000, seed=123)
    b = mc_twirl(diagonals, (2, 2), 2, samples=5000, seed=123)
    assert_allclose(a[0], b[0], rtol=0, atol=0)
    assert_allclose(a[1], b[1], rtol=0, atol=0)


def test_mc_twirl_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        mc_twirl(np.ones((1, 8)), (2,), 2, samples=10, seed=SEED)
    with pytest.raises(DimensionMismatchError):
        mc_perp_moment(basis_ket((0, 0), 2), 1, samples=1, seed=SEED)
    # a cast to float dropped the imaginary parts with only a ComplexWarning
    for twirled in (lambda x: twirl(x, (2,), 2), lambda x: mc_twirl(x, (2,), 2, 10, SEED)):
        for diagonals in (np.full((1, 4), 1j), np.ones((1, 4), dtype=complex), [[1j] * 4]):
            with pytest.raises(ConfigError, match="twirl needs real diagonals"):
                twirled(diagonals)
    # zero samples gave a NaN mean and no error, True one sample
    for samples in (0, -5, 2.5, True):
        with pytest.raises(ConfigError):
            mc_twirl(np.ones((1, 4)), (2,), 2, samples=samples, seed=SEED)
        with pytest.raises(ConfigError):
            mc_perp_moment(Vector(np.array([1.0, 0.0]), 2, 1), 2, samples=samples, seed=SEED)
    # the draws behind them: numpy's ValueError for a negative size or
    # dimension, and an empty stack for d = 0
    for draw in (lambda: haar_unitaries(2, -1), lambda: haar_unitaries(-2, 1),
                 lambda: haar_unitaries(0, 3), lambda: haar_unitaries(2.0, 3),
                 lambda: haar_vectors(0, 3), lambda: haar_vectors(2, -1)):
        with pytest.raises(ConfigError):
            draw()


#: draws past a bound: a 58 TiB stack, twice the entries one call may take,
#: a vector of 10**9 entries, and unitaries and an observable past the dense
#: layer's d = 1024, which once ran unbounded; a computational and a given
#: basis past it, whose orthonormality check once built several d x d arrays
#: and a d^3 product; and two dense builders whose d ** n with n = 10**12
#: once ran without end
_HUGE_DRAWS = ("qmeter.haar_unitaries(2, 10**12)", "qmeter.haar_unitaries(2, 2**26)",
               "qmeter.haar.haar_vectors(2, 10**12)", "qmeter.haar.haar_vectors(10**9, 1)",
               "qmeter.haar_unitaries(2000, 1)", "qmeter.Observable.random(2000)",
               "qmeter.Observable.computational(2000)", "qmeter.Observable(np.eye(2000))",
               "qmeter.identity(2, 10**12)", "qmeter.outcome_class_index(10**12, 2)")
_CHILD = """
import resource, sys
import numpy as np
import qmeter
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for call in sys.argv[1:]:
    try:
        eval(call)
        print("returned")
    except Exception as exc:
        print(type(exc).__name__, isinstance(exc, qmeter.QmeterError))
"""


def test_huge_draws_fail_before_they_allocate():
    # in a child with 1 GiB of address space and a time limit, so that a
    # missed bound fails this test and not the session
    run = subprocess.run([sys.executable, "-c", _CHILD, *_HUGE_DRAWS], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 0, run.stderr
    assert [line.split()[-1] for line in run.stdout.splitlines()] == ["True"] * len(_HUGE_DRAWS), (
        run.stdout)
    with pytest.raises(InvalidObservableError):  # the one bound that was there
        Observable.random(0)


def test_a_vector_draw_past_the_dense_dimension_is_cheap():
    # the d <= 1024 bound is for the d ** 3 unitaries; 2000 normals are not
    x = haar_vectors(2000, 3, rng=np.random.default_rng(SEED))
    assert x.shape == (2000, 3)
    assert_allclose(np.linalg.norm(x, axis=0), 1.0, rtol=0, atol=1e-12)


_Z2 = Observable.computational(2)
#: every seeded public call, as a function of its seed
_SEEDED = {
    "run_trial": lambda seed: run_trial(Scenario("labeled", 2), _Z2, _Z2,
                                        optimal_test_state(Scenario("labeled", 2)), rng=seed),
    "mc_twirl": lambda seed: mc_twirl(np.eye(1, 4), (2,), 2, samples=1, seed=seed),
    "mc_perp_moment": lambda seed: mc_perp_moment(Vector(np.array([1.0, 0.0]), 2, 1), 2,
                                                  samples=1, seed=seed),
    "haar_vectors": lambda seed: haar_vectors(2, 1, seed),
    "haar_unitaries": lambda seed: haar_unitaries(2, 1, seed),
    "random_observable": lambda seed: Observable.random(2, seed),
}


@pytest.mark.parametrize("seed", ["x", 2.5, -1, True], ids=repr)
@pytest.mark.parametrize("call", sorted(_SEEDED))
def test_every_seeded_call_rejects_a_bad_seed(call, seed):
    # haar.rng_from is the one seed rule: a string or a float once raised a
    # raw TypeError, -1 a raw ValueError, and True was taken as seed 1
    with pytest.raises(ConfigError):
        _SEEDED[call](seed)


def test_mc_agrees_rejects_bad_target():
    mean, se = mc_twirl(np.eye(1, 4), (2,), 2, samples=5000, seed=5)
    ok, _ = mc_agrees(mean, se, np.eye(4) / 4)
    assert not ok


def test_mc_agrees_on_empty_arrays_agrees_with_no_deviation():
    # no entry can disagree; the largest deviation once raised numpy's raw
    # zero-size ValueError
    assert mc_agrees(np.zeros(0), np.zeros(0), np.zeros(0)) == (True, 0.0)
    assert mc_agrees(np.zeros((2, 0)), np.zeros((2, 0)), 0.0) == (True, 0.0)
