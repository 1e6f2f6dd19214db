"""Permutation symmetry on n-fold tensor products and named four-qubit bases.

A slot permutation maps every computational basis ket to another basis ket,
so it is fully described by an index map: the target index of each of the
d**n kets (``_slot_targets``, for one permutation or a stack of them).
Every permutation operator here is built from such maps by scattering ones,
or weights, at (target[i], i): ``perm_operator`` is one scatter, and a
symmetrizer, the average over the |S|! permutations of a slot subset S
(leaving the other slots alone), is one ``bincount`` over all |S|! maps.  No
dense matrix is built per permutation.  ``haar.twirl`` works on the same
maps.  The four-qubit basis families (eta, kappa, omega and their
primed/complementary variants) are the exact vectors used to analyse the
no-error subspaces of two-shot measurement comparison.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDimensionError
from .tensors import Operator, Vector, _check_space

#: the three ways to split four slots into two ordered pairs
SPLITS = ("12-34", "13-24", "14-23")


def sym_dim(d: int, k: int) -> int:
    """Dimension of the symmetric subspace of (C^d)^(x)k: C(d+k-1, k)."""
    if d < 1 or k < 0:
        raise DimensionMismatchError(f"sym_dim undefined for d={d}, k={k}")
    return math.comb(d + k - 1, k)


def _check_slots(slots: Sequence[int], n: int) -> Tuple[int, ...]:
    slots = tuple(slots)
    if len(slots) == 0 or len(set(slots)) != len(slots):
        raise DimensionMismatchError(f"slot subset {slots} must be nonempty and unique")
    if any(not 1 <= s <= n for s in slots):
        raise DimensionMismatchError(f"slot subset {slots} out of range for n={n}")
    return slots


def _slot_targets(images, n: int, d: int) -> np.ndarray:
    """Index map of slot permutations on (C^d)^(x)n.

    `images` is one permutation, shape (n,), or a stack of them, shape
    (P, n), in the convention of perm_operator.  Returns the basis index that
    each ket |i> goes to, shape (d**n,) or (P, d**n): the ket whose slot
    images[a-1] carries the digit i_a, so slot a's digit moves to the place
    value d**(n - images[a-1]).
    """
    digits = np.indices((d,) * n).reshape(n, -1)  # (n, d**n), slot 1 first
    return d ** (n - np.asarray(images)) @ digits


def perm_operator(images: Sequence[int], n: int, d: int) -> Operator:
    """Unitary permutation of tensor slots.

    `images[a-1]` is the slot that receives the content of slot a, i.e. the
    operator maps |i_1 ... i_n> to the basis ket whose slot images[a-1]
    carries i_a.
    """
    images = tuple(images)
    if sorted(images) != list(range(1, n + 1)):
        raise DimensionMismatchError(f"{images} is not a permutation of 1..{n}")
    _check_space(d, n)
    dim = d ** n
    mat = np.zeros((dim, dim))
    mat[_slot_targets(images, n, d), np.arange(dim)] = 1.0
    return Operator(mat, d, n)


def swap(a: int, b: int, n: int, d: int) -> Operator:
    """Exchange of slots a and b (identity elsewhere)."""
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return perm_operator(images, n, d)


def symmetrizer(slots: Iterable[int], n: int, d: int) -> Operator:
    """Projector onto the subspace symmetric under permutations of `slots`.

    Average of the |slots|! permutation unitaries that permute the chosen
    slots and fix the rest.  For the full slot set this is the projector onto
    the totally symmetric subspace, of rank sym_dim(d, n) ; a sub-block of k
    slots has rank sym_dim(d, k) * d**(n-k).
    """
    slots = _check_slots(slots, n)
    _check_space(d, n)
    sigmas = list(itertools.permutations(slots))
    images = np.tile(np.arange(1, n + 1), (len(sigmas), 1))
    images[:, np.subtract(slots, 1)] = sigmas
    dim = d ** n
    # entry (a, b) counts the permutations that send ket b to ket a
    cells = _slot_targets(images, n, d) * dim + np.arange(dim)
    counts = np.bincount(cells.ravel(), minlength=dim * dim).reshape(dim, dim)
    return Operator(counts / len(sigmas), d, n)


def antisymmetrizer(slots: Iterable[int], n: int, d: int) -> Operator:
    """Projector onto the antisymmetric subspace of a slot *pair*: (1 - S)/2."""
    slots = _check_slots(slots, n)
    if len(slots) != 2:
        raise UnsupportedDimensionError(
            f"antisymmetrizer is provided for slot pairs only, got {len(slots)} slots"
        )
    a, b = slots
    _check_space(d, n)
    eye = np.eye(d ** n)
    return Operator((eye - swap(a, b, n, d).mat) / 2, d, n)


def split_pairs(split: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Parse a four-slot split label like "13-24" into its two ordered pairs."""
    if split not in SPLITS:
        raise DimensionMismatchError(f"unknown split {split!r}, expected one of {SPLITS}")
    left, right = split.split("-")
    return (int(left[0]), int(left[1])), (int(right[0]), int(right[1]))


def pair_product(x: Vector, pair_x: Tuple[int, int], y: Vector, pair_y: Tuple[int, int]) -> Vector:
    """Four-slot vector placing two-slot states on the given slot pairs.

    x lives on slots pair_x, y on pair_y; the pairs must tile {1, 2, 3, 4}.
    """
    if x.n != 2 or y.n != 2 or x.d != y.d:
        raise DimensionMismatchError("pair_product needs two two-slot vectors of equal d")
    slots = (*pair_x, *pair_y)
    if sorted(slots) != [1, 2, 3, 4]:
        raise DimensionMismatchError(f"pairs {pair_x}, {pair_y} must tile slots 1..4")
    d = x.d
    tens = np.einsum("ab,cd->abcd", x.vec.reshape(d, d), y.vec.reshape(d, d))
    # current axes follow (pair_x[0], pair_x[1], pair_y[0], pair_y[1]); sort to slot order
    tens = np.transpose(tens, np.argsort(slots))
    return Vector(tens.reshape(d ** 4), d, 4)


def phi_plus(j: int, k: int) -> Vector:
    """Symmetric two-qubit basis vector: |jj> for j = k, (|jk>+|kj>)/sqrt2 otherwise."""
    v = np.zeros(4)
    if j == k:
        v[2 * j + j] = 1.0
    else:
        v[2 * j + k] = v[2 * k + j] = 1 / math.sqrt(2)
    return Vector(v, 2, 2)


def phi_minus(j: int, k: int) -> Vector:
    """Antisymmetric two-qubit vector (|jk>-|kj>)/sqrt2 (j != k)."""
    if j == k:
        raise DimensionMismatchError("phi_minus needs two distinct labels")
    v = np.zeros(4)
    v[2 * j + k] = 1 / math.sqrt(2)
    v[2 * k + j] = -1 / math.sqrt(2)
    return Vector(v, 2, 2)


@lru_cache(maxsize=None)
def basis_family(family: str) -> Tuple[Vector, ...]:
    """Named four-qubit basis families of the pair split "12-34" (slots 1, 2
    and slots 3, 4).

    - "eta": five orthonormal vectors spanning the totally symmetric subspace.
    - "kappa": three orthonormal vectors spanning the subspace of
      P12+ (x) P34+ that is annihilated by the other two pair-split
      projectors; this is the no-error subspace for outcome class
      (different, different).
    - "kappa_prime": the single unit vector completing "kappa" to an
      orthonormal basis of P12+ (x) P34+ minus the totally symmetric subspace.
    - "omega": three mutually orthogonal vectors, each of squared norm 6,
      spanning the complement of the totally symmetric subspace inside the
      three-slot-symmetric subspace of slots {1,2,3} (i.e. Q123).
    - "omega_prime": same for slots {1,2,4} (Q124); <omega_j|omega'_k> equals
      -2 delta_jk.

    eta and kappa families are normalized; omega families are returned
    unnormalized exactly as defined.
    """
    p00, p01, p11 = phi_plus(0, 0), phi_plus(0, 1), phi_plus(1, 1)
    m01 = phi_minus(0, 1)

    def on(x, pa, y, pb):
        return pair_product(x, pa, y, pb)

    def pp(x, y):  # both pairs in standard position
        return on(x, (1, 2), y, (3, 4))

    if family == "eta":
        s2, s6 = math.sqrt(2), math.sqrt(6)
        return (
            pp(p00, p00),
            (1 / s2) * (pp(p00, p01) + pp(p01, p00)),
            math.sqrt(2 / 3) * pp(p01, p01) + (1 / s6) * (pp(p00, p11) + pp(p11, p00)),
            (1 / s2) * (pp(p11, p01) + pp(p01, p11)),
            pp(p11, p11),
        )
    if family == "kappa":
        s2 = math.sqrt(2)
        return (
            (1 / s2) * (pp(p00, p01) - pp(p01, p00)),
            (1 / s2) * (pp(p00, p11) - pp(p11, p00)),
            (1 / s2) * (pp(p11, p01) - pp(p01, p11)),
        )
    if family == "kappa_prime":
        s3 = math.sqrt(3)
        return ((1 / s3) * (pp(p01, p01) - pp(p00, p11) - pp(p11, p00)),)
    if family in ("omega", "omega_prime"):
        if family == "omega":
            # phi+ on the pairs inside {1,2,3}, phi-_01 on the complement
            placements = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((2, 3), (1, 4))]
            signs = (1.0, 1.0, 1.0)
            mid_sign = 1.0
        else:
            # phi+ on the pairs inside {1,2,4}; first placement enters negated
            placements = [((1, 2), (3, 4)), ((1, 4), (2, 3)), ((2, 4), (1, 3))]
            signs = (-1.0, 1.0, 1.0)
            mid_sign = -1.0

        def corner(plus_vec):
            acc = np.zeros(16, dtype=complex)
            for s, (pa, pb) in zip(signs, placements):
                acc = acc + s * on(plus_vec, pa, m01, pb).vec
            return Vector(acc, 2, 4)

        middle = pp(p00, p11) - pp(p11, p00) + (2 * mid_sign) * pp(p01, m01)
        return (corner(p00), middle, corner(p11))
    raise DimensionMismatchError(
        f"unknown family {family!r}; expected eta, kappa, kappa_prime, omega or omega_prime"
    )
