"""Permutation symmetry on n-fold tensor products and named four-qubit bases,
the closed forms that the verify battery checks the class operators against.

A slot permutation is fully described by its index map, the target of each
of the d**n basis kets (``haar._slot_targets``).  Every permutation operator
here is one weighted ``bincount`` at the cells (target[i], i) of one or more
maps (``_scatter``): one map for ``perm_operator``, the identity and the swap
for ``antisymmetrizer``, and all |S|! maps of a slot subset S for its
symmetrizer.  The scatter is kept apart from ``haar._project`` so that these
oracles share no code with ``haar.twirl``.  The four-qubit basis families
(eta, kappa, omega and their primed variants) are the exact vectors used to
analyse the no-error subspaces; kappa is ``comparison._KAPPA``, the vectors
that campaigns use.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

import numpy as np

from .comparison import _KAPPA
from .errors import ConfigError, DimensionMismatchError, UnsupportedDimensionError
from .haar import _slot_targets
from .tensors import Operator, Vector, _check_int, _check_space

#: the three ways to split four slots into two ordered pairs
SPLITS = ("12-34", "13-24", "14-23")


def sym_dim(d: int, k: int) -> int:
    """Dimension of the symmetric subspace of (C^d)^(x)k: C(d+k-1, k)."""
    if d < 1 or k < 0:
        raise DimensionMismatchError(f"sym_dim undefined for d={d}, k={k}")
    return math.comb(d + k - 1, k)


def _check_slots(slots: Iterable[int], n: int) -> Tuple[int, ...]:
    """slots as a tuple: DimensionMismatchError if it is empty, repeats a
    slot or leaves 1..n, checked in that order, and ConfigError if a slot
    is not an integer (or is a bool)."""
    try:
        slots = tuple(slots)
        if len(slots) == 0 or len(set(slots)) != len(slots):
            raise DimensionMismatchError(f"slot subset {slots} must be nonempty and unique")
        if any(not 1 <= s <= n for s in slots):
            raise DimensionMismatchError(f"slot subset {slots} out of range for n={n}")
    except TypeError as exc:  # not iterable, or a slot unhashable or not comparable with n
        raise ConfigError(f"slots must be integers 1..n, got {slots!r} and n={n!r}") from exc
    for s in slots:
        if type(s) is not int:  # the common case skips the call
            _check_int("slot", s, 1)
    return slots


def _scatter(images, n: int, d: int, weights=None) -> np.ndarray:
    """Dense sum_s w_s P_s of the slot permutations in the stack `images`
    (P, n): one bincount of w_s at the cells (t_s[i], i) of their index maps.
    Without weights every w_s is 1 and the entries are integer counts."""
    dim = d ** n
    cells = _slot_targets(images, n, d) * dim + np.arange(dim)
    if weights is not None:
        weights = np.repeat(weights, dim)
    return np.bincount(cells.ravel(), weights, dim * dim).reshape(dim, dim)


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
    return Operator(_scatter([images], n, d), d, n)


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
    # entry (a, b) counts the permutations that send ket b to ket a
    return Operator(_scatter(images, n, d) / len(sigmas), d, n)


def antisymmetrizer(slots: Iterable[int], n: int, d: int) -> Operator:
    """Projector onto the antisymmetric subspace of a slot *pair*: (1 - S)/2."""
    slots = _check_slots(slots, n)
    if len(slots) != 2:
        raise UnsupportedDimensionError(
            f"antisymmetrizer is provided for slot pairs only, got {len(slots)} slots"
        )
    _check_space(d, n)
    images = np.tile(np.arange(1, n + 1), (2, 1))
    images[1, np.subtract(slots, 1)] = slots[::-1]  # the identity, then the swap
    return Operator(_scatter(images, n, d, (0.5, -0.5)), d, n)


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

    def pp(x, y):  # both pairs in standard position
        return pair_product(x, (1, 2), y, (3, 4))

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
        return _KAPPA
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
                acc = acc + s * pair_product(plus_vec, pa, m01, pb).vec
            return Vector(acc, 2, 4)

        middle = pp(p00, p11) - pp(p11, p00) + (2 * mid_sign) * pp(p01, m01)
        return (corner(p00), middle, corner(p11))
    raise DimensionMismatchError(
        f"unknown family {family!r}; expected eta, kappa, kappa_prime, omega or omega_prime"
    )
