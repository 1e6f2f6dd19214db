"""Haar twirls, closed-form Haar moments and seeded Haar sampling.

twirl() averages diagonal operators over one Haar unitary per block of
slots; every class operator of the comparison protocols is built with it.
The closed forms below are such averages derived by hand, kept as oracles
for the verify battery and the Monte Carlo checks:

- pure_moment(k, d):    E[ (psi psi^dag)^(x)k ]            = P+_(1..k) / sym_dim(d, k)
- perp_moment(k, d):    E[ (phi phi^dag)^(x)k ] over Haar phi orthogonal to a
                        fixed psi: (1/sym_dim(d-1, k)) (1 - psi psi^dag)^(x)k P+_(1..k)
- r_operator(split, d): the four-slot combination
                        P+_pair1/d2 + P+_1234/d4 - sum_q P+_(pair1+q)/d3
                        whose product with P+_pair2 gives, up to the factor
                        d(d-1)/2, the average of psi^(x)2 (x) psi_perp^(x)2
- rbar(which, d):       two-slot averages of same/distinct outcome pairs:
                        sum_j E[A_j (x) A_j] / d        = P+/d2
                        sum_(j!=k) E[A_j (x) A_k] / d   = 1/d - P+/d2

haar_unitaries() draws Haar unitaries by the subgroup algorithm
(Diaconis-Shahshahani; in Householder form as in Stewart 1980):
U_k = H(x) (1 (+) U_(k-1)) for k = 1..d, with x uniform on the unit sphere
of C^k and H(x) a unitary reflection that maps e_1 to x.  It is exactly
Haar: the first column x is uniform, and the stabilizer 1 (+) U(k-1) of
e_1 is absorbed by the Haar invariance of U_(k-1), so W U_k has the law of
U_k for every fixed unitary W.

Monte Carlo estimators with elementwise standard errors are provided for
cross-validating every closed form from seeded samples.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .symmetry import _slot_targets, split_pairs, sym_dim, symmetrizer
from .tensors import TOL_ABS, TOL_RANK, Operator, Vector, identity, kron_arrays

RngLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True, eq=False)
class MomentOperator:
    """A Haar-moment operator with the metadata that identifies it."""

    kind: str
    order: int
    d: int
    split: Optional[str]
    op: Operator


def twirl(diagonals: np.ndarray, blocks: Sequence[int], d: int) -> np.ndarray:
    """Haar twirl of a stack of diagonal operators on (C^d)^(x)k, k = sum(blocks).

    Row i of `diagonals` (shape (m, d**k)) is the diagonal of X_i.  Each block
    of consecutive slots gets its own Haar unitary: blocks (k,) averages
    U^(x)k X U^dag(x)k, blocks (k/2, k/2) averages over independent U and V
    on the two halves.  By Schur-Weyl duality the (m, d**k, d**k) result is
    the projection onto the span of the slot permutations P_s that keep every
    block in place.  The projection goes through the pseudo-inverse of their
    Gram matrix (Weingarten calculus), so it also holds for d < k.

    Each P_s is taken as its index map t_s (symmetry._slot_targets), never as
    a matrix: the Gram entry tr(P_s^T P_t) counts the kets on which t_s and
    t_t agree, the overlap tr(P_s^T X_i) sums X_i's diagonal over the fixed
    points of t_s, and sum_s c_s P_s is a weighted scatter-add of c_s at
    (t_s[j], j).
    """
    k = sum(blocks)
    diagonals = np.asarray(diagonals, dtype=float)
    if diagonals.ndim != 2 or diagonals.shape[1] != d ** k:
        raise DimensionMismatchError(f"twirl needs diagonals of shape (m, {d ** k}), "
                                     f"got {diagonals.shape}")
    starts = np.cumsum((0,) + tuple(blocks))
    block_perms = (itertools.permutations(range(s + 1, s + b + 1)) for s, b in zip(starts, blocks))
    images = np.array([sum(p, ()) for p in itertools.product(*block_perms)])
    targets = _slot_targets(images, k, d)  # (P, d**k)
    dim, kets = d ** k, np.arange(d ** k)
    # complex like every other operator here: real LAPACK/BLAS routines would add RSS
    gram = (targets[:, None, :] == targets[None, :, :]).sum(axis=2).astype(complex)
    overlaps = (targets == kets) @ diagonals.T
    coeffs = np.linalg.pinv(gram, hermitian=True, rtol=TOL_RANK) @ overlaps  # (P, m)
    # cell (i, t_s[j], j) of the flat result gathers c_s[i], summed in s order
    cells = (np.arange(len(diagonals))[:, None, None] * dim + targets) * dim + kets
    weights = np.broadcast_to(coeffs.T[:, :, None], cells.shape).ravel()
    out = np.empty(len(diagonals) * dim * dim, dtype=complex)
    out.real = np.bincount(cells.ravel(), weights.real, out.size)
    out.imag = np.bincount(cells.ravel(), weights.imag, out.size)
    return out.reshape(-1, dim, dim)


def pure_moment(k: int, d: int) -> MomentOperator:
    """E[(psi psi^dag)^(x)k] over Haar psi: symmetrizer over k slots / sym_dim(d,k)."""
    if k < 1 or d < 2:
        raise DimensionMismatchError(f"pure_moment needs k >= 1 and d >= 2, got k={k}, d={d}")
    op = symmetrizer(range(1, k + 1), k, d) / sym_dim(d, k)
    return MomentOperator(kind="pure_power", order=k, d=d, split=None, op=op)


def perp_moment_operator(k: int, d: int) -> Callable[[Vector], Operator]:
    """Map psi -> E[(phi phi^dag)^(x)k] over Haar phi in the complement of psi.

    The complement is (d-1)-dimensional, so the average is the symmetric
    projector of the complement divided by sym_dim(d-1, k), which in the full
    space reads (1/sym_dim(d-1,k)) (1-psi psi^dag)^(x)k P+_(1..k).
    """
    if k < 1 or d < 2:
        raise DimensionMismatchError(f"perp moment needs k >= 1 and d >= 2, got k={k}, d={d}")
    coeff = 1.0 / sym_dim(d - 1, k)
    sym = symmetrizer(range(1, k + 1), k, d)

    def moment(psi: Vector) -> Operator:
        if psi.n != 1 or psi.d != d:
            raise DimensionMismatchError(f"psi must be a single-slot vector of dimension {d}")
        if not abs(psi.norm() - 1.0) <= TOL_ABS:  # NaN-safe
            raise InvalidStateError(f"psi is not normalized: |psi| = {psi.norm():.12f}")
        comp = np.eye(d) - np.outer(psi.vec, psi.vec.conj())
        power = comp
        for _ in range(k - 1):
            power = kron_arrays(power, comp)
        return Operator(coeff * power @ sym.mat, d, k)

    return moment


def r_operator(split: str, d: int) -> MomentOperator:
    """Four-slot moment combination attached to a pair split.

    For split pair1-pair2,
        R = P+_pair1/d2 + P+_1234/d4 - sum_(q in pair2) P+_(pair1 + q)/d3
    with dk = sym_dim(d, k).  R commutes with P+_pair2 and
    R P+_pair2 = (d(d-1)/2) E[psi^(x)2 on pair1 (x) phi^(x)2 on pair2]
    with psi Haar and phi Haar-orthogonal to psi; its support is
    P+_pair1 (x) P+_pair2.
    """
    pair1, pair2 = split_pairs(split)
    d2, d3, d4 = sym_dim(d, 2), sym_dim(d, 3), sym_dim(d, 4)
    acc = symmetrizer(pair1, 4, d) / d2 + symmetrizer(range(1, 5), 4, d) / d4
    for q in pair2:
        acc = acc - symmetrizer(sorted(pair1 + (q,)), 4, d) / d3
    return MomentOperator(kind="pair_split", order=4, d=d, split=split, op=acc)


def rbar(which: str, d: int) -> MomentOperator:
    """Two-slot outcome-pair averages over a Haar-random basis.

    "same":     (1/d) sum_j E[A_j (x) A_j]      = P+/d2          (trace 1)
    "diff":     (1/d) sum_(j!=k) E[A_j (x) A_k] = 1/d - P+/d2    (trace d-1)

    The distinct-pair multiplicity d-1 stays inside the "diff" operator, so
    completeness reads  d rbar(same) + d rbar(diff) = identity  for every d.
    """
    if which not in ("same", "diff"):
        raise DimensionMismatchError(f'rbar kind must be "same" or "diff", got {which!r}')
    sym = symmetrizer((1, 2), 2, d) / sym_dim(d, 2)
    if which == "same":
        op = sym
    else:
        op = identity(d, 2) / d - sym
    return MomentOperator(kind=f"outcome_pair_{which}", order=2, d=d, split=None, op=op)


# ----------------------------------------------------------------- sampling

def rng_from(seed: RngLike) -> np.random.Generator:
    """Coerce None / int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_unitaries(d: int, size: int, rng: RngLike = None) -> np.ndarray:
    """Stack of `size` Haar-random d x d unitaries, as a (size, d, d) array.

    Built from the bottom-right corner up by the subgroup algorithm (module
    docstring).  Level k normalizes a complex Gaussian x in C^k per matrix;
    H = 1 - v v^dag / (1 + a) with a = |x_0|, e^(i phi) = x_0 / a (1 if
    a = 0) and v = x + e^(i phi) e_1, times diag(-e^(i phi), 1, ..., 1),
    maps e_1 to x.  So column 0 of U_k is x, and each earlier column u
    becomes [0; u] - v x[1:]^dag u / (1 + a).  As |v|^2 = 2 (1 + a) >= 2,
    one pass is stable.

    The stream is one standard_normal call per level k = 1..d into the
    float64 view of a complex (k, size) buffer (real and imaginary parts
    interleaved): d (d + 1) size normals.  The result is the transposed
    view of a (d, d, size) buffer with the batch last, and every update is
    one vector operation on one column of all matrices.
    """
    gen = rng_from(rng)
    cols = np.empty((d, d, size), dtype=np.complex128)  # cols[j, :, b] is column j of U_b
    draw = np.empty((d, size), dtype=np.complex128)
    for k in range(1, d + 1):
        top = d - k  # U_k fills rows and columns top..d-1
        x = draw[:k]
        gen.standard_normal(out=x.view(np.float64))
        x *= 1.0 / np.sqrt((x.real * x.real + x.imag * x.imag).sum(axis=0))
        cols[top, top:] = x
        if k == 1:
            continue
        a = np.abs(x[0])
        phase = np.ones(size, dtype=np.complex128)
        np.divide(x[0], a, out=phase, where=a > 0)
        scale = 1.0 / (1.0 + a)
        tail, tail_conj = x[1:], x[1:].conj()  # v[1:] = x[1:]
        for j in range(top + 1, d):
            u = cols[j, top + 1:]
            c = (tail_conj * u).sum(axis=0)
            cols[j, top] = -phase * c  # -v_0 c with v_0 = e^(i phi) (1 + a)
            c *= scale
            u -= tail * c
    return cols.transpose(2, 1, 0)


def haar_unitary(d: int, rng: RngLike = None) -> np.ndarray:
    return haar_unitaries(d, 1, rng)[0]


def haar_states(d: int, size: int, rng: RngLike = None) -> np.ndarray:
    """Stack of `size` Haar-random unit vectors in C^d."""
    gen = rng_from(rng)
    z = gen.standard_normal((size, d)) + 1j * gen.standard_normal((size, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_state(d: int, rng: RngLike = None) -> np.ndarray:
    return haar_states(d, 1, rng)[0]


# ------------------------------------------------- Monte Carlo cross-checks

class _MatrixMean:
    """Running elementwise mean and standard error of complex matrices."""

    def __init__(self, dim: int):
        self.count = 0
        self.sum = np.zeros((dim, dim), dtype=np.complex128)
        self.sq_re = np.zeros((dim, dim))
        self.sq_im = np.zeros((dim, dim))

    def add(self, batch: np.ndarray) -> None:
        self.count += batch.shape[0]
        self.sum += batch.sum(axis=0)
        self.sq_re += (batch.real ** 2).sum(axis=0)
        self.sq_im += (batch.imag ** 2).sum(axis=0)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.count
        mean = self.sum / n
        var = (self.sq_re / n - mean.real ** 2) + (self.sq_im / n - mean.imag ** 2)
        se = np.sqrt(np.clip(var, 0.0, None) / n)
        return mean, se


def _chunks(total: int, chunk: int):
    done = 0
    while done < total:
        step = min(chunk, total - done)
        yield step
        done += step


def _outer_batch(vk: np.ndarray) -> np.ndarray:
    return vk[:, :, None] * vk[:, None, :].conj()


def _tensor_power(v: np.ndarray, k: int) -> np.ndarray:
    out = v
    for _ in range(k - 1):
        out = (out[:, :, None] * v[:, None, :]).reshape(v.shape[0], -1)
    return out


def mc_pure_moment(k: int, d: int, samples: int, seed: RngLike, chunk: int = 8192):
    """Seeded MC estimate of E[(psi psi^dag)^(x)k]; returns (mean, stderr)."""
    gen = rng_from(seed)
    acc = _MatrixMean(d ** k)
    for step in _chunks(samples, chunk):
        psi = haar_states(d, step, gen)
        acc.add(_outer_batch(_tensor_power(psi, k)))
    return acc.result()


def mc_perp_moment(psi: Vector, k: int, samples: int, seed: RngLike, chunk: int = 8192):
    """Seeded MC estimate of E[(phi phi^dag)^(x)k] for Haar phi orthogonal to psi."""
    d = psi.d
    if not abs(psi.norm() - 1.0) <= TOL_ABS:  # NaN-safe
        raise InvalidStateError(f"psi is not normalized: |psi| = {psi.norm():.12f}")
    gen = rng_from(seed)
    # orthonormal basis of the complement of psi from a complete QR
    q = np.linalg.qr(psi.vec.reshape(d, 1), mode="complete")[0][:, 1:]
    acc = _MatrixMean(d ** k)
    for step in _chunks(samples, chunk):
        phi = haar_states(d - 1, step, gen) @ q.T  # (step, d), orthogonal to psi
        acc.add(_outer_batch(_tensor_power(phi, k)))
    return acc.result()


def mc_pair_split_moment(split: str, d: int, samples: int, seed: RngLike, chunk: int = 8192):
    """Seeded MC estimate of E[psi psi on pair1, phi phi on pair2] (phi _|_ psi).

    Columns 0 and 1 of a Haar unitary provide (psi, phi) with exactly the
    right joint law.  Compare against (2/(d(d-1))) r_operator(split).op @ P+_pair2.
    """
    pair1, pair2 = split_pairs(split)
    gen = rng_from(seed)
    acc = _MatrixMean(d ** 4)
    slots = (*pair1, *pair2)
    order = np.argsort(slots)
    for step in _chunks(samples, chunk):
        u = haar_unitaries(d, step, gen)
        psi, phi = u[:, :, 0], u[:, :, 1]
        tens = np.einsum("ba,bc,be,bf->bacef", psi, psi, phi, phi)
        tens = tens.transpose((0, *(1 + order))).reshape(step, d ** 4)
        acc.add(_outer_batch(tens))
    return acc.result()


def mc_rbar(which: str, d: int, samples: int, seed: RngLike, chunk: int = 4096):
    """Seeded MC estimate of rbar("same"/"diff") from Haar-random bases."""
    if which not in ("same", "diff"):
        raise DimensionMismatchError(f'rbar kind must be "same" or "diff", got {which!r}')
    gen = rng_from(seed)
    acc = _MatrixMean(d ** 2)
    eye = np.eye(d ** 2, dtype=np.complex128)
    for step in _chunks(samples, chunk):
        u = haar_unitaries(d, step, gen)
        cols = np.einsum("bmj,bnj->bmnj", u, u).reshape(step, d ** 2, d)
        same = np.einsum("bxj,byj->bxy", cols, cols.conj()) / d
        acc.add(same if which == "same" else eye[None, :, :] / d - same)
    return acc.result()


def mc_agrees(mean: np.ndarray, se: np.ndarray, target: np.ndarray,
              nsig: float = 5.0, floor: float = 1e-12) -> tuple:
    """Elementwise |mean - target| <= nsig * se + floor.

    The floor absorbs roundoff in entries whose sample variance is
    structurally zero.  Returns (agrees, worst) where worst is the largest
    deviation measured in standard errors.
    """
    dev = np.abs(mean - target)
    ok = bool(np.all(dev <= nsig * se + floor))
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(dev <= floor, 0.0, dev / np.maximum(se, floor))
    return ok, float(np.max(sigmas))
