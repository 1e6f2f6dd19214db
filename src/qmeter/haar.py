"""Haar twirls and seeded Haar sampling.

twirl() averages diagonal operators over one Haar unitary per block of
slots; every class operator of the comparison protocols is built with it.
Its projection onto the span of the slot permutations also decides whether
a test state commutes with every U^(x)n (_is_invariant, Schur-Weyl duality).
mc_twirl() is its seeded Monte Carlo twin, with elementwise standard errors.
The hand-derived closed forms of Haar moments are oracles of the verify
battery (verify.pure_moment, perp_moment, r_operator, rbar).

haar_unitaries() draws Haar unitaries by the subgroup algorithm
(Diaconis-Shahshahani; in Householder form as in Stewart 1980):
U_k = H(x) (1 (+) U_(k-1)) for k = 1..d, with x uniform on the unit sphere
of C^k and H(x) a unitary reflection that maps e_1 to x.  It is exactly
Haar: the first column x is uniform, and the stabilizer 1 (+) U(k-1) of
e_1 is absorbed by the Haar invariance of U_(k-1), so W U_k has the law of
U_k for every fixed unitary W.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidStateError
from .tensors import TOL_ABS, TOL_RANK, Operator, Vector, _as_complex, _check_int, _check_space

RngLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

# complex entries in one Monte Carlo batch (16 MB); the batch size follows
# from the size of one sample
_MC_BATCH_ENTRIES = 1 << 20
# complex entries of one haar_vectors or haar_unitaries draw (2 GiB); a
# campaign's largest, a labeled d = 32 "equal" batch, takes 2**23
_MAX_DRAW_ENTRIES = 1 << 27
#: standard errors within which mc_agrees accepts a Monte Carlo mean
MC_NSIG = 5.0
#: absolute slack of mc_agrees for entries of structurally zero variance
MC_FLOOR = 1e-12


def _check_diagonals(diagonals, blocks: Sequence[int], d: int) -> Tuple[int, np.ndarray]:
    """Check the blocks, d and the space they span before anything is
    allocated, then the shape and finiteness of the diagonals."""
    if len(blocks) == 0:
        raise ConfigError("a twirl needs at least one block of slots")
    for b in blocks:
        _check_int("block", b, 1)
    k = sum(blocks)
    _check_space(d, k)
    try:
        diagonals = np.asarray(diagonals, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"twirl needs real diagonals: {exc}") from exc
    if diagonals.ndim != 2 or diagonals.shape[1] != d ** k:
        raise DimensionMismatchError(f"twirl needs diagonals of shape (m, {d ** k}), "
                                     f"got {diagonals.shape}")
    if not np.all(np.isfinite(diagonals)):
        raise ConfigError("twirl needs finite diagonals")
    return k, diagonals


def _slot_targets(images, n: int, d: int) -> np.ndarray:
    """Index map of slot permutations on (C^d)^(x)n.

    `images` is one permutation, shape (n,), or a stack of them, shape
    (P, n): images[a-1] is the slot that receives the content of slot a.
    Returns the basis index that each ket |i> goes to, shape (d**n,) or
    (P, d**n): the ket whose slot images[a-1] carries the digit i_a, so slot
    a's digit moves to the place value d**(n - images[a-1]).
    """
    digits = np.indices((d,) * n).reshape(n, -1)  # (n, d**n), slot 1 first
    return d ** (n - np.asarray(images)) @ digits


def _block_targets(blocks: Sequence[int], d: int) -> np.ndarray:
    """Index maps t_s, shape (P, d**k), of the slot permutations that keep each block in place."""
    starts = np.cumsum((0,) + tuple(blocks))
    block_perms = (itertools.permutations(range(s + 1, s + b + 1)) for s, b in zip(starts, blocks))
    images = np.array([sum(p, ()) for p in itertools.product(*block_perms)])
    return _slot_targets(images, sum(blocks), d)


def _project(targets: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Projections sum_s c_s P_s, c = pinv(Gram) overlaps, onto the span of the
    P_s with index maps `targets`, one per column tr(P_s^T X_i) of `overlaps`.
    The Gram entry tr(P_s^T P_t) counts the kets on which t_s and t_t agree,
    and sum_s c_s P_s is a weighted scatter-add of c_s at (t_s[j], j)."""
    dim = targets.shape[1]
    kets = np.arange(dim)
    # complex like every other operator here: real LAPACK/BLAS routines would add RSS
    gram = (targets[:, None, :] == targets[None, :, :]).sum(axis=2).astype(complex)
    coeffs = np.linalg.pinv(gram, hermitian=True, rtol=TOL_RANK) @ overlaps  # (P, m)
    # cell (i, t_s[j], j) of the flat result gathers c_s[i], summed in s order
    cells = (np.arange(overlaps.shape[1])[:, None, None] * dim + targets) * dim + kets
    weights = np.broadcast_to(coeffs.T[:, :, None], cells.shape).ravel()
    out = np.empty(overlaps.shape[1] * dim * dim, dtype=complex)
    out.real = np.bincount(cells.ravel(), weights.real, out.size)
    out.imag = np.bincount(cells.ravel(), weights.imag, out.size)
    return out.reshape(-1, dim, dim)


def twirl(diagonals: np.ndarray, blocks: Sequence[int], d: int) -> np.ndarray:
    """Haar twirl of a stack of diagonal operators on (C^d)^(x)k, k = sum(blocks).

    Row i of `diagonals` (shape (m, d**k)) is the diagonal of X_i.  Each block
    of consecutive slots gets its own Haar unitary: blocks (k,) averages
    U^(x)k X U^dag(x)k, blocks (k/2, k/2) averages over independent U and V
    on the two halves.  By Schur-Weyl duality the (m, d**k, d**k) result is
    the projection onto the span of the slot permutations P_s that keep every
    block in place.  The projection goes through the pseudo-inverse of their
    Gram matrix (Weingarten calculus), so it also holds for d < k.

    Each P_s is taken as its index map t_s (_slot_targets), never as
    a matrix, and the overlap tr(P_s^T X_i) sums X_i's diagonal over the
    fixed points of t_s (``_project`` does the rest).
    """
    k, diagonals = _check_diagonals(diagonals, blocks, d)
    targets = _block_targets(blocks, d)  # (P, d**k)
    return _project(targets, (targets == np.arange(d ** k)) @ diagonals.T)


def _is_invariant(rho: Operator) -> bool:
    """Whether rho commutes with U^(x)n for every unitary U: by Schur-Weyl
    duality, whether it equals its projection onto the span of the slot
    permutations P_s, s in S_n, the projection twirl() takes.  The overlaps
    tr(P_s^T rho) = sum_j rho[t_s(j), j] are one gather over the index maps.
    This is an identity check on an input, so it holds within TOL_ABS."""
    targets = _block_targets((rho.n,), rho.d)
    overlaps = rho.mat[targets, np.arange(rho.dim)].sum(axis=1)
    drift = _project(targets, overlaps[:, None])[0] - rho.mat
    return bool(np.max(np.abs(drift)) <= TOL_ABS)  # a NaN fails too


# ----------------------------------------------------------------- sampling

def rng_from(seed: RngLike) -> np.random.Generator:
    """Coerce None / int >= 0 / SeedSequence / Generator into a Generator: the
    one seed rule of every seeded call.  Anything else, a bool too, is a ConfigError."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not (seed is None or isinstance(seed, np.random.SeedSequence)):
        _check_int("seed", seed, 0)
    return np.random.default_rng(seed)


def _check_draw(d: int, size: int, axes: int) -> None:
    """Check d, size and the d ** axes * size complex entries of one draw
    before anything is allocated."""
    _check_int("d", d, 1)
    _check_int("size", size, 0)
    entries = int(d) ** axes * int(size)  # Python integers, which do not wrap
    if entries > _MAX_DRAW_ENTRIES:
        raise ConfigError(f"{size} draws at d={d} take {entries} complex entries; "
                          f"one call stops at {_MAX_DRAW_ENTRIES}")


def _sphere(x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Fill the C-contiguous complex128 (d, size) array x with `size` uniform
    unit vectors in C^d, one per column, and return it.

    One standard_normal call fills the float64 view of x (real and imaginary
    parts interleaved), 2 d size normals, and each column is divided by its
    norm; a normalized complex Gaussian is uniform on the unit sphere."""
    gen.standard_normal(out=x.view(np.float64))
    x *= 1.0 / np.sqrt((x.real * x.real + x.imag * x.imag).sum(axis=0))
    return x


def haar_vectors(d: int, size: int, rng: RngLike = None) -> np.ndarray:
    """Stack of `size` uniform unit vectors in C^d, as a (d, size) array with
    the batch last: column b is vector b (_sphere).  Every row of a Haar
    unitary has this law, and so does every column."""
    _check_draw(d, size, 1)
    return _sphere(np.empty((d, size), dtype=np.complex128), rng_from(rng))


def haar_unitaries(d: int, size: int, rng: RngLike = None) -> np.ndarray:
    """Stack of `size` Haar-random d x d unitaries, as a (size, d, d) array.

    Built from the bottom-right corner up by the subgroup algorithm (module
    docstring).  Level k takes a uniform unit vector x in C^k per matrix
    (_sphere); H = 1 - v v^dag / (1 + a) with a = |x_0|,
    e^(i phi) = x_0 / a (1 if a = 0) and v = x + e^(i phi) e_1, times
    diag(-e^(i phi), 1, ..., 1), maps e_1 to x.  So column 0 of U_k is x,
    and each earlier column u becomes [0; u] - v x[1:]^dag u / (1 + a).  As
    |v|^2 = 2 (1 + a) >= 2, one pass is stable.

    The stream is one _sphere fill per level k = 1..d: d (d + 1) size
    normals.  The result is the transposed view of a (d, d, size) buffer
    with the batch last, and every update is one vector operation on one
    column of all matrices.  Each level draws x in place, into the column
    it becomes, so a call allocates no buffer but the result.
    """
    _check_space(d, 1)  # d ** 3 size operations: the dense layer's bound
    _check_draw(d, size, 2)
    gen = rng_from(rng)
    cols = np.empty((d, d, size), dtype=np.complex128)  # cols[j, :, b] is column j of U_b
    for k in range(1, d + 1):
        top = d - k  # U_k fills rows and columns top..d-1
        x = _sphere(cols[top, top:], gen)  # column 0 of U_k, drawn in place
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


# ------------------------------------------------- Monte Carlo cross-checks

class _MatrixMean:
    """Running elementwise mean and standard error of complex arrays."""

    def __init__(self, shape: Tuple[int, ...]):
        self.shape = shape
        self.count = 0
        self.sum = np.zeros(int(np.prod(shape)), dtype=np.complex128)
        self.sq_re = np.zeros(self.sum.shape)
        self.sq_im = np.zeros(self.sum.shape)

    def add(self, batch: np.ndarray) -> None:
        flat = batch.reshape(len(batch), -1)
        self.count += len(flat)
        self.sum += flat.sum(axis=0)
        self.sq_re += np.einsum("bi,bi->i", flat.real, flat.real)
        self.sq_im += np.einsum("bi,bi->i", flat.imag, flat.imag)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.count
        mean = self.sum / n
        var = (self.sq_re / n - mean.real ** 2) + (self.sq_im / n - mean.imag ** 2)
        se = np.sqrt(np.clip(var, 0.0, None) / n)
        return mean.reshape(self.shape), se.reshape(self.shape)


def _mc_mean(draw: Callable[[int], np.ndarray], shape: Tuple[int, ...], samples: int):
    """(mean, stderr) over `samples` draws of one sample of `shape`; draw(n)
    returns n samples stacked on axis 0."""
    _check_int("samples", samples, 1)
    step = max(1, _MC_BATCH_ENTRIES // int(np.prod(shape)))
    acc = _MatrixMean(shape)
    for done in range(0, samples, step):
        acc.add(draw(min(step, samples - done)))
    return acc.result()


def mc_twirl(diagonals: np.ndarray, blocks: Sequence[int], d: int, samples: int,
             seed: RngLike) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded Monte Carlo estimate of twirl(diagonals, blocks, d).

    Returns the elementwise (mean, stderr) stacks, each (m, d**k, d**k), of
    W X_i W^dag with W = (x)_b U_b^(x)|b| and one Haar U_b per block, drawn
    by one haar_unitaries call per block and batch.  W|j> is the Kronecker
    product of the unitary columns named by the digits of ket j, so X_i
    contributes sum_j X_i[j] W|j><j|W^dag over the kets j where X_i is
    nonzero only: a one-ket diagonal costs one outer product per sample.
    """
    k, diagonals = _check_diagonals(diagonals, blocks, d)
    gen = rng_from(seed)
    dim = d ** k
    kets = np.flatnonzero(np.any(diagonals != 0, axis=0))  # every ket some X_i uses
    digits = np.unravel_index(kets, (d,) * k)  # digits[s] of slot s + 1, slot 1 first
    owner = np.repeat(np.arange(len(blocks)), blocks)  # block of each slot
    support = [np.flatnonzero(x[kets]) for x in diagonals]  # positions in kets

    def draw(n: int) -> np.ndarray:
        us = [haar_unitaries(d, n, gen) for _ in blocks]
        cols = np.ones((n, 1, len(kets)), dtype=np.complex128)
        for s in range(k):
            col = us[owner[s]][:, :, digits[s]]  # (n, d, kets)
            cols = (cols[:, :, None, :] * col[:, None, :, :]).reshape(n, d ** (s + 1), len(kets))
        out = np.empty((n, len(diagonals), dim, dim), dtype=np.complex128)
        for i, sel in enumerate(support):
            w = cols[:, :, sel]
            np.matmul(w * diagonals[i, kets[sel]], w.conj().transpose(0, 2, 1), out=out[:, i])
        return out

    return _mc_mean(draw, (len(diagonals), dim, dim), samples)


def mc_perp_moment(psi: Vector, k: int, samples: int, seed: RngLike):
    """Seeded MC estimate of E[(phi phi^dag)^(x)k] for Haar phi orthogonal to psi."""
    d = psi.d
    _check_int("k", k, 1)
    _check_space(d, k)
    if not abs(psi.norm() - 1.0) <= TOL_ABS:  # NaN-safe
        raise InvalidStateError(f"psi is not normalized: |psi| = {psi.norm():.12f}")
    gen = rng_from(seed)
    # orthonormal basis of the complement of psi from a complete QR
    q = np.linalg.qr(psi.vec.reshape(d, 1), mode="complete")[0][:, 1:]

    def draw(n: int) -> np.ndarray:
        phi = haar_vectors(d - 1, n, gen).T @ q.T  # (n, d), orthogonal to psi
        power = phi
        for _ in range(k - 1):
            power = (power[:, :, None] * phi[:, None, :]).reshape(n, -1)
        return power[:, :, None] * power[:, None, :].conj()

    return _mc_mean(draw, (d ** k, d ** k), samples)


def mc_agrees(mean: np.ndarray, se: np.ndarray, target: np.ndarray) -> tuple:
    """Elementwise |mean - target| <= MC_NSIG * se + MC_FLOOR.

    The floor absorbs roundoff in entries whose sample variance is
    structurally zero.  Returns (agrees, worst) where worst is the largest
    deviation measured in standard errors.
    """
    dev = np.abs(_as_complex(mean) - _as_complex(target))
    se = _as_complex(se).real  # a standard error is real
    ok = bool(np.all(dev <= MC_NSIG * se + MC_FLOOR))
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(dev <= MC_FLOOR, 0.0, dev / np.maximum(se, MC_FLOOR))
    return ok, float(np.max(sigmas))
