"""Dense complex operators and vectors on small tensor-product spaces.

Everything in this package lives on (C^d)^(x)n for small d and n (at most
16x16 matrices for the four-qubit constructions, d^2 x d^2 for the two-copy
ones), so plain dense complex128 arrays with explicit (d, n) metadata are the
whole story.  Slot 1 is the most significant tensor factor.

Tolerance policy.  Every numerical zero in the package reads one of two
constants.  TOL_ABS is absolute: inputs must pass identity checks
(Hermiticity, unit trace or norm, orthonormality) to within it, and a
probability, mixture weight or eigenvector entry at or below it is zero.  TOL_RANK is relative:
an eigenvalue at or below TOL_RANK times the largest magnitude is zero, in
support_projector, rank and the twirl's pseudo-inverse, and a Born row must
sum to 1 within it.  The certificate follows from them.  The support S_c of
a class's equal-device operator contains U P_c U^dag for every unitary U, so
in any single trial the class has equal-device probability at most
leak_c = tr(C S_c), where C is the positive part of the state with every
weight above TOL_ABS raised to at least 1; the raise makes leak_c bound
each pure component that a simulated trial may prepare as well as the
state itself.  A class is conclusive iff leak_c <= TOL_ABS/2 and its
different-device probability exceeds TOL_ABS; the half leaves room for
rounding in the class laws that a simulation samples, so a conclusive
class is clamped to an exact zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, NotPositiveSemidefiniteError,
                     UnsupportedDimensionError)

#: absolute tolerance for identity-type checks (Hermiticity, projector tests,
#: probability-zero decisions)
TOL_ABS = 1e-10
#: relative eigenvalue cutoff for rank / support decisions
TOL_RANK = 1e-8
#: the largest space, d ** n, that the dense layer works on: each operator
#: takes 16 (d ** n) ** 2 bytes, and the twirl several times that
_MAX_SPACE = 1024


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless value is an integer (not a bool) >= minimum."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _check_space(d: int, n: int) -> None:
    """Raise ConfigError unless d >= 1 and n >= 0 are integers, and
    UnsupportedDimensionError unless n slots of dimension d span at most
    _MAX_SPACE dimensions (labeled d <= 32)."""
    _check_int("d", d, 1)
    _check_int("slots", n, 0)
    dim = int(d) ** int(n)  # in Python integers, which a numpy d ** n would wrap
    if dim > _MAX_SPACE:
        raise UnsupportedDimensionError(
            f"{n} slots of dimension {d} span {dim} dimensions; "
            f"the dense operators stop at {_MAX_SPACE}"
        )


def _as_complex(a, error: type = ConfigError) -> np.ndarray:
    """a as a read-only complex128 array; `error` if a holds anything else."""
    try:
        arr = np.array(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise error(f"not an array of complex numbers: {exc}") from exc
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense operator on (C^d)^(x)n with its tensor structure attached."""

    mat: np.ndarray
    d: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_complex(self.mat))
        dim = self.d ** self.n
        if self.mat.shape != (dim, dim):
            raise DimensionMismatchError(
                f"operator matrix has shape {self.mat.shape}, "
                f"expected {(dim, dim)} for d={self.d}, n={self.n}"
            )

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= TOL_ABS)

    def is_projector(self) -> bool:
        return self.is_hermitian() and bool(
            np.max(np.abs(self.mat @ self.mat - self.mat)) <= TOL_ABS
        )

    def expval(self, state: "Vector") -> complex:
        """<state| self |state>."""
        self._check_same(state)
        return complex(state.vec.conj() @ (self.mat @ state.vec))

    def _check_same(self, other) -> None:
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatchError(
                f"operands live on different spaces: "
                f"(d={self.d}, n={self.n}) vs (d={other.d}, n={other.n})"
            )

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same(other)
        return Operator(self.mat + other.mat, self.d, self.n)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same(other)
        return Operator(self.mat - other.mat, self.d, self.n)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.mat * complex(scalar), self.d, self.n)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self.mat / complex(scalar), self.d, self.n)

    def __matmul__(self, other: Union["Operator", "Vector"]):
        self._check_same(other)
        if isinstance(other, Vector):
            return Vector(self.mat @ other.vec, self.d, self.n)
        return Operator(self.mat @ other.mat, self.d, self.n)


@dataclass(frozen=True, eq=False)
class Vector:
    """A ket on (C^d)^(x)n."""

    vec: np.ndarray
    d: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "vec", _as_complex(self.vec))
        dim = self.d ** self.n
        if self.vec.shape != (dim,):
            raise DimensionMismatchError(
                f"vector has shape {self.vec.shape}, "
                f"expected {(dim,)} for d={self.d}, n={self.n}"
            )

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def normalized(self) -> "Vector":
        return Vector(self.vec / self.norm(), self.d, self.n)

    def inner(self, other: "Vector") -> complex:
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatchError("inner product between different spaces")
        return complex(self.vec.conj() @ other.vec)

    def projector(self) -> Operator:
        return Operator(np.outer(self.vec, self.vec.conj()), self.d, self.n)

    def __add__(self, other: "Vector") -> "Vector":
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatchError("sum of vectors from different spaces")
        return Vector(self.vec + other.vec, self.d, self.n)

    def __sub__(self, other: "Vector") -> "Vector":
        return self.__add__(-1 * other)

    def __mul__(self, scalar) -> "Vector":
        return Vector(self.vec * complex(scalar), self.d, self.n)

    __rmul__ = __mul__


def identity(d: int, n: int) -> Operator:
    _check_space(d, n)
    return Operator(np.eye(d ** n), d, n)


def kron_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two arrays of equal rank as one broadcast outer
    product.  Every entry is the single product a[i...] * b[j...], as in
    np.kron, so the result equals np.kron bit for bit; only np.kron's
    generic axis bookkeeping is skipped, which dominates at these sizes."""
    split_a = sum(((m, 1) for m in a.shape), ())
    split_b = sum(((1, m) for m in b.shape), ())
    shape = tuple(m * k for m, k in zip(a.shape, b.shape))
    return (a.reshape(split_a) * b.reshape(split_b)).reshape(shape)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; both factors must share the local dimension d."""
    if a.d != b.d:
        raise DimensionMismatchError(
            f"kron requires equal local dimensions, got {a.d} and {b.d}"
        )
    _check_space(a.d, a.n + b.n)
    return Operator(kron_arrays(a.mat, b.mat), a.d, a.n + b.n)


def basis_ket(digits: Sequence[int], d: int) -> Vector:
    """Computational basis ket |digits[0] digits[1] ...> (slot 1 first)."""
    n = len(digits)
    _check_space(d, n)
    idx = 0
    for dig in digits:
        if not 0 <= dig < d:
            raise DimensionMismatchError(f"digit {dig} out of range for d={d}")
        idx = idx * d + dig
    v = np.zeros(d ** n)
    v[idx] = 1.0
    return Vector(v, d, n)


def _spectrum(op: Operator) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian operator above the rank
    cutoff |w| > TOL_RANK * max|w|; none if max|w| <= TOL_ABS."""
    if not op.is_hermitian():  # a NaN fails too
        raise NotPositiveSemidefiniteError("operator is not Hermitian")
    w, v = np.linalg.eigh((op.mat + op.mat.conj().T) / 2)
    lam = float(np.max(np.abs(w)))
    keep = (np.abs(w) > TOL_RANK * lam) & (lam > TOL_ABS)
    return w[keep], v[:, keep]


def support_projector(op: Operator) -> Operator:
    """Orthogonal projector onto the support (range) of a PSD operator.

    The support is spanned by the eigenvectors above the rank cutoff; the
    zero operator has the zero projector.  Raises NotPositiveSemidefiniteError
    if `op` is not Hermitian or an eigenvalue below -TOL_RANK * max|w| exists.
    """
    w, v = _spectrum(op)
    if w.size and w[0] < 0:
        raise NotPositiveSemidefiniteError(
            f"negative eigenvalue {w[0]:.3e} (largest magnitude {np.max(np.abs(w)):.3e})"
        )
    return Operator(v @ v.conj().T, op.d, op.n)


def rank(op: Operator) -> int:
    """Numerical rank of a Hermitian operator: eigenvalues above the rank cutoff."""
    return len(_spectrum(op)[0])
