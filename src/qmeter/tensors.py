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

import math
from collections.abc import Collection
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence, Tuple, Union

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
#: the most slots: every d >= 2 passes _MAX_SPACE by 11 slots, and numpy
#: stops at 64 axes, which d = 1 would reach first
_MAX_SLOTS = 10


def _shown(value: int) -> str:
    """An integer in decimal, or by its digit count where str() refuses it
    (Python's int-to-str limit, 4,300 digits by default)."""
    try:
        return str(value)
    except ValueError:
        size = abs(int(value))
        digits = int(size.bit_length() * math.log10(2)) + 1  # exact or one too many
        return f"an integer of {digits - (10 ** (digits - 1) > size)} digits"


def _check_int(name: str, value, minimum: int, maximum: Optional[int] = None,
               error: type = ConfigError) -> None:
    """Raise ConfigError unless value is an integer (not a bool), and `error`
    unless minimum <= value <= maximum (no upper bound if maximum is None)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be <= {maximum}, got {_shown(value)}")


def _check_type(name: str, value, kind, error: type = ConfigError) -> None:
    """Raise `error` unless value is an instance of kind (a type or a tuple of types)."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise error(f"{name} must be of type {kinds}, got {type(value).__name__}")


def _check_space(d: int, n: int) -> int:
    """The dimension d ** n of n slots of dimension d.  Raise ConfigError
    unless d >= 1 and n >= 0 are integers, and UnsupportedDimensionError
    unless n <= _MAX_SLOTS and they span at most _MAX_SPACE dimensions
    (labeled d <= 32).  n is bounded before the power is taken."""
    if type(d) is int and type(n) is int and d >= 1 and 0 <= n <= _MAX_SLOTS:  # fast
        dim = d ** n
    else:
        _check_int("d", d, 1)
        _check_int("slots", n, 0, _MAX_SLOTS, UnsupportedDimensionError)
        dim = int(d) ** int(n)  # in Python integers, which a numpy d ** n would wrap
    if dim > _MAX_SPACE:
        raise UnsupportedDimensionError(
            f"{n} slots of dimension {_shown(d)} span {_shown(dim)} dimensions; "
            f"the dense operators stop at {_MAX_SPACE}"
        )
    return dim


def _as_complex(a, error: type = ConfigError) -> np.ndarray:
    """a as a read-only complex128 array; `error` if a holds anything else."""
    try:
        arr = np.array(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise error(f"not an array of complex numbers: {exc}") from exc
    arr.setflags(write=False)
    return arr


def _checked(a, d: int, n: int, rank: int) -> np.ndarray:
    """a as the read-only complex128 array of a tensor on n slots of
    dimension d with `rank` axes; DimensionMismatchError if not that shape."""
    shape = (_check_space(d, n),) * rank
    arr = _as_complex(a)
    if arr.shape != shape:
        raise DimensionMismatchError(f"array has shape {arr.shape}, expected {shape} "
                                     f"for d={d}, n={n}")
    return arr


def _scalar(value) -> complex:
    """value as a complex number; ConfigError unless it is one number."""
    try:
        return complex(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected one number, got {value!r}") from exc


class _Tensor:
    """What Operator and Vector share: a tensor on (C^d)^(x)n, read through
    `_arr`, its operand check, and sums and scalar products of its type."""

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def __reduce__(self):
        # unpickle through the constructor, so the array is checked and read-only
        return type(self), (self._arr, self.d, self.n)

    def _operand(self, other, kind) -> np.ndarray:
        """The array of other; ConfigError unless it is a `kind`, and
        DimensionMismatchError unless it lives on this space."""
        if not (isinstance(other, kind) and other.d == self.d and other.n == self.n):
            _check_type("operand", other, kind)
            raise DimensionMismatchError(f"operands live on different spaces: (d={self.d}, "
                                         f"n={self.n}) vs (d={other.d}, n={other.n})")
        return other._arr

    def __add__(self, other):
        return type(self)(self._arr + self._operand(other, type(self)), self.d, self.n)

    def __sub__(self, other):
        return type(self)(self._arr - self._operand(other, type(self)), self.d, self.n)

    def __mul__(self, scalar):
        return type(self)(self._arr * _scalar(scalar), self.d, self.n)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _scalar(scalar)
        if scalar == 0:
            raise ConfigError("division by zero")
        return type(self)(self._arr / scalar, self.d, self.n)


@dataclass(frozen=True, eq=False)
class Operator(_Tensor):
    """A dense operator on (C^d)^(x)n with its tensor structure attached."""

    mat: np.ndarray
    d: int
    n: int

    _arr = property(attrgetter("mat"))

    def __post_init__(self):
        object.__setattr__(self, "mat", _checked(self.mat, self.d, self.n, 2))

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
        vec = self._operand(state, Vector)
        return complex(vec.conj() @ (self.mat @ vec))

    def __matmul__(self, other: Union["Operator", "Vector"]):
        """The product with an Operator, or the image of a Vector."""
        return type(other)(self.mat @ self._operand(other, (Operator, Vector)), self.d, self.n)


@dataclass(frozen=True, eq=False)
class Vector(_Tensor):
    """A ket on (C^d)^(x)n."""

    vec: np.ndarray
    d: int
    n: int

    _arr = property(attrgetter("vec"))

    def __post_init__(self):
        object.__setattr__(self, "vec", _checked(self.vec, self.d, self.n, 1))

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def normalized(self) -> "Vector":
        return self / self.norm()

    def inner(self, other: "Vector") -> complex:
        return complex(self.vec.conj() @ self._operand(other, Vector))

    def projector(self) -> Operator:
        return Operator(np.outer(self.vec, self.vec.conj()), self.d, self.n)


def identity(d: int, n: int) -> Operator:
    return Operator(np.eye(_check_space(d, n)), d, n)


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
    _check_type("kron factor", a, Operator)
    _check_type("kron factor", b, Operator)
    if a.d != b.d:
        raise DimensionMismatchError(
            f"kron requires equal local dimensions, got {a.d} and {b.d}"
        )
    _check_space(a.d, a.n + b.n)
    return Operator(kron_arrays(a.mat, b.mat), a.d, a.n + b.n)


def basis_ket(digits: Sequence[int], d: int) -> Vector:
    """Computational basis ket |digits[0] digits[1] ...> (slot 1 first)."""
    _check_type("digits", digits, Collection)
    n = len(digits)
    _check_space(d, n)
    idx = 0
    for dig in digits:
        _check_int("digit", dig, 0)
        if dig >= d:
            raise DimensionMismatchError(f"digit {dig} out of range for d={d}")
        idx = idx * d + dig
    v = np.zeros(d ** n)
    v[idx] = 1.0
    return Vector(v, d, n)


def _spectrum(op: Operator) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian operator above the rank
    cutoff |w| > TOL_RANK * max|w|; none if max|w| <= TOL_ABS."""
    _check_type("operator", op, Operator)
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
