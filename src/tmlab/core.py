"""Even-order Hermitian tensor algebra on the square unfolding.

An even-order tensor ``T`` with index structure ``(i_1..i_N, j_1..j_N)`` and
mode sizes ``dims = (I_1, .., I_N)`` is isomorphic, through the row-major
mixed-radix encoding of the two index groups, to a ``D x D`` matrix with
``D = prod(dims)``.  The Einstein product (contraction of the trailing index
group of the left factor against the leading group of the right factor)
becomes ordinary matrix multiplication under this unfolding, so every
spectral operation in this package runs on the ``D x D`` Hermitian
matrix-view.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TensorShape",
    "HermitianTensor",
    "SpectralDecomposition",
    "GaugeNormKind",
    "SPECTRAL",
    "FROBENIUS",
    "TRACE",
    "Relation",
    "LoewnerVerdict",
    "HermiticityError",
    "NotPositiveDefiniteError",
    "NotPositiveSemidefiniteError",
    "ky_fan",
    "unfold",
    "fold",
    "einstein_product",
    "spectral_decompose",
    "apply_spectral",
    "spectral_power",
    "loewner_compare",
    "gauge_norm",
    "range_projector",
    "tensor_to_json_dict",
    "tensor_from_json_dict",
    "save_tensor",
    "load_tensor",
]

# Relative tolerance for accepting nearly-Hermitian input before symmetrizing.
HERMITICITY_RTOL = 1e-9
# The certificate takes its norms from _frobenius, and the Hermiticity check
# does where a plain sum of squares is not finite.  _frobenius re-sums a sum
# of squares that overflowed over the entries scaled by the exact power of
# two _NORM_UNIT (every finite double then lies below 2**424).  A norm below
# 1 / _NORM_SAFE may come from squares that underflowed.
_NORM_SAFE = 2.0**500
_NORM_UNIT = 2.0**-600
# Default relative tolerance for PSD / Loewner-order decisions.
PSD_RTOL = 1e-8
# Relative eigenvalue cutoff for rank decisions (projectors, eta).
RANK_RTOL = 1e-10
_EPS = float(np.finfo(float).eps)


class HermiticityError(ValueError):
    """Input tensor is not Hermitian within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Operation requires a positive definite tensor."""


class NotPositiveSemidefiniteError(ValueError):
    """Operation requires a positive semidefinite tensor."""


@dataclass(frozen=True)
class TensorShape:
    """Mode sizes ``(I_1, .., I_N)`` of one index group of an even-order tensor."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = self.dims
        # A Python int (bool's type is not int) needs no ABC check.
        if not (isinstance(dims, (list, tuple)) and dims and all(
                (type(d) is int or isinstance(d, numbers.Integral) and not isinstance(d, bool)) and d >= 1
                for d in dims)):
            raise ValueError(f"dims must be a nonempty list of integers >= 1, got {dims!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))

    @property
    def order(self) -> int:
        """Number of modes N in one index group."""
        return len(self.dims)

    @property
    def square_dim(self) -> int:
        """Side length D of the square unfolding."""
        return math.prod(self.dims)


def _integer(name: str, value, low=0) -> int:
    """The one rule of a library integer argument: a ``numbers.Integral``
    (numpy integers too) that is not a bool, at least ``low``.  Returns it
    as an int, else raises ``ValueError`` naming ``name``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _as_shape(shape) -> TensorShape:
    """A :class:`TensorShape` from itself, from one integral mode size
    (a Python or numpy integer) or from a sequence of them; anything
    else raises :class:`TensorShape`'s ``ValueError``."""
    if isinstance(shape, TensorShape):
        return shape
    if isinstance(shape, numbers.Integral):
        return TensorShape((shape,))
    try:
        shape = tuple(shape)
    except TypeError:  # not a sequence: TensorShape names it
        pass
    return TensorShape(shape)


def _ct(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes of a ``(..., D, D)`` stack."""
    return matrix.conj().swapaxes(-1, -2)


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    """:func:`_ct` as a fresh C-ordered array, written in one pass: the
    operand of elementwise sums, which on a large stack run several times
    faster than over the strided view (a matrix product takes the view)."""
    return np.conjugate(matrix.swapaxes(-1, -2), order="C")


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    """The Hermitian part of a fresh product, formed in place: ``matrix``
    plus its :func:`_adjoint`, halved; the bits of
    ``(matrix + _ct(matrix)) / 2.0``."""
    matrix += _adjoint(matrix)
    matrix *= 0.5
    return matrix


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, frozen in place: cached spectra and stored matrices are shared."""
    a.flags.writeable = False
    return a


def _check_finite(matrix: np.ndarray) -> None:
    if not np.isfinite(matrix).all():
        raise ValueError("entries must be finite")


# Whether this thread (or task) runs inside a _quiet kernel.
_QUIET = contextvars.ContextVar("tmlab_quiet", default=False)


def _quiet(fn):
    """Run a kernel with numpy's overflow and invalid-value warnings off.

    Its matrix outputs pass the finiteness gate of ``_seal``, so an
    overflow raises ``ValueError("entries must be finite")`` there instead
    of warning first.  Only the outermost ``_quiet`` kernel of a call
    enters ``np.errstate``; the kernels it reaches run in that state
    (``_QUIET`` records it per thread and task), and so do the helpers
    they share, such as :func:`_frobenius`, which set no state of their own.
    """

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return run


def _any(mask) -> bool:
    """Whether a numpy boolean array has a true entry; a numpy bool scalar
    is read directly (no reduction on the batch-of-one path)."""
    return bool(mask.any()) if mask.ndim else bool(mask)


def _all(mask) -> bool:
    """Whether every entry of a boolean array is true, read as :func:`_any` reads."""
    return bool(mask.all()) if mask.ndim else bool(mask)


def _first(mask: np.ndarray):
    """Index of the first true entry of a boolean array (C order)."""
    return np.unravel_index(int(np.argmax(mask)), mask.shape)


def _root_sum_squares(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt((matrix.conj() * matrix).real.sum(axis=(-2, -1)))


def _frobenius(matrix: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a ``(..., D, D)`` stack.  A sum of
    squares that overflows is summed again over the entries scaled by the
    exact power of two ``_NORM_UNIT``, so a finite sum keeps its bits and a
    norm past the double range is ``inf``.  Called under :func:`_quiet`."""
    norm = _root_sum_squares(matrix)
    overflow = norm == np.inf
    if _any(overflow):
        norm = np.where(overflow, _root_sum_squares(matrix * _NORM_UNIT) / _NORM_UNIT, norm)
    return norm


def _validation_norm(matrix: np.ndarray) -> np.ndarray:
    """Frobenius norms of a ``(..., D, D)`` stack for the Hermiticity test:
    the root of one sum of squares per matrix (a BLAS ``vdot`` for a single
    matrix, else one reduction over the float64 view), or
    :func:`_frobenius`'s rescaled sum where a sum is not finite (past about
    1e154, or non-finite entries).  Their last bits may differ from
    :func:`_frobenius`'s."""
    if matrix.ndim == 2:
        squares = np.vdot(matrix, matrix).real
    else:
        flat = np.ascontiguousarray(matrix).view(np.float64).reshape(*matrix.shape[:-2], -1)
        squares = np.einsum("...i,...i->...", flat, flat)
    return np.sqrt(squares) if _all(np.isfinite(squares)) else _frobenius(matrix)


@_quiet
def _validated(matrix: np.ndarray) -> np.ndarray:
    """Body of public construction over a ``(..., D, D)`` stack.

    Each matrix must lie within a relative Frobenius distance
    ``HERMITICITY_RTOL`` of Hermitian; the Hermitian part is returned.  The
    norms come from :func:`_validation_norm`, on the halved entries (an
    exact scaling), so that neither the defect nor the Hermitian part
    overflows for finite entries.  A non-finite entry makes its matrix's
    scale non-finite, so it passes this test, and its Hermitian part is
    non-finite too: :meth:`HermitianStack._seal` refuses it.
    """
    half = matrix * 0.5
    adjoint = _adjoint(half)
    scale = np.maximum(0.5, _validation_norm(half))
    defect = _validation_norm(half - adjoint)
    bad = defect > HERMITICITY_RTOL * scale
    if _any(bad):
        i = _first(bad)
        raise HermiticityError(f"entries deviate from conjugate symmetry by {2.0 * float(defect[i]):.3e} "
                               f"(allowed {2.0 * HERMITICITY_RTOL * float(scale[i]):.3e})")
    return half + adjoint


class HermitianStack:
    """Stack of exactly Hermitian ``D x D`` matrices, shape ``(..., D, D)``.

    The operand of the numerical kernels (the spectral calculus, the means,
    ``eta``, the bound factors, the Loewner extremes): each kernel maps the
    whole stack in one call per LAPACK routine or ufunc, and per-matrix
    scalars come back as arrays over the leading axes.  Every stack carries
    the tensor shape of its matrices from birth (``_shape``; None only for
    raw matrices of unknown shape), and a result's class follows its
    matrix: a single ``D x D`` matrix of known shape is a
    :class:`HermitianTensor`, so each operation has one body, and mixed
    tensor and stack operands broadcast in either order.  Stacks are
    immutable and keep two spectral caches: one stacked read of the values
    (:meth:`_eigenvalues`) serves every eigenvalue read, and one stacked
    ``eigh`` (:meth:`_spectrum`) serves the kernels that read eigenvectors.
    A kernel that knows a spectrum passes it at birth (:meth:`_seal`,
    through :meth:`_trusted` or :meth:`_derive`): ascending ``values``,
    their ``vectors``, or the two parts of a graded factor ``G`` whose
    ``sigma(G)**2`` are the values.  Otherwise each cache is filled on
    first use.
    """

    __slots__ = ("_matrix", "_shape", "_evals", "_eig", "_factor")
    # numpy defers to the reflected operators: array * stack scales per matrix.
    __array_ufunc__ = None

    @staticmethod
    def _trusted(matrix: np.ndarray, shape: TensorShape | None = None, **known) -> "HermitianStack":
        """The one constructor of kernel results: wrap a fresh stack that is
        exactly Hermitian by construction, of tensor ``shape``, born with
        ``known`` (:meth:`_seal`, which checks finiteness only).  A single
        matrix of known shape is a :class:`HermitianTensor`."""
        s = object.__new__(HermitianTensor if matrix.ndim == 2 and shape is not None else HermitianStack)
        s._seal(matrix, shape, **known)
        return s

    @staticmethod
    def from_matrices(matrices, shape: TensorShape | None = None) -> "HermitianStack":
        """Validated stack of raw ``(..., D, D)`` matrices: the check of
        public tensor construction, applied to every matrix at once."""
        return HermitianStack._trusted(_validated(np.asarray(matrices, dtype=np.complex128)), shape)

    def _seal(self, matrix: np.ndarray, shape, values=None, vectors=None, factor=None) -> None:
        """The step every construction ends in, and its one finiteness
        check: read-only contiguous storage of the matrix, its tensor
        ``shape``, and what its maker knows of its spectrum: the ascending
        ``values``, with them their ``vectors``, or a graded factor
        ``G = grade diag(s)^(1/2)`` of ``matrix = W G G^H W^H`` for a
        unitary ``W``, as its parts ``factor = (grade, s)``; ``G`` is formed
        only by the first values read."""
        _check_finite(matrix)
        self._matrix = _read_only(np.ascontiguousarray(matrix))
        self._shape = shape
        self._evals = None if values is None else _read_only(values)
        self._eig = None if vectors is None else (self._evals, _read_only(vectors))
        self._factor = factor

    def _derive(self, matrix: np.ndarray, **known) -> "HermitianStack":
        """A kernel result of ``self``'s tensor shape, born with ``known``."""
        return HermitianStack._trusted(matrix, self._shape, **known)

    def _decomposed(self) -> "HermitianStack":
        """The same matrices re-born with their one ``eigh`` pair in both
        caches, so that a values read costs no second decomposition."""
        w, v = self._spectrum()
        return self._derive(self._matrix, values=w, vectors=v)

    def _member(self, i: int) -> "HermitianStack":
        """Matrix ``i``, a tensor of the stack's shape, born with its slice
        of the eigenpairs the stack holds."""
        known = {} if self._eig is None else {"values": self._eig[0][i], "vectors": self._eig[1][i]}
        return self._derive(self._matrix[i], **known)

    def unfold(self) -> np.ndarray:
        """Read-only ``(..., D, D)`` Hermitian matrices."""
        return self._matrix

    def _eigenvalues(self) -> np.ndarray:
        """Read-only ascending eigenvalues of every matrix, made on first
        use and cached: one stacked ``eigvalsh``, or for a mean born with the
        parts of a graded factor ``G``, ``sigma(G)**2`` by one stacked SVD,
        which keeps the relative accuracy that ``eigvalsh`` loses past
        condition ``1/eps``.

        Every eigenvalue read goes through here, never through a cached
        :meth:`_spectrum`, so its bits do not depend on which kernels ran
        before.  They agree with the eigenvalues of :meth:`_spectrum` to
        rounding, not bit for bit, unless both were passed at birth.
        """
        if self._evals is None and self._factor is not None:
            grade, s = self._factor
            factor = grade * np.sqrt(s)[..., None, :]
            # Largest columns first, as a pivoted QR takes them (Demmel et al., LAA 299, 1999).
            order = np.argsort(-np.abs(factor).max(axis=-2), axis=-1)
            graded = np.take_along_axis(factor, order[..., None, :], axis=-1)
            self._evals = _read_only(np.linalg.svd(graded, compute_uv=False)[..., ::-1] ** 2)
        elif self._evals is None:
            self._evals = _read_only(np.linalg.eigvalsh(self._matrix))
        return self._evals

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues and eigenvectors of every matrix,
        for the kernels that read eigenvectors.

        One ``eigh`` call over the stack, made on first use unless passed at
        birth.  The two caches are the only writes into an instance after
        its birth, and idempotent ones.  Eigenvector phases are those LAPACK
        returns; :func:`spectral_decompose` fixes them.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self._matrix)
            self._eig = (_read_only(w), _read_only(v))
        return self._eig

    # -- algebra --------------------------------------------------------

    def _check_same_shape(self, other: "HermitianStack") -> None:
        """The one operand check of a binary kernel, alike in either order:
        ``other`` is a stack of the same D and, when both carry a tensor
        shape, of the same dims."""
        if not isinstance(other, HermitianStack):
            raise TypeError(f"expected HermitianStack, got {type(other).__name__}")
        if self._shape is not None and other._shape is not None and self._shape != other._shape:
            raise ValueError(f"shape mismatch: {self._shape.dims} vs {other._shape.dims}")
        if other._matrix.shape[-1] != self._matrix.shape[-1]:
            raise ValueError(f"size mismatch: {self._matrix.shape} vs {other._matrix.shape}")

    @_quiet
    def __add__(self, other: "HermitianStack") -> "HermitianStack":
        self._check_same_shape(other)
        return self._derive(self._matrix + other._matrix)

    @_quiet
    def __sub__(self, other: "HermitianStack") -> "HermitianStack":
        self._check_same_shape(other)
        return self._derive(self._matrix - other._matrix)

    @_quiet
    def __mul__(self, scalar) -> "HermitianStack":
        """Scale by a number, or per matrix by an array over the batch axes."""
        return self._derive(self._matrix * np.asarray(scalar, dtype=np.float64)[..., None, None])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "HermitianStack":
        return self * (1.0 / np.asarray(scalar, dtype=np.float64))

    def __neg__(self) -> "HermitianStack":
        return self * (-1.0)


def _live(w: np.ndarray) -> np.ndarray:
    """The one rank cut: which eigenvalues of ascending spectra ``w`` count
    as range, ``lambda > RANK_RTOL * max(lambda_max, 0)``."""
    return w > RANK_RTOL * np.maximum(w[..., -1:], 0.0)


def _per_item(values):
    """Per-matrix scalars: a Python scalar for a single matrix, else the array."""
    return values.item() if np.ndim(values) == 0 else values


def _spectral_scale(h) -> np.ndarray:
    """max(|lambda|) of every matrix, from the cached eigenvalues; ``|c|``
    for per-matrix numbers ``c`` standing for ``c I``."""
    return _scale_of(h._eigenvalues()) if isinstance(h, HermitianStack) else np.abs(h)


def _scale_of(ev: np.ndarray) -> np.ndarray:
    """max(|lambda|) of every ascending spectrum of a stack."""
    return np.maximum(np.abs(ev[..., 0]), np.abs(ev[..., -1]))


def _scale_bracket(h: HermitianStack):
    """Bounds ``(lo, hi)`` of :func:`_spectral_scale` that read no spectrum:
    the scale itself when the values are cached, else ``max_i |h_ii| <=
    |h|_2 <= |h|_F``, widened by ``4 D**2 eps`` for the rounding of the
    eigenvalues and of the norm."""
    if h._evals is not None:
        return (_spectral_scale(h),) * 2
    m = h._matrix
    w = 4.0 * m.shape[-1] ** 2 * _EPS
    return np.abs(np.einsum("...ii->...i", m).real).max(axis=-1) * (1.0 - w), _frobenius(m) * (1.0 + w)


@_quiet
def _certified(lhs, rhs: HermitianStack) -> bool:
    """The one Cholesky certificate: whether one stacked factorization of
    ``A - delta I``, for the computed ``A = rhs - lhs`` and
    ``delta = 4 D**2 eps (|lhs|_F + |rhs|_F)``, proves ``lhs <= rhs`` for
    every matrix (``lhs`` may be numbers ``c`` standing for ``c I``).
    ``delta`` exceeds the backward error of a factorization that completes,
    about ``D (D + 1) / 2 * eps |A|_2`` (Higham, 2nd ed., Thm 10.3; Rump,
    BIT 46, 2006), plus that of ``eigvalsh``.  A ``LinAlgError``, raised
    for the whole stack, certifies nothing: the caller's rule decides.  Nor
    does a factor that is not finite: near the double range a pivot can
    overflow, and LAPACK then returns NaN in place of raising."""
    m = rhs._matrix
    d = m.shape[-1]
    if isinstance(lhs, HermitianStack):
        a, c = m - lhs._matrix, 0.0
        norms = _frobenius(m) + _frobenius(lhs._matrix)
    else:
        a, c = m.copy(), lhs
        norms = _frobenius(m) + abs(lhs) * math.sqrt(d)
    # Below 1 / _NORM_SAFE the summed squares may underflow, and the norm
    # bounds nothing.
    if _any(norms < 1.0 / _NORM_SAFE):
        return False
    diagonal = np.einsum("...ii->...i", a)  # a writeable view
    diagonal -= (4.0 * d * d * _EPS * norms + c)[..., None]
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


class HermitianTensor(HermitianStack):
    """Even-order complex tensor with conjugate pairing symmetry.

    Entries satisfy ``entry(i, j) == conj(entry(j, i))`` for the two
    mixed-radix index groups, i.e. the square unfolding is a Hermitian
    matrix.  Construction accepts input within a relative Frobenius
    tolerance of Hermitian and symmetrizes it; anything farther raises
    :class:`HermiticityError`, and non-finite entries raise ``ValueError``.
    Results of the package's own calculus are exactly Hermitian by
    construction and skip the tolerance check (:meth:`HermitianStack._trusted`).
    Instances are immutable; the eigenvalues of the unfolding are computed
    once, on first use, and shared by every eigenvalue query, and the full
    eigendecomposition likewise by the spectral calculus.  The kernel
    protocol is the stack's: this class adds only public constructors,
    views, conveniences and serialization.
    """

    __slots__ = ()

    def __init__(self, entries, shape=None):
        arr, shape = _coerce_entries(entries, None if shape is None else _as_shape(shape))
        d = shape.square_dim
        self._seal(_validated(arr.reshape(d, d)), shape)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, shape) -> "HermitianTensor":
        """Fold a ``D x D`` Hermitian matrix into tensor form."""
        shape = _as_shape(shape)
        m = np.asarray(matrix, dtype=np.complex128)
        d = shape.square_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix has shape {m.shape}, expected ({d}, {d})")
        return cls(m.reshape(shape.dims + shape.dims), shape)

    @classmethod
    def identity(cls, shape) -> "HermitianTensor":
        shape = _as_shape(shape)
        return cls._trusted(np.eye(shape.square_dim, dtype=np.complex128), shape)

    @classmethod
    def zero(cls, shape) -> "HermitianTensor":
        shape = _as_shape(shape)
        d = shape.square_dim
        return cls._trusted(np.zeros((d, d), dtype=np.complex128), shape)

    @classmethod
    def diag(cls, values, shape) -> "HermitianTensor":
        """Tensor whose unfolding is ``diag(values)`` (values must be real)."""
        shape = _as_shape(shape)
        vals = np.asarray(values)
        if vals.dtype.kind not in "biuf":
            raise ValueError(f"diagonal values must be real numbers, got dtype {vals.dtype}")
        vals = vals.astype(np.float64)
        if vals.shape != (shape.square_dim,):
            raise ValueError("need one diagonal value per unfolding index")
        return cls._trusted(np.diag(vals).astype(np.complex128), shape)

    # -- views ---------------------------------------------------------

    @property
    def shape(self) -> TensorShape:
        return self._shape

    @property
    def entries(self) -> np.ndarray:
        """Entries as a read-only array of shape ``dims + dims``."""
        return self._matrix.reshape(self._shape.dims + self._shape.dims)

    # -- spectral conveniences -------------------------------------------

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues of the unfolding, descending.  They agree with
        ``spectral_decompose(self).eigenvalues`` to rounding, not bit for
        bit (``eigvalsh`` against ``eigh``)."""
        return self._eigenvalues()[::-1].copy()

    def lambda_min(self) -> float:
        return float(self._eigenvalues()[0])

    def lambda_max(self) -> float:
        return float(self._eigenvalues()[-1])

    def trace(self) -> float:
        return float(np.trace(self._matrix).real)

    def spectral_scale(self) -> float:
        """max(|lambda|), i.e. the spectral norm."""
        return float(_spectral_scale(self))

    def is_pd(self, tol: float = PSD_RTOL) -> bool:
        """Whether ``lambda_min > tol * max(1, |self|_sp)``: a relative test
        for users.  No package code decides with it; the gates
        ``_gate_pd`` and ``_gate_psd`` do."""
        return self.lambda_min() > tol * max(1.0, self.spectral_scale())

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return tensor_to_json_dict(self.entries, self._shape.dims)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "HermitianTensor":
        dims, arr = tensor_from_json_dict(payload)
        return cls(arr, TensorShape(dims))

    def __repr__(self) -> str:
        return f"HermitianTensor(dims={self._shape.dims})"

    def allclose(self, other: "HermitianTensor", atol: float = 0.0, rtol: float = 1e-12) -> bool:
        self._check_same_shape(other)
        return bool(np.allclose(self._matrix, other._matrix, atol=atol, rtol=rtol))


# ---------------------------------------------------------------------------
# unfolding / Einstein product
# ---------------------------------------------------------------------------


def unfold(t: HermitianTensor) -> np.ndarray:
    """Square unfolding: row index encodes ``(i_1..i_N)``, column ``(j_1..j_N)``.

    The returned ``D x D`` matrix is a read-only view; ``fold`` inverts it
    bit-exactly.
    """
    return t.unfold()


def fold(matrix, shape) -> HermitianTensor:
    """Inverse of :func:`unfold` for Hermitian matrices."""
    return HermitianTensor.from_matrix(matrix, shape)


def _coerce_entries(a, shape: TensorShape | None):
    if isinstance(a, HermitianTensor):
        a, shape = a.entries, a.shape if shape is None else shape
    arr = np.asarray(a, dtype=np.complex128)
    if shape is None:
        if arr.ndim % 2 != 0 or arr.ndim == 0:
            raise ValueError("cannot infer shape from entries of odd order")
        shape = TensorShape(arr.shape[: arr.ndim // 2])
    if arr.shape != shape.dims + shape.dims:
        raise ValueError(f"entries have shape {arr.shape}, expected {shape.dims + shape.dims}")
    return arr, shape


def einstein_product(a, b) -> np.ndarray:
    """Contraction ``(A * B)(i, j) = sum_k A(i, k) B(k, j)`` over index groups.

    Accepts :class:`HermitianTensor` or raw ``dims + dims`` arrays of equal
    shape and returns the raw entries array of the product.  The product of
    two Hermitian tensors is generally *not* Hermitian, so no symmetry is
    imposed on the result; wrap it in :class:`HermitianTensor` when symmetry
    is guaranteed by context.
    """
    a_arr, a_shape = _coerce_entries(a, None)
    b_arr, b_shape = _coerce_entries(b, None)
    if a_shape.dims != b_shape.dims:
        raise ValueError(f"shape mismatch: {a_shape.dims} vs {b_shape.dims}")
    d = a_shape.square_dim
    prod = a_arr.reshape(d, d) @ b_arr.reshape(d, d)
    return prod.reshape(a_shape.dims + a_shape.dims)


# ---------------------------------------------------------------------------
# spectral decomposition and function calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and a unitary eigenbasis of a Hermitian tensor.

    ``eigenvectors[:, k]`` is the unfolded eigenvector for ``eigenvalues[k]``;
    each column's phase is fixed by making its largest-magnitude component
    real positive, so the decomposition is deterministic.
    """

    shape: TensorShape
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def rank(self) -> int:
        """Number of eigenvalues with ``|lambda| > RANK_RTOL * max|lambda|``."""
        ev = np.abs(self.eigenvalues)
        if ev.size == 0 or ev.max() == 0.0:
            return 0
        return int(np.sum(ev > RANK_RTOL * ev.max()))

    def reconstruct(self) -> HermitianTensor:
        m = _spectral_map(self.eigenvectors, self.eigenvalues)
        return HermitianTensor.from_matrix(_symmetrize(m), self.shape)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real
    positive; zero columns stay as they are."""
    mags = np.abs(vectors)
    rows = np.argmax(mags, axis=0)
    cols = np.arange(vectors.shape[1])
    pivot, mag = vectors[rows, cols], mags[rows, cols]
    live = mag > 0.0
    phase = np.where(live, pivot.conjugate() / np.where(live, mag, 1.0), 1.0)
    return vectors * phase


def spectral_decompose(h: HermitianTensor) -> SpectralDecomposition:
    """Eigendecomposition of the unfolding, eigenvalues descending, with
    deterministic eigenvector phases (see :class:`SpectralDecomposition`).
    Values and vectors come from one ``eigh``; the values agree with
    :meth:`HermitianTensor.eigenvalues` to rounding, not bit for bit."""
    w, v = h._spectrum()
    w = w[::-1].copy()
    v = _fix_phases(v[:, ::-1])
    return SpectralDecomposition(h.shape, _read_only(w), _read_only(v))


def _spectral_map(v: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    """``v diag(mapped) v^H`` for every matrix of a stack (not symmetrized)."""
    return (v * mapped[..., None, :]) @ _ct(v)


def apply_spectral(h: HermitianStack, phi: Callable[[np.ndarray], np.ndarray]) -> HermitianStack:
    """Spectral function calculus: map eigenvalues through ``phi``.

    ``phi`` is elementwise on float64 arrays and maps the spectra of the
    whole stack in one call.  A non-finite ``phi(lambda)`` (NaN or inf,
    e.g. ``x**-0.5`` on a spectrum touching zero) raises ``ValueError``.

    The result ``V phi(w) V^H`` is born with the eigenpairs
    :func:`_composed` gives it from the ``eigh`` pairs ``(w, V)`` of ``h``.
    ``h`` is always decomposed, so the result's bits do not depend on which
    kernels ran before.
    """
    w, v = h._spectrum()
    with np.errstate(all="ignore"):
        mapped = phi(w)
    if not _all(np.isfinite(mapped)):
        bad = w[~np.isfinite(mapped)]
        raise ValueError(f"spectrum outside function domain at eigenvalues {bad}")
    matrix, values, vectors = _composed(mapped, v)
    return h._derive(matrix, values=values, vectors=vectors)


@_quiet
def _composed(w: np.ndarray, v: np.ndarray):
    """The one body of ``V diag(w) V^H`` for real spectra ``w`` and unitary
    ``v``: the symmetrized matrices, and their eigenpairs, ``w`` sorted
    ascending by a stable argsort (so decreasing and clipping maps keep
    ties in order) and v's columns permuted alike.  Where ``w`` is already
    ascending on every matrix (``exp``, positive powers), v itself is the
    vectors, not a copy."""
    matrix = _symmetrize(_spectral_map(v, w))
    if _all(w[..., 1:] >= w[..., :-1]):
        return matrix, w, v
    order = np.argsort(w, axis=-1, kind="stable")
    return matrix, np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[..., None, :], axis=-1)


def spectral_power(h: HermitianStack, p: float) -> HermitianStack:
    """``h**p`` through the spectral calculus.

    Integer powers take any spectrum.  A non-integer ``p`` needs a PSD one
    (:func:`_gate_psd`, whose admitted noise below 0 maps as 0).
    """
    return _power(h, p, "power input", psd=not float(p).is_integer())


def _power(h: HermitianStack, p: float, name: str, psd: bool) -> HermitianStack:
    """Body of :func:`spectral_power`; with ``psd`` the spectrum passes
    :func:`_gate_psd` under ``name`` first, on the decomposition the power
    reads (a power of 1 reads only the eigenvalues)."""
    if float(p) == 1.0:
        if psd:
            _gate_psd(h._eigenvalues(), name)
        return h
    if psd:
        return apply_spectral(h, lambda w: _gate_psd(w, name) ** p)
    return apply_spectral(h, lambda w: w**p)


def _gate(t: HermitianStack, name: str, psd: bool = False) -> None:
    """The gate of :func:`_gate_pd` (``0 < t``), or with ``psd`` of
    :func:`_gate_psd` (``-PSD_RTOL I <= t``), for a caller that reads no
    value of ``t``: cached values first, else :func:`_certified`, and the
    values' rule with its verdict and message when that fails."""
    if t._evals is None and _certified(-PSD_RTOL if psd else 0.0, t):
        return
    (_gate_psd if psd else _gate_pd)(t._eigenvalues(), name)


def _defer_gate(x: HermitianStack, name: str, yw: np.ndarray) -> bool:
    """Whether x's PD gate in a mean may wait for the congruence quotient
    of x by a y of ascending eigenvalues ``yw`` (:func:`_gate_by_quotient`).
    It may not when x's values are cached, which decide at once, or when y
    fails its own gate, so that where both fail the error names x; then x
    passes :func:`_gate` here."""
    if x._evals is None and not _any(yw[..., 0] <= 0.0):
        return True
    _gate(x, name)
    return False


def _gate_by_quotient(x: HermitianStack, name: str, yw: np.ndarray, c: np.ndarray):
    """The ``eigh`` ``(qw, qv)`` of the congruence quotient a mean has
    formed, ``c``, the computed ``C = S^H x S`` for ``S = V diag(yw)^(-1/2)``
    and the ``eigh`` pairs ``(yw, V)`` of a PD y, after x's PD gate of
    :func:`_gate`; an ``eigh`` that raises does so after that gate, as it
    would without the quotient.  x passes with no decomposition of its own
    when ``c`` is finite and, for every matrix,

        qw_0 yw_0 > max(4 D**2 eps qw_max (yw_0 + yw_max), 2**-500),

    that is ``qw_0 > 4 D**2 eps max|qw| (1 + k)`` for ``k = yw_max / yw_0``
    (a positive ``qw_0`` makes ``qw_max`` the largest ``|qw|``), with
    ``|x|_2 >= qw_0 yw_0`` at least ``1 / _NORM_SAFE``, so that no product
    forming ``c`` underflowed to significance; otherwise :func:`_gate`
    decides, as it does alone.

    A pass implies the eigenvalue rule ``eigvalsh(x)_0 > 0``.  S is
    nonsingular, so C has x's inertia (Sylvester), ``lambda_min(x) >=
    lambda_min(C) yw_0`` (Ostrowski) and ``|x|_2 <= |C|_2 yw_max``.
    Allow each of three computations a normwise backward error of
    ``D**2 eps`` of its matrix, the allowance :func:`_certified` takes
    (LAPACK Users' Guide, 3rd ed., Sec. 4.7; Higham, 2nd ed., Sec. 3.5):
    forming C, ``D**2 eps |x|_2 / yw_0 <= D**2 eps k |C|_2``; C's
    ``eigh``, ``D**2 eps |C|_2``; and the ``eigvalsh`` of x the rule
    reads, ``D**2 eps |x|_2``.  By Weyl, ``lambda_min(C) >= qw_0 - D**2
    eps (1 + k) |C|_2``, and the rule holds once ``lambda_min(C) yw_0 >
    D**2 eps |C|_2 yw_max``, that is once ``qw_0 > D**2 eps (1 + 2k)
    |C|_2``.  A pass bounds ``D**2 eps (1 + k)`` by 1/4, so ``|C|_2 <=
    4/3 max|qw|``, and ``4 (1 + k) > 4/3 (1 + 2k)``.  Called under
    :func:`_quiet`: a NaN, or a margin that overflows, passes nothing.
    """
    try:
        qw, qv = np.linalg.eigh(c)
    except np.linalg.LinAlgError:
        _gate(x, name)
        raise
    d, low = c.shape[-1], yw[..., 0]
    margin = np.maximum(4.0 * d * d * _EPS * qw[..., -1] * (low + yw[..., -1]), 1.0 / _NORM_SAFE)
    if not (_all(qw[..., 0] * low > margin) and _all(np.isfinite(c))):
        _gate(x, name)
    return qw, qv


def _gate_pd(ev: np.ndarray, name: str) -> np.ndarray:
    """Gate for PD spectra: the ascending ``ev``, all strictly positive,
    else :class:`NotPositiveDefiniteError` naming the first failing matrix
    of a stack.  A kernel that reads an operand's eigenvectors passes the
    eigenvalues of the same ``eigh``."""
    lam_min = ev[..., 0]
    bad = lam_min <= 0.0
    if _any(bad):
        raise NotPositiveDefiniteError(f"{name} must be PD, lambda_min = {lam_min[_first(bad)]:.3e}")
    return ev


def _gate_psd(ev: np.ndarray, name: str) -> np.ndarray:
    """Gate for PSD spectra: none of the ascending ``ev`` below ``-PSD_RTOL
    * max(1, max |ev|)``, else :class:`NotPositiveSemidefiniteError`.
    Returns the spectra it admits with the admitted noise below 0 set to 0."""
    lam_min = ev[..., 0]
    bad = lam_min < -PSD_RTOL * np.maximum(np.maximum(1.0, np.abs(lam_min)), np.abs(ev[..., -1]))
    if _any(bad):
        raise NotPositiveSemidefiniteError(f"{name} must be PSD, lambda_min = {lam_min[_first(bad)]:.3e}")
    return np.maximum(ev, 0.0)


# ---------------------------------------------------------------------------
# Loewner comparison
# ---------------------------------------------------------------------------


class Relation(enum.Enum):
    LEQ = "LEQ"
    GEQ = "GEQ"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order comparison of X against Y.

    ``lam_min``/``lam_max`` are the extreme eigenvalues of ``Y - X``;
    ``witness`` is the decisive one (the eigenvalue closest to breaking the
    verdict, or the most violating one when INCOMPARABLE).
    """

    relation: Relation
    witness: float
    lam_min: float
    lam_max: float

    @property
    def is_leq(self) -> bool:
        return self.relation in (Relation.LEQ, Relation.EQ)

    @property
    def is_geq(self) -> bool:
        return self.relation in (Relation.GEQ, Relation.EQ)


@_quiet
def loewner_extremes(x: HermitianStack, y: HermitianStack, tol: float = PSD_RTOL):
    """Loewner kernel: ``(lam_min, lam_max, leq, geq)`` per matrix pair.

    ``lam_min``/``lam_max`` are the extreme eigenvalues of ``y - x``
    (:func:`_loewner_gap`); ``leq`` is ``lam_min >= -tol * scale`` and
    ``geq`` is ``lam_max <= tol * scale`` for ``scale = max(|x|_sp, |y|_sp,
    1)`` from the sides' eigenvalues, which are read only for a pair that
    the two ends of the :func:`_scale_bracket` decide differently.  Either
    side may be a single tensor broadcast against a stack.
    """
    lam_min, lam_max = _loewner_gap(y, x)
    lo, hi = (np.maximum(np.maximum(sx, sy), 1.0) for sx, sy in zip(_scale_bracket(x), _scale_bracket(y)))
    leq, geq = lam_min >= -tol * lo, lam_max <= tol * lo
    if _any((leq != (lam_min >= -tol * hi)) | (geq != (lam_max <= tol * hi))):
        scale = np.maximum(np.maximum(_spectral_scale(x), _spectral_scale(y)), 1.0)
        leq, geq = lam_min >= -tol * scale, lam_max <= tol * scale
    return lam_min, lam_max, leq, geq


@_quiet
def _loewner_gap(lhs, rhs):
    """The one Loewner body: the extreme eigenvalues ``(lam_min, lam_max)``
    of ``lhs - rhs`` per matrix, by one ``eigvalsh`` of the difference of
    two stacks.  Either side may be per-matrix numbers ``c`` standing for
    ``c I``; then they come from the other side's eigenvalues."""
    if isinstance(lhs, HermitianStack) and isinstance(rhs, HermitianStack):
        rhs._check_same_shape(lhs)
        ev = lhs._derive(lhs._matrix - rhs._matrix)._eigenvalues()
        return ev[..., 0], ev[..., -1]
    a, b = (s._eigenvalues() if isinstance(s, HermitianStack) else np.asarray(s)[..., None] for s in (lhs, rhs))
    return a[..., 0] - b[..., -1], a[..., -1] - b[..., 0]


def loewner_compare(x: HermitianTensor, y: HermitianTensor, tol: float = PSD_RTOL) -> LoewnerVerdict:
    """Classify ``x`` against ``y`` in the Loewner order at relative tolerance.

    LEQ iff ``lambda_min(y - x) >= -tol * scale`` with
    ``scale = max(|x|_sp, |y|_sp, 1)``; GEQ symmetrically; EQ iff both;
    INCOMPARABLE otherwise.
    """
    lam_min, lam_max, leq, geq = loewner_extremes(x, y, tol)
    lam_min, lam_max = float(lam_min), float(lam_max)
    if leq and geq:
        rel = Relation.EQ
        witness = lam_max if abs(lam_max) >= abs(lam_min) else lam_min
    elif leq:
        rel, witness = Relation.LEQ, lam_min
    elif geq:
        rel, witness = Relation.GEQ, lam_max
    else:
        rel = Relation.INCOMPARABLE
        witness = lam_min if abs(lam_min) >= abs(lam_max) else lam_max
    return LoewnerVerdict(rel, witness, lam_min, lam_max)


# ---------------------------------------------------------------------------
# gauge norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeNormKind:
    """Symmetric gauge applied to the absolute spectrum ``|lambda|(H)``."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("spectral", "frobenius", "trace", "kyfan"):
            raise ValueError(f"unknown gauge norm kind {self.kind!r}")
        if self.kind == "kyfan":
            object.__setattr__(self, "k", _integer("Ky Fan k", self.k, low=1))
        elif self.k is not None:
            raise ValueError(f"{self.kind} norm takes no k parameter")

    def __str__(self) -> str:
        return f"kyfan:{self.k}" if self.kind == "kyfan" else self.kind

    @classmethod
    def parse(cls, spec: str) -> "GaugeNormKind":
        parts = spec.split(":")
        if parts[0] == "kyfan":
            if len(parts) != 2:
                raise ValueError(f"malformed Ky Fan norm id {spec!r}")
            return cls("kyfan", int(parts[1]))
        if len(parts) != 1:
            raise ValueError(f"malformed norm id {spec!r}")
        return cls(parts[0])


SPECTRAL = GaugeNormKind("spectral")
FROBENIUS = GaugeNormKind("frobenius")
TRACE = GaugeNormKind("trace")


def ky_fan(k: int) -> GaugeNormKind:
    return GaugeNormKind("kyfan", k)


@_quiet
def gauge_norm(h: HermitianStack, kind: GaugeNormKind = FROBENIUS):
    """Unitarily invariant norm ``rho(|lambda|(h))`` of each Hermitian
    matrix: a float for a tensor, an array over a stack.  The Frobenius
    norm is read from the entries; the others from the cached eigenvalues."""
    if kind.kind == "frobenius":
        return _per_item(_frobenius(h._matrix))
    if kind.kind == "spectral":
        return _per_item(_scale_of(h._eigenvalues()))
    ev = np.sort(np.abs(h._eigenvalues()), axis=-1)[..., ::-1]
    if kind.kind == "trace":
        out = np.sum(ev, axis=-1)
    elif kind.k > ev.shape[-1]:
        raise ValueError(f"Ky Fan k={kind.k} exceeds unfolding dimension {ev.shape[-1]}")
    else:
        out = np.sum(ev[..., : kind.k], axis=-1)
    return _per_item(out)


# ---------------------------------------------------------------------------
# range projector
# ---------------------------------------------------------------------------


def range_projector(h: HermitianTensor) -> HermitianTensor:
    """Orthogonal projector onto the range of a PSD tensor.

    Eigenvalues are kept iff ``lambda > RANK_RTOL * lambda_max``; the result
    is idempotent and commutes with ``h`` by construction.
    """
    w, v = h._spectrum()
    _gate_psd(w, "range projector input")
    u = v[:, _live(w)]
    return h._derive(_symmetrize(u @ _ct(u)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def tensor_to_json_dict(entries, dims) -> dict:
    """JSON payload ``{"dims", "re", "im"}`` with row-major entry order."""
    arr, shape = _coerce_entries(entries, _as_shape(dims))
    flat = arr.reshape(-1)
    return {
        "dims": list(shape.dims),
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def tensor_from_json_dict(payload: dict) -> tuple[tuple[int, ...], np.ndarray]:
    """Dims and entries of a :func:`tensor_to_json_dict` payload: an object
    with ``dims``, checked by :class:`TensorShape`, and ``re`` and ``im``,
    one JSON number (an int or a float, not a bool) per entry.  Anything
    else raises ``ValueError``: numpy's dtype inference would read a string
    or a bool as a number."""
    if not isinstance(payload, dict) or not {"dims", "re", "im"} <= payload.keys():
        raise ValueError("a tensor payload is an object with the keys 'dims', 're' and 'im'")
    dims = TensorShape(payload["dims"]).dims
    n = math.prod(dims) ** 2
    parts = [payload[k] for k in ("re", "im")]
    if not all(isinstance(p, list) and len(p) == n for p in parts):
        raise ValueError(f"expected {n} entries for dims {dims}")
    bad = [v for p in parts for v in p if isinstance(v, bool) or not isinstance(v, (int, float))]
    if bad:
        raise ValueError(f"entries must be JSON numbers, got {bad[0]!r}")
    try:
        re, im = (np.asarray(p, dtype=np.float64) for p in parts)
    except OverflowError as exc:  # an integer past double range
        raise ValueError("entries must be finite") from exc
    return dims, (re + 1j * im).reshape(dims + dims)


def save_tensor(t: HermitianTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(t.to_json_dict(), fh)


def load_tensor(path) -> HermitianTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return HermitianTensor.from_json_dict(json.load(fh))
