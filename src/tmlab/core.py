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
from dataclasses import dataclass, field
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


# The least positive double: a double x is positive iff x >= _TINY.
_TINY = math.nextafter(0.0, 1.0)


def _number(name: str, value, integral: bool = False, low: float = -math.inf, high: float = math.inf):
    """The one rule of a numeric argument, in the library and the config:
    an integer when ``integral`` (numpy integers too), else a real; never a
    bool; finite as a double and inside ``[low, high]`` (``low=_TINY``
    reads ``> 0``).  Returns it as an int or a float, else raises
    ``ValueError`` naming ``name``."""
    if not isinstance(value, numbers.Integral if integral else numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a real number'}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past double range
        x = math.nan
    if not (math.isfinite(x) and low <= x <= high):
        if low == -math.inf:  # no caller bounds a value from above only
            span = ""
        elif high == math.inf:
            span = "> 0" if low == _TINY else f">= {low}"
        else:
            span = f"in {'(0' if low == _TINY else f'[{low}'}, {high}]"
        if not (integral and math.isfinite(x)):
            span = " and ".join(filter(None, ("finite as a double" if integral else "finite", span)))
        raise ValueError(f"{name} must be {span}, got {value!r}")
    return int(value) if integral else x


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
    halved, plus its :func:`_adjoint`.  Halving first keeps every finite
    entry finite; away from subnormals it gives the bits of
    ``(matrix + _ct(matrix)) / 2.0``."""
    matrix *= 0.5
    matrix += _adjoint(matrix)
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
    """Run a kernel with numpy's overflow, invalid-value and divide-by-zero
    warnings off (underflow is off by default): the package's one ``np.errstate``.

    Its matrix outputs pass the finiteness gate of ``_form``, so an
    overflow raises ``ValueError("entries must be finite")`` there instead
    of warning first.  Only the outermost ``_quiet`` kernel of a call enters
    the state (``_QUIET`` records it per thread and task); the kernels and
    helpers it reaches, such as :func:`_frobenius`, run in it and set none.
    """

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    first use.  A stack born with both values and vectors may be born with
    a recipe in place of its matrices (``V diag(w) V^H``, ``V C V^H``,
    ``y + eps I``): :attr:`_matrix` runs it on first read, so a kernel
    that reads only the eigenpairs never forms the matrices.
    """

    __slots__ = ("_formed", "_recipe", "_shape", "_evals", "_eig", "_factor")
    # numpy defers to the reflected operators: array * stack scales per matrix.
    __array_ufunc__ = None

    @staticmethod
    def _trusted(matrix, shape: TensorShape | None = None, **known) -> "HermitianStack":
        """The one constructor of kernel results: wrap a fresh stack that is
        exactly Hermitian by construction, of tensor ``shape``, born with
        ``known`` (:meth:`_seal`, which checks finiteness only).  A single
        matrix of known shape is a :class:`HermitianTensor`; a recipe's
        matrices have the shape of the ``vectors`` known with it."""
        single = (known["vectors"] if callable(matrix) else matrix).ndim == 2
        s = object.__new__(HermitianTensor if single and shape is not None else HermitianStack)
        s._seal(matrix, shape, **known)
        return s

    @staticmethod
    def from_matrices(matrices, shape: TensorShape | None = None) -> "HermitianStack":
        """Validated stack of raw ``(..., D, D)`` matrices: the check of
        public tensor construction, applied to every matrix at once."""
        return HermitianStack._trusted(_validated(np.asarray(matrices, dtype=np.complex128)), shape)

    def _seal(self, matrix, shape, values=None, vectors=None, factor=None) -> None:
        """The step every construction ends in: the matrices (:meth:`_form`),
        their tensor ``shape``, and what their maker knows of their
        spectrum: the ascending ``values``, with them their ``vectors``, or
        a graded factor ``G = grade diag(s)^(1/2)`` of ``matrix = W G G^H
        W^H`` for a unitary ``W``, as its parts ``factor = (grade, s, W)``;
        ``G`` is formed only by the first spectrum read.

        With both ``values`` and ``vectors``, ``matrix`` may be a recipe: a
        function of no arguments that forms the matrices, kept for the
        first read of :attr:`_matrix`.  Every entry of such a matrix is at
        most a small multiple of its spectral scale, so a recipe whose
        values reach ``_NORM_SAFE`` (or are not finite) runs at birth, and
        a matrix past the double range raises here as an eager one does."""
        self._shape = shape
        self._evals = None if values is None else _read_only(values)
        self._eig = None if vectors is None else (self._evals, _read_only(vectors))
        self._factor = factor
        self._formed = None
        if callable(matrix) and _all(_scale_of(self._evals) < _NORM_SAFE):
            self._recipe = matrix
        else:
            self._form(matrix() if callable(matrix) else matrix)

    def _form(self, matrix: np.ndarray) -> None:
        """The one store of a stack's matrices, at birth or on the first
        read of a recipe's, and their one finiteness check: read-only and
        contiguous.  The recipe is dropped."""
        _check_finite(matrix)
        self._formed = _read_only(np.ascontiguousarray(matrix))
        self._recipe = None

    @property
    def _matrix(self) -> np.ndarray:
        """The ``(..., D, D)`` matrices, formed on first read by the recipe
        the stack was born with, under :func:`_quiet`.  Read before the
        test, the recipe is there whenever the matrices are not, since
        :meth:`_form` stores them before it drops it: threads that read at
        once form the same bits, and none finds neither."""
        recipe = self._recipe
        if self._formed is None:
            self._form(_quiet(recipe)())
        return self._formed

    @property
    def _matrix_shape(self) -> tuple[int, ...]:
        """Shape ``(..., D, D)`` of the matrices, read without forming them:
        a recipe's are those of the vectors the stack was born with."""
        return (self._eig[1] if self._formed is None else self._formed).shape

    def _derive(self, matrix, **known) -> "HermitianStack":
        """A kernel result of ``self``'s tensor shape, born with ``known``:
        its matrices, or their recipe (:meth:`_seal`)."""
        return HermitianStack._trusted(matrix, self._shape, **known)

    def _decomposed(self) -> "HermitianStack":
        """The same matrices re-born with their one ``eigh`` pair in both
        caches, so that a values read costs no second decomposition.  A
        mean born with a graded factor is returned itself, its eigenpairs
        read: its values keep their one source, the factor's SVD."""
        w, v = self._spectrum()
        return self if self._factor is not None else self._derive(self._matrix, values=w, vectors=v)

    @_quiet
    def _scaled(self, c) -> "HermitianStack":
        """``c`` times each matrix, for per-matrix numbers ``c >= 0``, which
        keep the values ascending: born with ``c`` times the values of one
        values read of ``self``, and no eigenvectors."""
        c = np.asarray(c, dtype=np.float64)
        return self._derive(self._matrix * c[..., None, None], values=self._eigenvalues() * c[..., None])

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
            self._evals = _read_only(np.linalg.svd(self._graded(), compute_uv=False)[..., ::-1] ** 2)
        elif self._evals is None:
            self._evals = _read_only(np.linalg.eigvalsh(self._matrix))
        return self._evals

    def _graded(self) -> np.ndarray:
        """The graded factor ``G`` of a mean born with its parts, columns
        largest first, as a pivoted QR takes them (Demmel et al., LAA 299,
        1999)."""
        grade, s, _ = self._factor
        factor = grade * np.sqrt(s)[..., None, :]
        order = np.argsort(-np.abs(factor).max(axis=-2), axis=-1)
        return np.take_along_axis(factor, order[..., None, :], axis=-1)

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues and eigenvectors of every matrix,
        for the kernels that read eigenvectors.

        One ``eigh`` call over the stack, made on first use unless passed at
        birth; for a mean born with a graded factor ``G`` of ``W G G^H
        W^H``, one SVD ``G = U S V^H`` with vectors instead, giving ``S**2``
        and ``W U``.  The two caches are the only writes into an instance
        after its birth, and idempotent ones.  Eigenvector phases are those
        LAPACK returns; :func:`spectral_decompose` fixes them.
        """
        if self._eig is None and self._factor is not None:
            u, sigma, _ = np.linalg.svd(self._graded())
            self._eig = (_read_only(sigma[..., ::-1] ** 2), _read_only(self._factor[2] @ u[..., ::-1]))
        elif self._eig is None:
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
        if other._matrix_shape[-1] != self._matrix_shape[-1]:
            raise ValueError(f"size mismatch: {self._matrix_shape} vs {other._matrix_shape}")

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
def _certified(lhs, rhs) -> bool:
    """The one Cholesky certificate: whether one stacked factorization of
    ``A - delta I``, for the computed ``A = rhs - lhs`` and
    ``delta = 4 D**2 eps (|lhs|_F + |rhs|_F)``, proves ``lhs <= rhs`` for
    every matrix (``lhs`` may be numbers ``c`` standing for ``c I``, and
    ``rhs`` a bare array of exactly symmetric matrices).
    ``delta`` exceeds the backward error of a factorization that completes,
    about ``D (D + 1) / 2 * eps |A|_2`` (Higham, 2nd ed., Thm 10.3; Rump,
    BIT 46, 2006), plus that of ``eigvalsh``.  A ``LinAlgError``, raised
    for the whole stack, certifies nothing: the caller's rule decides.  Nor
    does a factor that is not finite: near the double range a pivot can
    overflow, and LAPACK then returns NaN in place of raising."""
    m = rhs._matrix if isinstance(rhs, HermitianStack) else rhs
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
        """Tensor whose unfolding is ``diag(values)`` (values must be real
        numbers; bools are refused, as :func:`_number` refuses them)."""
        shape = _as_shape(shape)
        vals = np.asarray(values)
        if vals.dtype.kind not in "iuf":
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
        ``_gate_pd`` and ``_gate_psd`` do.  ``tol`` passes :func:`_number`
        at ``>= 0``."""
        tol = _number("tol", tol, low=0)
        return self.lambda_min() > tol * max(1.0, self.spectral_scale())

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON payload ``{"dims", "re", "im"}`` with row-major entry order."""
        flat = self._matrix.reshape(-1)
        return {"dims": list(self._shape.dims), "re": flat.real.tolist(), "im": flat.imag.tolist()}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "HermitianTensor":
        """The tensor of a :meth:`to_json_dict` payload: an object with
        ``dims``, checked by :class:`TensorShape`, and ``re`` and ``im``,
        one JSON number (an int or a float, not a bool) per entry.  Anything
        else raises ``ValueError``: numpy's dtype inference would read a
        string or a bool as a number."""
        if not isinstance(payload, dict) or not {"dims", "re", "im"} <= payload.keys():
            raise ValueError("a tensor payload is an object with the keys 'dims', 're' and 'im'")
        shape = TensorShape(payload["dims"])
        n = shape.square_dim**2
        parts = [payload[k] for k in ("re", "im")]
        if not all(isinstance(p, list) and len(p) == n for p in parts):
            raise ValueError(f"expected {n} entries for dims {shape.dims}")
        bad = [v for p in parts for v in p if isinstance(v, bool) or not isinstance(v, (int, float))]
        if bad:
            raise ValueError(f"entries must be JSON numbers, got {bad[0]!r}")
        try:
            re, im = (np.asarray(p, dtype=np.float64) for p in parts)
        except OverflowError as exc:  # an integer past double range
            raise ValueError("entries must be finite") from exc
        return cls((re + 1j * im).reshape(shape.dims + shape.dims), shape)

    def __repr__(self) -> str:
        return f"HermitianTensor(dims={self._shape.dims})"


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


@_quiet
def apply_spectral(h: HermitianStack, phi: Callable[[np.ndarray], np.ndarray]) -> HermitianStack:
    """Spectral function calculus: map eigenvalues through ``phi``.

    ``phi`` is elementwise on float64 arrays and maps the spectra of the
    whole stack in one call.  A non-finite ``phi(lambda)`` (NaN or inf,
    e.g. ``x**-0.5`` on a spectrum touching zero) raises ``ValueError``.

    The result ``V phi(w) V^H`` is born with the eigenpairs
    :func:`_ascending` gives it from the ``eigh`` pairs ``(w, V)`` of ``h``,
    and forms its matrix by :func:`_composed` on first read.  ``h`` is
    always decomposed, so the result's bits do not depend on which kernels
    ran before.
    """
    w, v = h._spectrum()
    mapped = phi(w)
    if not _all(np.isfinite(mapped)):
        bad = w[~np.isfinite(mapped)]
        raise ValueError(f"spectrum outside function domain at eigenvalues {bad}")
    values, vectors = _ascending(mapped, v)
    return h._derive(lambda: _composed(mapped, v), values=values, vectors=vectors)


@_quiet
def _composed(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The one body of ``V diag(w) V^H`` for real spectra ``w`` and unitary
    ``v``: the symmetrized matrices."""
    return _symmetrize(_spectral_map(v, w))


def _ascending(w: np.ndarray, v: np.ndarray):
    """The eigenpairs of :func:`_composed`'s matrices: ``w`` sorted
    ascending by a stable argsort (so decreasing and clipping maps keep
    ties in order) and v's columns permuted alike.  Where ``w`` is already
    ascending on every matrix (``exp``, positive powers), they are ``w``
    and ``v`` themselves, not copies."""
    if _all(w[..., 1:] >= w[..., :-1]):
        return w, v
    order = np.argsort(w, axis=-1, kind="stable")
    return np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[..., None, :], axis=-1)


def spectral_power(h: HermitianStack, p: float) -> HermitianStack:
    """``h**p``: for an integer ``p`` in ``[2, 2**53]`` a product of
    repeated squarings, born with no spectrum, else through the spectral
    calculus.

    Integer powers take any spectrum.  A non-integer ``p`` needs a PSD one
    (:func:`_gate_psd`, whose admitted noise below 0 maps as 0).  A power
    past the double range raises ``ValueError``, and so does a ``p`` that
    fails :func:`_number`.
    """
    p = _number("p", p)
    return _power(h, p, "power input", psd=not p.is_integer())


def _power(h: HermitianStack, n: float, name: str, psd: bool) -> HermitianStack:
    """Body of :func:`spectral_power` for a float ``n`` that passed
    :func:`_number`; with ``psd`` the spectrum passes
    :func:`_gate_psd` under ``name`` first.  A power of 1 reads only the
    eigenvalues.  An integer ``n >= 2`` passes :func:`_gate`; up to
    ``2**53`` it is :func:`_squarings` of the matrix, and reads no
    spectrum.  Past ``2**53`` every double is an even integer and binary
    powering makes one product per bit, so the eigenpairs are mapped (one
    ``eigh``).  Any other ``n`` maps the eigenpairs, gated on the
    decomposition the power reads."""
    if n == 1.0:
        if psd:
            _gate_psd(h._eigenvalues(), name)
        return h
    if n.is_integer() and n >= 2.0:
        if psd:
            _gate(h, name, psd=True)
        try:
            if n > 2.0**53:
                return apply_spectral(h, lambda w: w**n)
            return h._derive(_squarings(h._matrix, int(n)))
        except ValueError as exc:  # _form's finiteness check, or an infinite w**n
            raise ValueError(f"{name} ** {n:g} leaves the double range") from exc
    if psd:
        return apply_spectral(h, lambda w: _gate_psd(w, name) ** n)
    return apply_spectral(h, lambda w: w**n)


@_quiet
def _squarings(a: np.ndarray, n: int) -> np.ndarray:
    """``a**n`` of a Hermitian stack for an integer ``n >= 2`` by binary
    powering (Higham, *Functions of Matrices*, SIAM 2008, Alg. 4.1): one
    squaring per bit of ``n`` below the top, and one product per further
    set bit, each through :func:`_symmetrize`.  Powers of one matrix
    commute, so every product is Hermitian up to rounding."""
    while not n & 1:
        a, n = _symmetrize(a @ a), n >> 1
    result = a
    while n := n >> 1:
        a = _symmetrize(a @ a)
        if n & 1:
            result = _symmetrize(result @ a)
    return result


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
    :func:`_gate`.  ``c`` is finite: the caller has refused a quotient past
    the double range, after that gate.  x passes with no decomposition of
    its own when, for every matrix,

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
    qw, qv = np.linalg.eigh(c)
    d, low = c.shape[-1], yw[..., 0]
    margin = np.maximum(4.0 * d * d * _EPS * qw[..., -1] * (low + yw[..., -1]), 1.0 / _NORM_SAFE)
    if not _all(qw[..., 0] * low > margin):
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
    side may be a single tensor broadcast against a stack.  ``tol`` passes
    :func:`_number` at ``>= 0``: a NaN would refuse every order, an ``inf``
    grant both, and a negative one would turn every test around.
    """
    tol = _number("tol", tol, low=0)
    lam_min, lam_max = _loewner_gap(y, x)
    lo, hi = (_pair_scale(sx, sy) for sx, sy in zip(_scale_bracket(x), _scale_bracket(y)))
    leq, geq = lam_min >= -tol * lo, lam_max <= tol * lo
    if _any((leq != (lam_min >= -tol * hi)) | (geq != (lam_max <= tol * hi))):
        scale = _pair_scale(_spectral_scale(x), _spectral_scale(y))
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


def _pair_scale(a, b) -> np.ndarray:
    """The one relative scale of a Loewner comparison: ``max(a, b, 1)`` per
    matrix, for the sides' spectral scales ``a`` and ``b``."""
    return np.maximum(np.maximum(a, b), 1.0)


def _excess(lhs, rhs) -> np.ndarray:
    """The one Loewner rule of the suites: the relative excess of ``lhs``
    over ``rhs``, ``lambda_max(lhs - rhs) / max(|lhs|_sp, |rhs|_sp, 1)`` per
    matrix, read from :func:`_loewner_gap` as :func:`loewner_compare` reads
    it; ``lhs <= rhs`` fails when it is above the tolerance.  Either side
    may be a stack or per-matrix numbers ``c`` standing for ``c I``.

    A stack against a stack is first offered to :func:`_certified`: when
    it certifies every matrix, every excess is ``<= 0`` and the rule
    returns the floor 0 of ``max_violation`` without reading a spectrum.
    """
    if isinstance(lhs, HermitianStack) and isinstance(rhs, HermitianStack) and _certified(lhs, rhs):
        return np.zeros(lhs.unfold().shape[:-2])
    _, top = _loewner_gap(lhs, rhs)
    return top / _pair_scale(_spectral_scale(lhs), _spectral_scale(rhs))


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
    """A unitarily invariant norm, a symmetric gauge of the absolute
    spectrum ``|lambda|(H)``: ``fn`` maps a stack to the norm of each
    matrix.  Two norms with the same ``label`` are equal."""

    label: str
    fn: Callable = field(compare=False, repr=False)

    def __str__(self) -> str:
        return self.label


def _largest_sum(h: HermitianStack, k: int | None = None) -> np.ndarray:
    """Sum of the ``k`` largest ``|lambda|`` of every matrix (all of them
    for ``k=None``), from the cached eigenvalues."""
    ev = np.sort(np.abs(h._eigenvalues()), axis=-1)[..., ::-1]
    if k is not None and k > ev.shape[-1]:
        raise ValueError(f"Ky Fan k={k} exceeds unfolding dimension {ev.shape[-1]}")
    return np.sum(ev[..., :k], axis=-1)


SPECTRAL = GaugeNormKind("spectral", lambda h: _scale_of(h._eigenvalues()))
FROBENIUS = GaugeNormKind("frobenius", lambda h: _frobenius(h._matrix))
TRACE = GaugeNormKind("trace", _largest_sum)


def ky_fan(k: int) -> GaugeNormKind:
    """The Ky Fan ``k``-norm, the sum of the ``k`` largest ``|lambda|``,
    for an integer ``k >= 1``."""
    k = _number("Ky Fan k", k, integral=True, low=1)
    return GaugeNormKind(f"kyfan:{k}", functools.partial(_largest_sum, k=k))


@_quiet
def gauge_norm(h: HermitianStack, kind: GaugeNormKind = FROBENIUS):
    """Unitarily invariant norm ``rho(|lambda|(h))`` of each Hermitian
    matrix: a float for a tensor, an array over a stack.  The Frobenius
    norm is read from the entries; the others from the cached eigenvalues."""
    return _per_item(kind.fn(h))


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


def save_tensor(t: HermitianTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(t.to_json_dict(), fh)


def load_tensor(path) -> HermitianTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return HermitianTensor.from_json_dict(json.load(fh))
