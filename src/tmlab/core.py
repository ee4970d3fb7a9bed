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

import enum
import functools
import json
import math
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
    "require_pd",
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
# Entries up to _NORM_SAFE keep the squares summed by the Hermiticity check
# below 2**1002, so its norms cannot overflow for D up to 2048.  Larger
# entries are scaled by the exact power of two _NORM_UNIT first, which maps
# every finite double below 2**424.
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
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("dims must be nonempty")
        if any(d < 1 for d in dims):
            raise ValueError(f"all mode sizes must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def order(self) -> int:
        """Number of modes N in one index group."""
        return len(self.dims)

    @property
    def square_dim(self) -> int:
        """Side length D of the square unfolding."""
        return math.prod(self.dims)


def _as_shape(shape) -> TensorShape:
    if isinstance(shape, TensorShape):
        return shape
    if isinstance(shape, int):
        return TensorShape((shape,))
    return TensorShape(tuple(shape))


def _ct(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes of a ``(..., D, D)`` stack."""
    return matrix.conj().swapaxes(-1, -2)


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + _ct(matrix)) / 2.0


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, frozen in place: cached spectra and stored matrices are shared."""
    a.flags.writeable = False
    return a


def _check_finite(matrix: np.ndarray) -> None:
    if not np.isfinite(matrix).all():
        raise ValueError("entries must be finite")


def _quiet(fn):
    """Run a kernel with numpy's overflow and invalid-value warnings off.

    Its matrix outputs pass the finiteness gate of ``_derive``, so an
    overflow raises ``ValueError("entries must be finite")`` there instead
    of warning first.
    """

    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return run


def _any(mask) -> bool:
    """Whether a boolean array has a true entry; a single numpy bool is
    read directly (no reduction on the batch-of-one path)."""
    return bool(mask.any()) if np.ndim(mask) else bool(mask)


def _first(mask: np.ndarray):
    """Index of the first true entry of a boolean array (C order)."""
    return np.unravel_index(int(np.argmax(mask)), mask.shape)


def _root_sum_squares(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt((matrix.conj() * matrix).real.sum(axis=(-2, -1)))


def _frobenius(matrix: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a ``(..., D, D)`` stack.  A sum of
    squares that overflows is summed again over the entries scaled by the
    exact power of two ``_NORM_UNIT``, so a finite sum keeps its bits and a
    norm past the double range is ``inf``."""
    with np.errstate(over="ignore"):
        norm = _root_sum_squares(matrix)
        overflow = norm == np.inf
        if _any(overflow):
            norm = np.where(overflow, _root_sum_squares(matrix * _NORM_UNIT) / _NORM_UNIT, norm)
    return norm


def _validated(matrix: np.ndarray) -> np.ndarray:
    """Body of public construction over a ``(..., D, D)`` stack.

    Entries must be finite, and each matrix must lie within a relative
    Frobenius distance ``HERMITICITY_RTOL`` of Hermitian; the Hermitian
    part is returned.  Matrices with entries above ``_NORM_SAFE`` are
    checked scaled by the exact power of two ``_NORM_UNIT`` (the floor 1 of
    the scale is scaled alike, so the decision is the unscaled one).
    """
    _check_finite(matrix)
    big = np.abs(matrix).max(axis=(-2, -1)) > _NORM_SAFE
    scaled = _any(big)
    unit = np.where(big, _NORM_UNIT, 1.0) if scaled else 1.0
    if scaled:
        matrix = matrix * unit[..., None, None]
    adjoint = _ct(matrix)
    scale = np.maximum(unit, _root_sum_squares(matrix))
    defect = _root_sum_squares(matrix - adjoint)
    bad = defect > HERMITICITY_RTOL * scale
    if _any(bad):
        i = _first(bad)
        unit = np.broadcast_to(unit, bad.shape)[i]
        raise HermiticityError(
            f"entries deviate from conjugate symmetry by {defect[i] / unit:.3e} "
            f"(allowed {HERMITICITY_RTOL * scale[i] / unit:.3e})"
        )
    matrix = (matrix + adjoint) / 2.0
    return matrix * (1.0 / unit)[..., None, None] if scaled else matrix


class HermitianStack:
    """Stack of exactly Hermitian ``D x D`` matrices, shape ``(..., D, D)``.

    The operand of the numerical kernels (the spectral calculus, the means,
    ``eta``, the bound factors, the Loewner extremes): each kernel maps the
    whole stack in one call per LAPACK routine or ufunc, and per-matrix
    scalars come back as arrays over the leading axes.
    :class:`HermitianTensor` is the batch of one, a single ``D x D`` matrix
    with its tensor shape, so each operation has one body.  Stacks are
    immutable and keep two spectral caches: one stacked read of the values
    (:meth:`_eigenvalues`) serves every eigenvalue read, and one stacked
    ``eigh`` (:meth:`_spectrum`) serves the kernels that read eigenvectors.
    A kernel that knows a spectrum passes it at birth (:meth:`_seal`,
    through :meth:`_trusted` or :meth:`_derive`): ascending ``values``,
    their ``vectors``, or a graded ``factor`` ``G`` whose ``sigma(G)**2``
    are the values.  Otherwise each cache is filled on first use.
    """

    __slots__ = ("_matrix", "_evals", "_eig", "_factor")
    # numpy defers to the reflected operators: array * stack scales per matrix.
    __array_ufunc__ = None

    @classmethod
    def _trusted(cls, matrix: np.ndarray, **known) -> "HermitianStack":
        """Wrap a fresh stack that is exactly Hermitian by construction,
        born with ``known`` (:meth:`_seal`); only finiteness is checked."""
        _check_finite(matrix)
        s = cls.__new__(cls)
        s._seal(matrix, **known)
        return s

    @staticmethod
    def from_matrices(matrices) -> "HermitianStack":
        """Validated stack of raw ``(..., D, D)`` matrices: the check of
        public tensor construction, applied to every matrix at once."""
        s = HermitianStack.__new__(HermitianStack)
        s._seal(_validated(np.asarray(matrices, dtype=np.complex128)))
        return s

    def _seal(self, matrix: np.ndarray, values=None, vectors=None, factor=None) -> None:
        """The step every construction ends in: read-only contiguous storage
        of a checked matrix, and what its maker knows of its spectrum: the
        ascending ``values``, with them their ``vectors``, or a graded
        ``factor`` ``G`` of ``matrix = W G G^H W^H`` for a unitary ``W``."""
        self._matrix = _read_only(np.ascontiguousarray(matrix))
        self._evals = None if values is None else _read_only(values)
        self._eig = None if vectors is None else (self._evals, _read_only(vectors))
        self._factor = factor

    def _derive(self, matrix: np.ndarray, **known) -> "HermitianStack":
        """A kernel result of the same kind as ``self``, born with ``known``."""
        return HermitianStack._trusted(matrix, **known)

    def _decomposed(self) -> "HermitianStack":
        """The same matrices re-born with their one ``eigh`` pair in both
        caches, so that a values read costs no second decomposition."""
        w, v = self._spectrum()
        return self._derive(self._matrix, values=w, vectors=v)

    def _member(self, i: int, shape: "TensorShape") -> "HermitianTensor":
        """Matrix ``i`` as a tensor of ``shape``, born with its slice of the
        eigenpairs the stack holds."""
        known = {} if self._eig is None else {"values": self._eig[0][i], "vectors": self._eig[1][i]}
        return HermitianTensor._trusted(self._matrix[i], shape, **known)

    def unfold(self) -> np.ndarray:
        """Read-only ``(..., D, D)`` Hermitian matrices."""
        return self._matrix

    def _eigenvalues(self) -> np.ndarray:
        """Read-only ascending eigenvalues of every matrix, made on first
        use and cached: one stacked ``eigvalsh``, or for a mean born with a
        graded factor ``G``, ``sigma(G)**2`` by one stacked SVD, which keeps
        the relative accuracy that ``eigvalsh`` loses past condition ``1/eps``.

        Every eigenvalue read goes through here, never through a cached
        :meth:`_spectrum`, so its bits do not depend on which kernels ran
        before.  They agree with the eigenvalues of :meth:`_spectrum` to
        rounding, not bit for bit, unless both were passed at birth.
        """
        if self._evals is None and self._factor is not None:
            # Largest columns first, as a pivoted QR takes them (Demmel et al., LAA 299, 1999).
            order = np.argsort(-np.abs(self._factor).max(axis=-2), axis=-1)
            graded = np.take_along_axis(self._factor, order[..., None, :], axis=-1)
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
        if not isinstance(other, HermitianStack):
            raise TypeError(f"expected HermitianStack, got {type(other).__name__}")
        if other._matrix.shape[-1] != self._matrix.shape[-1]:
            raise ValueError(f"size mismatch: {self._matrix.shape} vs {other._matrix.shape}")

    def _coefficient(self, scalar):
        """Per-matrix real coefficients, broadcast over the matrix axes."""
        return np.asarray(scalar, dtype=np.float64)[..., None, None]

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
        return self._derive(self._matrix * self._coefficient(scalar))

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
    for the whole stack, certifies nothing: the caller's rule decides."""
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
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class HermitianTensor(HermitianStack):
    """Even-order complex tensor with conjugate pairing symmetry.

    Entries satisfy ``entry(i, j) == conj(entry(j, i))`` for the two
    mixed-radix index groups, i.e. the square unfolding is a Hermitian
    matrix.  Construction accepts input within a relative Frobenius
    tolerance of Hermitian and symmetrizes it; anything farther raises
    :class:`HermiticityError`, and non-finite entries raise ``ValueError``.
    Results of the package's own calculus are exactly Hermitian by
    construction and skip the tolerance check (:meth:`_trusted`).
    Instances are immutable; the eigenvalues of the unfolding are computed
    once, on first use, and shared by every eigenvalue query, and the full
    eigendecomposition likewise by the spectral calculus.
    """

    __slots__ = ("_shape",)

    def __init__(self, entries, shape=None):
        arr, shape = _coerce_entries(entries, None if shape is None else _as_shape(shape))
        d = shape.square_dim
        self._shape = shape
        self._seal(_validated(arr.reshape(d, d)))

    @classmethod
    def _trusted(cls, matrix: np.ndarray, shape: TensorShape, **known) -> "HermitianTensor":
        """Wrap a fresh ``D x D`` matrix that is exactly Hermitian by
        construction (a symmetrized result, or a sum or real multiple of
        such tensors): only finiteness is checked, and the matrix is frozen
        in place.  Public input goes through ``__init__`` instead."""
        t = super()._trusted(matrix, **known)
        t._shape = shape
        return t

    def _derive(self, matrix: np.ndarray, **known) -> "HermitianTensor":
        return HermitianTensor._trusted(matrix, self._shape, **known)

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
        vals = np.asarray(values, dtype=np.float64)
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

    # -- algebra --------------------------------------------------------

    def _coefficient(self, scalar) -> float:
        return float(scalar)

    def _check_same_shape(self, other: "HermitianTensor") -> None:
        if not isinstance(other, HermitianTensor):
            raise TypeError(f"expected HermitianTensor, got {type(other).__name__}")
        if other._shape.dims != self._shape.dims:
            raise ValueError(f"shape mismatch: {self._shape.dims} vs {other._shape.dims}")

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
    if not np.all(np.isfinite(mapped)):
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
    if np.all(w[..., 1:] >= w[..., :-1]):
        return matrix, w, v
    order = np.argsort(w, axis=-1, kind="stable")
    return matrix, np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[..., None, :], axis=-1)


def spectral_power(h: HermitianStack, p: float, psd_clip: bool = True) -> HermitianStack:
    """``h**p`` through the spectral calculus.

    For non-integer ``p`` the spectrum must be nonnegative; with ``psd_clip``
    small negative eigenvalues (construction noise on PSD tensors) are
    clamped to zero first, which requires ``p > 0``.
    """
    if float(p) == 1.0:
        return h
    if psd_clip and p > 0 and not float(p).is_integer():
        return apply_spectral(h, lambda x: np.maximum(x, 0.0) ** p)
    return apply_spectral(h, lambda x: x**p)


def require_pd(t: HermitianStack, name: str) -> np.ndarray:
    """Gate for positive definite inputs: the cached ascending eigenvalues
    of ``t``, all strictly positive, else :class:`NotPositiveDefiniteError`
    (naming the first failing matrix of a stack)."""
    return _gate_pd(t._eigenvalues(), name)


def _gate(t: HermitianStack, name: str, psd: bool = False) -> None:
    """The gate of :func:`require_pd` (``0 < t``), or with ``psd`` of
    :func:`_gate_psd` (``-PSD_RTOL I <= t``), for a caller that reads no
    value of ``t``: cached values first, else :func:`_certified`, and the
    values' rule with its verdict and message when that fails."""
    if t._evals is None and _certified(-PSD_RTOL if psd else 0.0, t):
        return
    (_gate_psd if psd else _gate_pd)(t._eigenvalues(), name)


def _gate_pd(ev: np.ndarray, name: str) -> np.ndarray:
    """:func:`require_pd` on ascending spectra ``ev``; a kernel that reads
    an operand's eigenvectors passes the eigenvalues of the same ``eigh``."""
    lam_min = ev[..., 0]
    bad = lam_min <= 0.0
    if _any(bad):
        raise NotPositiveDefiniteError(f"{name} must be PD, lambda_min = {lam_min[_first(bad)]:.3e}")
    return ev


def _gate_psd(ev: np.ndarray, name: str) -> np.ndarray:
    """Gate for PSD spectra: the ascending ``ev``, none below ``-PSD_RTOL *
    max(1, max |ev|)``, else :class:`NotPositiveSemidefiniteError`."""
    lam_min = ev[..., 0]
    bad = lam_min < -PSD_RTOL * np.maximum(np.maximum(1.0, np.abs(lam_min)), np.abs(ev[..., -1]))
    if _any(bad):
        raise NotPositiveSemidefiniteError(f"{name} must be PSD, lambda_min = {lam_min[_first(bad)]:.3e}")
    return ev


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


def loewner_extremes(x: HermitianStack, y: HermitianStack, tol: float = PSD_RTOL):
    """Loewner kernel: ``(lam_min, lam_max, leq, geq)`` per matrix pair.

    ``lam_min``/``lam_max`` are the extreme eigenvalues of ``y - x``
    (:func:`_loewner_gap`); ``leq`` is ``lam_min >= -tol * scale`` and
    ``geq`` is ``lam_max <= tol * scale`` for ``scale = max(|x|_sp, |y|_sp,
    1)`` from the sides' eigenvalues, which are read only for a pair that
    the two ends of the :func:`_scale_bracket` decide differently.  ``y``
    may be a single tensor broadcast against a stack ``x``.
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
        ev = HermitianStack._trusted(lhs._matrix - rhs._matrix)._eigenvalues()
        return ev[..., 0], ev[..., -1]
    a, b = (s._eigenvalues() if isinstance(s, HermitianStack) else np.asarray(s)[..., None] for s in (lhs, rhs))
    return a[..., 0] - b[..., -1], a[..., -1] - b[..., 0]


def loewner_compare(x: HermitianTensor, y: HermitianTensor, tol: float = PSD_RTOL) -> LoewnerVerdict:
    """Classify ``x`` against ``y`` in the Loewner order at relative tolerance.

    LEQ iff ``lambda_min(y - x) >= -tol * scale`` with
    ``scale = max(|x|_sp, |y|_sp, 1)``; GEQ symmetrically; EQ iff both;
    INCOMPARABLE otherwise.
    """
    return _verdict(*loewner_extremes(x, y, tol))


def _verdict(lam_min, lam_max, leq, geq) -> LoewnerVerdict:
    """The verdict of one pair from its :func:`loewner_extremes`."""
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
            if self.k is None or int(self.k) < 1:
                raise ValueError("Ky Fan norm needs k >= 1")
            object.__setattr__(self, "k", int(self.k))
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


def gauge_norm(h: HermitianStack, kind: GaugeNormKind = FROBENIUS):
    """Unitarily invariant norm ``rho(|lambda|(h))`` of each Hermitian
    matrix: a float for a tensor, an array over a stack.  The Frobenius
    norm is read from the entries; the others from the cached eigenvalues."""
    if kind.kind == "frobenius":
        return _per_item(_frobenius(h._matrix))
    ev = np.sort(np.abs(h._eigenvalues()), axis=-1)[..., ::-1]
    if kind.kind == "spectral":
        out = ev[..., 0]
    elif kind.kind == "trace":
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
    arr, shape = _coerce_entries(entries, TensorShape(tuple(dims)))
    flat = arr.reshape(-1)
    return {
        "dims": list(shape.dims),
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def tensor_from_json_dict(payload: dict) -> tuple[tuple[int, ...], np.ndarray]:
    dims = tuple(int(d) for d in payload["dims"])
    n = math.prod(dims) ** 2
    re = np.asarray(payload["re"], dtype=np.float64)
    im = np.asarray(payload["im"], dtype=np.float64)
    if re.shape != (n,) or im.shape != (n,):
        raise ValueError(f"expected {n} entries for dims {dims}")
    return dims, (re + 1j * im).reshape(dims + dims)


def save_tensor(t: HermitianTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(t.to_json_dict(), fh)


def load_tensor(path) -> HermitianTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return HermitianTensor.from_json_dict(json.load(fh))
