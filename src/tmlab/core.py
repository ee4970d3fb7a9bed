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
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    "require_psd",
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
# Default relative tolerance for PSD / Loewner-order decisions.
PSD_RTOL = 1e-8
# Default relative eigenvalue cutoff for rank decisions (projectors, eta).
RANK_RTOL = 1e-10


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


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.conj().T) / 2.0


class HermitianTensor:
    """Even-order complex tensor with conjugate pairing symmetry.

    Entries satisfy ``entry(i, j) == conj(entry(j, i))`` for the two
    mixed-radix index groups, i.e. the square unfolding is a Hermitian
    matrix.  Construction accepts input within a relative Frobenius
    tolerance of Hermitian and symmetrizes it; anything farther raises
    :class:`HermiticityError`, and non-finite entries raise ``ValueError``.
    Instances are immutable; the eigendecomposition of the unfolding is
    computed once, on first use, and shared by every spectral query.
    """

    __slots__ = ("_shape", "_matrix", "_eig")

    def __init__(self, entries, shape=None):
        arr, shape = _coerce_entries(entries, None if shape is None else _as_shape(shape))
        d = shape.square_dim
        matrix = arr.reshape(d, d)
        scale = max(1.0, float(np.linalg.norm(matrix)))
        defect = float(np.linalg.norm(matrix - matrix.conj().T))
        # A non-finite entry makes the defect NaN or infinite; the negated
        # test rejects NaN, since every comparison with NaN is false.
        if not defect < math.inf:
            raise ValueError("entries must be finite")
        if defect > HERMITICITY_RTOL * scale:
            raise HermiticityError(
                f"entries deviate from conjugate symmetry by {defect:.3e} "
                f"(allowed {HERMITICITY_RTOL * scale:.3e})"
            )
        matrix = np.ascontiguousarray(_symmetrize(matrix))
        matrix.flags.writeable = False
        self._shape = shape
        self._matrix = matrix
        self._eig = None

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
        return cls.from_matrix(np.eye(shape.square_dim, dtype=np.complex128), shape)

    @classmethod
    def zero(cls, shape) -> "HermitianTensor":
        shape = _as_shape(shape)
        d = shape.square_dim
        return cls.from_matrix(np.zeros((d, d), dtype=np.complex128), shape)

    @classmethod
    def diag(cls, values, shape) -> "HermitianTensor":
        """Tensor whose unfolding is ``diag(values)`` (values must be real)."""
        shape = _as_shape(shape)
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (shape.square_dim,):
            raise ValueError("need one diagonal value per unfolding index")
        return cls.from_matrix(np.diag(vals).astype(np.complex128), shape)

    # -- views ---------------------------------------------------------

    @property
    def shape(self) -> TensorShape:
        return self._shape

    @property
    def entries(self) -> np.ndarray:
        """Entries as a read-only array of shape ``dims + dims``."""
        return self._matrix.reshape(self._shape.dims + self._shape.dims)

    def unfold(self) -> np.ndarray:
        """Read-only ``D x D`` Hermitian matrix-view."""
        return self._matrix

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "HermitianTensor") -> "HermitianTensor":
        self._check_same_shape(other)
        return HermitianTensor.from_matrix(self._matrix + other._matrix, self._shape)

    def __sub__(self, other: "HermitianTensor") -> "HermitianTensor":
        self._check_same_shape(other)
        return HermitianTensor.from_matrix(self._matrix - other._matrix, self._shape)

    def __mul__(self, scalar) -> "HermitianTensor":
        c = float(scalar)
        return HermitianTensor.from_matrix(self._matrix * c, self._shape)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "HermitianTensor":
        return self * (1.0 / float(scalar))

    def __neg__(self) -> "HermitianTensor":
        return self * (-1.0)

    def _check_same_shape(self, other: "HermitianTensor") -> None:
        if not isinstance(other, HermitianTensor):
            raise TypeError(f"expected HermitianTensor, got {type(other).__name__}")
        if other._shape.dims != self._shape.dims:
            raise ValueError(f"shape mismatch: {self._shape.dims} vs {other._shape.dims}")

    # -- spectral conveniences -------------------------------------------

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues and eigenvectors of the unfolding.

        One ``eigh`` call, made on first use and cached: the only write into
        an instance, and an idempotent one.  Eigenvector phases are those
        LAPACK returns; :func:`spectral_decompose` fixes them.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self._matrix)
            w.flags.writeable = False
            v.flags.writeable = False
            self._eig = (w, v)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues of the unfolding, descending."""
        return self._spectrum()[0][::-1].copy()

    def lambda_min(self) -> float:
        return float(self._spectrum()[0][0])

    def lambda_max(self) -> float:
        return float(self._spectrum()[0][-1])

    def trace(self) -> float:
        return float(np.trace(self._matrix).real)

    def spectral_scale(self) -> float:
        """max(|lambda|), i.e. the spectral norm."""
        ev = self._spectrum()[0]
        return float(max(abs(ev[0]), abs(ev[-1])))

    def is_pd(self, tol: float = PSD_RTOL) -> bool:
        return self.lambda_min() > tol * max(1.0, self.spectral_scale())

    def is_psd(self, tol: float = PSD_RTOL) -> bool:
        return self.lambda_min() >= -tol * max(1.0, self.spectral_scale())

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
    rank_rtol: float = RANK_RTOL

    @property
    def rank(self) -> int:
        """Number of eigenvalues with ``|lambda| > rank_rtol * max|lambda|``."""
        ev = np.abs(self.eigenvalues)
        if ev.size == 0 or ev.max() == 0.0:
            return 0
        return int(np.sum(ev > self.rank_rtol * ev.max()))

    def reconstruct(self) -> HermitianTensor:
        u = self.eigenvectors
        m = (u * self.eigenvalues) @ u.conj().T
        return HermitianTensor.from_matrix(_symmetrize(m), self.shape)

    def eigenbasis_entries(self) -> np.ndarray:
        """Eigenbasis as a raw ``dims + dims`` unitary tensor."""
        return self.eigenvectors.reshape(self.shape.dims + self.shape.dims)


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


def spectral_decompose(h: HermitianTensor, rank_rtol: float = RANK_RTOL) -> SpectralDecomposition:
    """Eigendecomposition of the unfolding, eigenvalues descending, with
    deterministic eigenvector phases (see :class:`SpectralDecomposition`)."""
    w, v = h._spectrum()
    w = w[::-1].copy()
    v = _fix_phases(v[:, ::-1])
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(h.shape, w, v, rank_rtol)


def apply_spectral(
    h: HermitianTensor,
    phi: Callable[[np.ndarray], np.ndarray],
    domain_check: bool = True,
) -> HermitianTensor:
    """Spectral function calculus: map eigenvalues through ``phi``.

    ``phi`` is elementwise on float64 arrays and maps the whole spectrum in
    one call.  With ``domain_check`` set, a non-finite ``phi(lambda)``
    (NaN or inf, e.g. ``x**-0.5`` on a spectrum touching zero) raises
    ``ValueError``.
    """
    w, v = h._spectrum()
    with np.errstate(all="ignore"):
        mapped = phi(w)
    if domain_check and not np.all(np.isfinite(mapped)):
        bad = w[~np.isfinite(mapped)]
        raise ValueError(f"spectrum outside function domain at eigenvalues {bad}")
    m = (v * mapped) @ v.conj().T
    return HermitianTensor.from_matrix(_symmetrize(m), h.shape)


def spectral_power(h: HermitianTensor, p: float, psd_clip: bool = True) -> HermitianTensor:
    """``h**p`` through the spectral calculus.

    For non-integer ``p`` the spectrum must be nonnegative; with ``psd_clip``
    small negative eigenvalues (construction noise on PSD tensors) are
    clamped to zero first, which requires ``p > 0``.
    """
    if float(p) == 1.0:
        return h
    if psd_clip and p > 0 and float(p) != int(p):
        return apply_spectral(h, lambda x: np.maximum(x, 0.0) ** p)
    return apply_spectral(h, lambda x: x**p)


def require_pd(t: HermitianTensor, name: str) -> np.ndarray:
    """Gate for positive definite inputs: the cached ascending eigenvalues
    of ``t``, all strictly positive, else :class:`NotPositiveDefiniteError`."""
    ev = t._spectrum()[0]
    lam_min = float(ev[0])
    if lam_min <= 0.0:
        raise NotPositiveDefiniteError(f"{name} must be PD, lambda_min = {lam_min:.3e}")
    return ev


def require_psd(t: HermitianTensor, name: str) -> np.ndarray:
    """Gate for positive semidefinite inputs: the cached ascending
    eigenvalues of ``t``, none below ``-PSD_RTOL * max(1, |t|_sp)``, else
    :class:`NotPositiveSemidefiniteError`."""
    ev = t._spectrum()[0]
    lam_min = float(ev[0])
    if lam_min < -PSD_RTOL * max(1.0, abs(lam_min), abs(float(ev[-1]))):
        raise NotPositiveSemidefiniteError(f"{name} must be PSD, lambda_min = {lam_min:.3e}")
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


def loewner_compare(x: HermitianTensor, y: HermitianTensor, tol: float = PSD_RTOL) -> LoewnerVerdict:
    """Classify ``x`` against ``y`` in the Loewner order at relative tolerance.

    LEQ iff ``lambda_min(y - x) >= -tol * scale`` with
    ``scale = max(|x|_sp, |y|_sp, 1)``; GEQ symmetrically; EQ iff both;
    INCOMPARABLE otherwise.
    """
    x._check_same_shape(y)
    scale = max(x.spectral_scale(), y.spectral_scale(), 1.0)
    ev = np.linalg.eigvalsh(y.unfold() - x.unfold())
    lam_min, lam_max = float(ev[0]), float(ev[-1])
    slack = tol * scale
    leq = lam_min >= -slack
    geq = lam_max <= slack
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


def gauge_norm(h: HermitianTensor, kind: GaugeNormKind = FROBENIUS) -> float:
    """Unitarily invariant norm ``rho(|lambda|(h))`` of a Hermitian tensor."""
    ev = np.sort(np.abs(h._spectrum()[0]))[::-1]
    if kind.kind == "spectral":
        return float(ev[0])
    if kind.kind == "frobenius":
        return float(np.sqrt(np.sum(ev**2)))
    if kind.kind == "trace":
        return float(np.sum(ev))
    if kind.k > ev.size:
        raise ValueError(f"Ky Fan k={kind.k} exceeds unfolding dimension {ev.size}")
    return float(np.sum(ev[: kind.k]))


# ---------------------------------------------------------------------------
# range projector
# ---------------------------------------------------------------------------


def range_projector(h: HermitianTensor, rank_rtol: float = RANK_RTOL) -> HermitianTensor:
    """Orthogonal projector onto the range of a PSD tensor.

    Eigenvalues are kept iff ``lambda > rank_rtol * lambda_max``; the result
    is idempotent and commutes with ``h`` by construction.
    """
    w = require_psd(h, "range projector input")
    keep = w > rank_rtol * max(float(w[-1]), 0.0)
    u = h._spectrum()[1][:, keep]
    return HermitianTensor.from_matrix(u @ u.conj().T, h.shape)


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
