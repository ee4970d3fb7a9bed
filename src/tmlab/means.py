"""Bivariate tensor means, their recursion, and the PSD extension.

The mean of two positive definite tensors under a connection function ``g``
conjugates the spectral evaluation of ``g`` by the second argument:

    mean(x, y, g) = y^{1/2} * g(y^{-1/2} * x * y^{-1/2}) * y^{1/2}

(all products Einstein products, all functions spectral).  For positive
semidefinite arguments dominated as ``x <= c y`` the congruence quotient is
replaced by the range-compatible solution ``eta(x, y)`` of
``x = y^{1/2} * eta * y^{1/2}``, and the mean extends continuously whenever
``g`` has a finite limit at 0+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FROBENIUS,
    GaugeNormKind,
    HermitianTensor,
    RANK_RTOL,
    _symmetrize,
    gauge_norm,
    require_pd,
    require_psd,
)
from .functions import ConnectionFunction, power_lift

__all__ = [
    "DominationError",
    "UnsupportedFunctionError",
    "EtaResult",
    "RttDiagnostic",
    "mean_pd",
    "mean_recursive",
    "eta",
    "mean_psd",
    "epsilon_mean_limit",
]


class DominationError(ValueError):
    """The pair is not dominated: range(x) is not contained in range(y)."""


class UnsupportedFunctionError(ValueError):
    """The connection function has no finite limit at 0+ (PSD extension)."""


def _congruence_mean(x: HermitianTensor, y: HermitianTensor, g: ConnectionFunction) -> HermitianTensor:
    """``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` for a PD ``y`` (gated here),
    ``g`` extended at 0+.  Shared by :func:`mean_pd`, :func:`mean_recursive`
    and the right-slot limit of :func:`epsilon_mean_limit`, whose first slot
    is only PSD."""
    root = np.sqrt(require_pd(y, "y"))
    u = y._spectrum()[1]
    y_half = (u * root) @ u.conj().T
    y_ihalf = (u / root) @ u.conj().T
    quotient = _symmetrize(y_ihalf @ x.unfold() @ y_ihalf)
    qw, qv = np.linalg.eigh(quotient)
    mapped = g.eval_extended(qw)
    if not np.all(np.isfinite(mapped)):
        bad = qw[~np.isfinite(mapped)]
        raise ValueError(f"{g.label} not finite on quotient spectrum {bad}")
    core = (qv * mapped) @ qv.conj().T
    return HermitianTensor._trusted(_symmetrize(y_half @ core @ y_half), x.shape)


def mean_pd(x: HermitianTensor, y: HermitianTensor, g: ConnectionFunction) -> HermitianTensor:
    """Mean ``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` of PD tensors.

    Raises when an input is not numerically PD or when ``g`` is non-finite
    on the spectrum of the congruence quotient.
    """
    x._check_same_shape(y)
    require_pd(x, "x")
    return _congruence_mean(x, y, g)


def mean_recursive(
    x: HermitianTensor,
    y: HermitianTensor,
    f: ConnectionFunction,
    n: int,
) -> HermitianTensor:
    """Mean for the lifted generator ``x**n f(x)`` via the two-step recursion.

    Base cases ``n in {0, 1}`` evaluate directly; for ``n >= 2``

        mean(x, y, x**n f) = x * y^{-1} * mean(x, y, x**(n-2) f) * y^{-1} * x

    which agrees with the direct spectral evaluation of the lifted generator.
    """
    n = int(n)
    if n < 0:
        raise ValueError("lift exponent must be >= 0")
    x._check_same_shape(y)
    require_pd(x, "x")
    base = _congruence_mean(x, y, power_lift(f, n % 2))
    if n < 2:
        return base
    out = base.unfold()
    w, u = y._spectrum()
    wing = x.unfold() @ ((u / w) @ u.conj().T)
    for _ in range(n // 2):
        out = _symmetrize(wing @ out @ wing.conj().T)
    return HermitianTensor._trusted(out, x.shape)


@dataclass(frozen=True)
class EtaResult:
    """Range-compatible congruence quotient of a dominated PSD pair.

    ``eta`` solves ``x = y^{1/2} * eta * y^{1/2}`` and annihilates the
    orthogonal complement of range(y); ``domination_constant`` is the least
    ``c`` with ``x <= c y``.
    """

    eta: HermitianTensor
    domination_constant: float
    range_ok: bool


def eta(
    x: HermitianTensor,
    y: HermitianTensor,
    rank_tol: float = RANK_RTOL,
    domination_rtol: float = 1e-6,
) -> EtaResult:
    """Solve ``x = y^{1/2} * eta * y^{1/2}`` on the range of ``y``.

    Computed through the spectral pseudo-inverse of ``y^{1/2}`` in the
    coordinates of range(y), which enforces the range compatibility
    exactly.  Raises :class:`DominationError` when range(x) leaks outside
    range(y) beyond ``domination_rtol`` relative to the scale of ``x``.
    """
    x._check_same_shape(y)
    x_ev = require_psd(x, "x")
    require_psd(y, "y")
    lam, v = y._spectrum()
    keep = lam > rank_tol * max(float(lam[-1]), 0.0)
    u_r = v[:, keep]
    lam_r = lam[keep]

    xm = x.unfold()
    x_scale = max(1.0, float(np.abs(x_ev).max()))
    # Range containment: the part of x living outside range(y) must vanish.
    u_c = v[:, ~keep]
    if u_c.shape[1] > 0:
        leak = float(np.linalg.norm(xm @ u_c))
        if leak > domination_rtol * x_scale:
            raise DominationError(
                f"range(x) not contained in range(y): leakage {leak:.3e} "
                f"(allowed {domination_rtol * x_scale:.3e})"
            )

    if u_r.shape[1] == 0:
        eta_t = HermitianTensor.zero(x.shape)
        return EtaResult(eta_t, 0.0, True)

    inv_root = 1.0 / np.sqrt(lam_r)
    compressed = _symmetrize((inv_root[:, None] * (u_r.conj().T @ xm @ u_r)) * inv_root[None, :])
    eta_m = u_r @ compressed @ u_r.conj().T
    eta_t = HermitianTensor._trusted(_symmetrize(eta_m), x.shape)
    domination = float(np.linalg.eigvalsh(compressed)[-1])
    residual = float(np.linalg.norm(eta_m @ u_c)) if u_c.shape[1] else 0.0
    return EtaResult(eta_t, max(domination, 0.0), residual <= 1e-12 * max(1.0, domination))


def mean_psd(
    x: HermitianTensor,
    y: HermitianTensor,
    g: ConnectionFunction,
    rank_tol: float = RANK_RTOL,
) -> HermitianTensor:
    """PSD-extended mean ``y^{1/2} g(eta(x, y)) y^{1/2}``.

    Requires ``x <= c y`` and a finite ``g(0+)``; eigenvalues of eta below
    the rank cutoff map through the 0+ limit rather than through ``g`` at a
    tiny argument.  Reduces to :func:`mean_pd` on PD inputs.
    """
    return _extended_mean(x, y, g, rank_tol)


def _extended_mean(
    x: HermitianTensor,
    y: HermitianTensor,
    g: ConnectionFunction,
    rank_tol: float = RANK_RTOL,
    quotient: EtaResult | None = None,
) -> HermitianTensor:
    """Body of :func:`mean_psd`; a caller holding ``eta(x, y, rank_tol)``
    passes it as ``quotient`` instead of having it computed again."""
    if g.value_at_0plus is None or not math.isfinite(g.value_at_0plus):
        raise UnsupportedFunctionError(f"{g.label} has no finite limit at 0+")
    x._check_same_shape(y)
    if y.spectral_scale() == 0.0:
        if x.spectral_scale() == 0.0:
            return HermitianTensor.zero(x.shape)
        raise DominationError("y = 0 dominates only x = 0")
    if quotient is None:
        quotient = eta(x, y, rank_tol)
    w, v = quotient.eta._spectrum()
    mapped = g.eval_extended(w, rank_tol * max(float(w[-1]), 0.0))
    core = (v * mapped) @ v.conj().T
    y_half = _psd_root(y, rank_tol)
    return HermitianTensor._trusted(_symmetrize(y_half @ core @ y_half), x.shape)


def _psd_root(y: HermitianTensor, rank_tol: float = RANK_RTOL) -> np.ndarray:
    """Rank-truncated square root of a PSD tensor as a raw matrix: negative
    noise and eigenvalues at or below ``rank_tol * lambda_max`` map to 0."""
    w, v = y._spectrum()
    lam = np.maximum(w, 0.0)
    lam[lam <= rank_tol * float(lam[-1])] = 0.0
    return (v * np.sqrt(lam)) @ v.conj().T


@dataclass(frozen=True)
class RttDiagnostic:
    """Convergence record for the regularized means along a shrinking grid.

    ``errors[i]`` is the gauge-norm distance of the regularized mean at
    ``epsilon_grid[i]`` from the PSD-extended limit; ``converged`` requires
    nonincreasing errors and a final relative error below the threshold.
    """

    epsilon_grid: tuple[float, ...]
    errors: tuple[float, ...]
    converged: bool

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_grid)
        if any(e <= 0 for e in eps):
            raise ValueError("epsilon grid must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon grid must be strictly decreasing")
        if len(self.errors) != len(eps):
            raise ValueError("errors and grid must align")
        object.__setattr__(self, "epsilon_grid", eps)
        object.__setattr__(self, "errors", tuple(float(e) for e in self.errors))


def epsilon_mean_limit(
    x: HermitianTensor,
    y: HermitianTensor,
    g: ConnectionFunction,
    eps_grid=(1e-2, 1e-4, 1e-6, 1e-8),
    norm: GaugeNormKind = FROBENIUS,
    mode: str = "joint",
    rel_threshold: float = 1e-3,
) -> tuple[HermitianTensor, RttDiagnostic]:
    """Regularized means along ``eps_grid`` against the PSD-extended limit.

    ``mode="joint"`` perturbs both slots (``(x + eps I) # (y + eps I)``);
    ``mode="right"`` perturbs only the second slot, covering perturbation
    sequences like ``I/n`` applied to ``y``.  Non-convergence is recorded in
    the diagnostic, never raised.
    """
    if mode not in ("joint", "right"):
        raise ValueError(f"unknown mode {mode!r}")
    # mean_psd gates x as PSD, which is all the right-slot mode needs of it.
    limit = mean_psd(x, y, g)
    ident = HermitianTensor.identity(x.shape)
    errors = []
    for eps in eps_grid:
        bump = float(eps) * ident
        if mode == "joint":
            approx = mean_pd(x + bump, y + bump, g)
        else:
            approx = _congruence_mean(x, y + bump, g)
        errors.append(gauge_norm(approx - limit, norm))
    scale = max(gauge_norm(limit, norm), 1e-300)
    nonincreasing = all(b <= a * (1.0 + 1e-9) + 1e-14 * scale for a, b in zip(errors, errors[1:]))
    converged = nonincreasing and errors[-1] <= rel_threshold * max(scale, 1.0)
    diag = RttDiagnostic(tuple(float(e) for e in eps_grid), tuple(errors), converged)
    return limit, diag

