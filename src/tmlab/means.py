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
    HermitianStack,
    HermitianTensor,
    RANK_RTOL,
    _any,
    _ct,
    _first,
    _frobenius,
    _per_item,
    _quiet,
    _spectral_map,
    _spectral_scale,
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


@_quiet
def _congruence_mean(x: HermitianStack, y: HermitianStack, g: ConnectionFunction) -> HermitianStack:
    """``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` for a PD ``y`` (gated here),
    ``g`` extended at 0+, over a stack: one ``eigh`` of the quotients.
    Shared by :func:`mean_pd`, :func:`mean_recursive` and the right-slot
    limit of :func:`epsilon_mean_limit`, whose first slot is only PSD."""
    root = np.sqrt(require_pd(y, "y"))
    u = y._spectrum()[1]
    y_half = _spectral_map(u, root)
    y_ihalf = (u / root[..., None, :]) @ _ct(u)
    quotient = _symmetrize(y_ihalf @ x._matrix @ y_ihalf)
    qw, qv = np.linalg.eigh(quotient)
    mapped = g.eval_extended(qw)
    if not np.all(np.isfinite(mapped)):
        bad = qw[~np.isfinite(mapped)]
        raise ValueError(f"{g.label} not finite on quotient spectrum {bad}")
    core = _spectral_map(qv, mapped)
    return x._derive(_symmetrize(y_half @ core @ y_half))


def mean_pd(x: HermitianStack, y: HermitianStack, g: ConnectionFunction) -> HermitianStack:
    """Mean ``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` of PD tensors, or of
    every pair of two stacks.

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
    wing = x.unfold() @ ((u / w) @ _ct(u))
    for _ in range(n // 2):
        out = _symmetrize(wing @ out @ _ct(wing))
    return x._derive(out)


@dataclass(frozen=True)
class EtaResult:
    """Range-compatible congruence quotient of a dominated PSD pair.

    ``eta`` solves ``x = y^{1/2} * eta * y^{1/2}`` and annihilates the
    orthogonal complement of range(y); ``domination_constant`` is the least
    ``c`` with ``x <= c y``.  Over stacks, ``eta`` is a stack and the two
    scalars are arrays.
    """

    eta: HermitianStack
    domination_constant: float
    range_ok: bool


@_quiet
def eta(x: HermitianStack, y: HermitianStack) -> EtaResult:
    """Solve ``x = y^{1/2} * eta * y^{1/2}`` on the range of ``y``.

    Computed through the spectral pseudo-inverse of ``y^{1/2}`` in the
    coordinates of range(y), which enforces the range compatibility
    exactly.  Raises :class:`DominationError` when range(x) leaks outside
    range(y) beyond a relative 1e-6 of the scale of ``x``.

    The kept eigenvalues ``lambda > RANK_RTOL * lambda_max`` of each ``y``
    are a suffix of its ascending spectrum, so a stack is solved in groups
    of equal kept count, one stacked product chain and one ``eigvalsh`` per
    group.
    """
    x._check_same_shape(y)
    x_ev = require_psd(x, "x")
    require_psd(y, "y")
    lam, v = y._spectrum()
    kept = (lam > RANK_RTOL * np.maximum(lam[..., -1:], 0.0)).sum(axis=-1)
    x_scale = np.maximum(1.0, np.abs(x_ev).max(axis=-1))
    lead, d = lam.shape[:-1], lam.shape[-1]
    xm, lam, v = x._matrix.reshape(-1, d, d), lam.reshape(-1, d), v.reshape(-1, d, d)
    kept, x_scale = kept.reshape(-1), x_scale.reshape(-1)
    eta_m = np.empty_like(v)
    domination = np.empty(len(kept))
    range_ok = np.empty(len(kept), dtype=bool)
    for k in sorted(set(kept.tolist())):
        group = kept == k
        eta_m[group], domination[group], range_ok[group] = _eta_solve(
            xm[group], lam[group], v[group], x_scale[group], k
        )
    eta_m, domination, range_ok = eta_m.reshape(lead + (d, d)), domination.reshape(lead), range_ok.reshape(lead)
    return EtaResult(x._derive(_symmetrize(eta_m)), _per_item(domination), _per_item(range_ok))


def _eta_solve(xm, lam, v, x_scale, k):
    """:func:`eta` for a stack whose ``y`` all keep their top ``k``
    eigenvalues: the unsymmetrized quotients, the domination constants and
    the range flags."""
    d = lam.shape[-1]
    u_c = np.ascontiguousarray(v[..., : d - k])
    if k < d:
        # Range containment: the part of x living outside range(y) must vanish.
        leak = _frobenius(xm @ u_c)
        allowed = 1e-6 * x_scale
        if _any(leak > allowed):
            i = _first(leak > allowed)
            raise DominationError(
                f"range(x) not contained in range(y): leakage {leak[i]:.3e} "
                f"(allowed {allowed[i]:.3e})"
            )
    if k == 0:
        return np.zeros_like(xm), np.zeros(lam.shape[:-1]), np.ones(lam.shape[:-1], dtype=bool)
    u_r = np.ascontiguousarray(v[..., d - k :])
    inv_root = 1.0 / np.sqrt(lam[..., d - k :])
    compressed = _symmetrize((inv_root[..., :, None] * (_ct(u_r) @ xm @ u_r)) * inv_root[..., None, :])
    eta_m = u_r @ compressed @ _ct(u_r)
    domination = np.linalg.eigvalsh(compressed)[..., -1]
    range_ok = np.ones(lam.shape[:-1], dtype=bool)
    if k < d:
        range_ok = _frobenius(eta_m @ u_c) <= 1e-12 * np.maximum(1.0, domination)
    return eta_m, np.maximum(domination, 0.0), range_ok


def mean_psd(x: HermitianStack, y: HermitianStack, g: ConnectionFunction) -> HermitianStack:
    """PSD-extended mean ``y^{1/2} g(eta(x, y)) y^{1/2}``.

    Requires ``x <= c y`` and a finite ``g(0+)``; eigenvalues of eta below
    the rank cutoff map through the 0+ limit rather than through ``g`` at a
    tiny argument.  Reduces to :func:`mean_pd` on PD inputs.
    """
    return _extended_mean(x, y, g)


@_quiet
def _extended_mean(
    x: HermitianStack,
    y: HermitianStack,
    g: ConnectionFunction,
    quotient: EtaResult | None = None,
) -> HermitianStack:
    """Body of :func:`mean_psd`; a caller holding ``eta(x, y)`` passes it
    as ``quotient`` instead of having it computed again."""
    if g.value_at_0plus is None or not math.isfinite(g.value_at_0plus):
        raise UnsupportedFunctionError(f"{g.label} has no finite limit at 0+")
    x._check_same_shape(y)
    zero_y = _spectral_scale(y) == 0.0
    if _any(zero_y) and _any(zero_y & (_spectral_scale(x) != 0.0)):
        raise DominationError("y = 0 dominates only x = 0")
    if quotient is None:
        quotient = eta(x, y)
    w, v = quotient.eta._spectrum()
    mapped = g.eval_extended(w, RANK_RTOL * np.maximum(w[..., -1:], 0.0))
    core = _spectral_map(v, mapped)
    y_half = _psd_root(y)
    mean = _symmetrize(y_half @ core @ y_half)
    if _any(zero_y):
        mean = np.where(zero_y[..., None, None], 0.0, mean)
    return x._derive(mean)


def _psd_root(y: HermitianStack) -> np.ndarray:
    """Rank-truncated square roots of a PSD stack as raw matrices: negative
    noise and eigenvalues at or below ``RANK_RTOL * lambda_max`` map to 0."""
    w, v = y._spectrum()
    lam = np.maximum(w, 0.0)
    lam[lam <= RANK_RTOL * lam[..., -1:]] = 0.0
    return _spectral_map(v, np.sqrt(lam))


@dataclass(frozen=True)
class RttDiagnostic:
    """Convergence record for the regularized means along a shrinking grid.

    ``errors[i]`` is the gauge-norm distance of the regularized mean at
    ``epsilon_grid[i]`` from the PSD-extended limit; ``converged`` requires
    nonincreasing errors and a final relative error at most 1e-3.
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
) -> tuple[HermitianTensor, RttDiagnostic]:
    """Regularized means along ``eps_grid`` against the PSD-extended limit.

    ``mode="joint"`` perturbs both slots (``(x + eps I) # (y + eps I)``);
    ``mode="right"`` perturbs only the second slot, covering perturbation
    sequences like ``I/n`` applied to ``y``.  Non-convergence is recorded in
    the diagnostic, never raised.
    """
    limit, errors, converged = _epsilon_errors(x, y, g, eps_grid, norm, mode)
    diag = RttDiagnostic(tuple(float(e) for e in eps_grid), tuple(errors), bool(converged))
    return limit, diag


def _epsilon_errors(x, y, g, eps_grid, norm, mode="joint"):
    """Body of :func:`epsilon_mean_limit` over stacks: the limit, the
    per-matrix distances at each grid point, and the convergence flags."""
    if mode not in ("joint", "right"):
        raise ValueError(f"unknown mode {mode!r}")
    # mean_psd gates x as PSD, which is all the right-slot mode needs of it.
    limit = mean_psd(x, y, g)
    eye = np.eye(x._matrix.shape[-1], dtype=np.complex128)
    errors = []
    for eps in eps_grid:
        bump = x._derive(eye * float(eps))
        if mode == "joint":
            approx = mean_pd(x + bump, y + bump, g)
        else:
            approx = _congruence_mean(x, y + bump, g)
        errors.append(gauge_norm(approx - limit, norm))
    scale = np.maximum(gauge_norm(limit, norm), 1e-300)
    nonincreasing = np.logical_and.reduce(
        [b <= a * (1.0 + 1e-9) + 1e-14 * scale for a, b in zip(errors, errors[1:])] or [True]
    )
    converged = nonincreasing & (errors[-1] <= 1e-3 * np.maximum(scale, 1.0))
    return limit, errors, converged

