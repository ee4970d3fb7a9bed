"""Tensor exponential/logarithm and the product-formula limit for means.

For a differentiable normalized connection function the scaled means of two
tensor exponentials converge, as the scale parameter shrinks, to the
exponential of the derivative-weighted affine combination of the exponents:

    (exp(q x) # exp(q y))**(1/q)  ->  exp(g'(1) x + (1 - g'(1)) y).

This module evaluates the expression, its limit, convergence studies along a
shrinking grid, and the premise-guarded ordering between the log-affine
exponential and the q-th-root mean of lifted generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FROBENIUS,
    GaugeNormKind,
    HermitianStack,
    HermitianTensor,
    LoewnerVerdict,
    PSD_RTOL,
    apply_spectral,
    gauge_norm,
    loewner_compare,
    require_pd,
    spectral_power,
)
from .functions import ConnectionFunction, derivative_at_one, power_lift
from .means import mean_pd

__all__ = [
    "ConvergenceStudy",
    "tensor_exp",
    "tensor_log",
    "lt_expression",
    "lt_limit",
    "convergence_study",
    "lt_ordering_check",
    "PremiseError",
]


class PremiseError(ValueError):
    """The rescaled-mean premise of the ordering check does not hold."""


def tensor_exp(h: HermitianStack) -> HermitianStack:
    """Spectral exponential; always PD."""
    return apply_spectral(h, np.exp)


def tensor_log(p: HermitianStack) -> HermitianStack:
    """Spectral logarithm of a PD tensor."""
    require_pd(p, "log input")
    return apply_spectral(p, np.log)


def lt_expression(
    q: float,
    x: HermitianStack,
    y: HermitianStack,
    g: ConnectionFunction,
) -> HermitianStack:
    """``(exp(q x) # exp(q y))**(1/q)`` for ``q != 0``."""
    q = float(q)
    if q == 0.0:
        raise ValueError("q must be nonzero")
    m = mean_pd(tensor_exp(q * x), tensor_exp(q * y), g)
    return spectral_power(m, 1.0 / q, psd_clip=False)


def lt_limit(x: HermitianStack, y: HermitianStack, g: ConnectionFunction) -> HermitianStack:
    """Limit ``exp(w x + (1 - w) y)`` with weight ``w = g'(1)``.

    Requires ``g(1) = 1``.
    """
    if abs(g.value_at_1 - 1.0) > 1e-12:
        raise ValueError(f"{g.label} is not normalized: g(1) = {g.value_at_1!r}")
    w = derivative_at_one(g)
    return tensor_exp(w * x + (1.0 - w) * y)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Distances from the limit along a shrinking parameter grid.

    ``monotone`` allows 5% slack per halving plus an absolute floor at
    the deep-float level, so exactly-commuting pairs (distances at
    rounding noise) still register as monotone.
    """

    q_grid: tuple[float, ...]
    distances: tuple[float, ...]
    monotone: bool
    final_relative_error: float


def convergence_study(
    x: HermitianTensor,
    y: HermitianTensor,
    g: ConnectionFunction,
    q_grid=tuple(2.0**-k for k in range(1, 9)),
    norm: GaugeNormKind = FROBENIUS,
) -> ConvergenceStudy:
    """Distance of the product-formula expression from its limit per grid point."""
    q_grid = tuple(float(q) for q in q_grid)
    distances, monotone, final_rel = _study(x, y, g, q_grid, norm)
    return ConvergenceStudy(q_grid, tuple(distances), bool(monotone), final_rel)


def _study(x, y, g, q_grid, norm):
    """Body of :func:`convergence_study` over stacks: per grid point the
    per-pair distances, then the monotone flags and final relative errors."""
    if any(q <= 0 for q in q_grid) or any(b >= a for a, b in zip(q_grid, q_grid[1:])):
        raise ValueError("q grid must be positive and strictly descending")
    limit = lt_limit(x, y, g)
    scale = np.maximum(1.0, gauge_norm(limit, norm))
    distances = [gauge_norm(lt_expression(q, x, y, g) - limit, norm) for q in q_grid]
    floor = 1e-12 * scale
    monotone = np.logical_and.reduce(
        [b <= 1.05 * a + floor for a, b in zip(distances, distances[1:])] or [True]
    )
    return distances, monotone, distances[-1] / gauge_norm(limit, norm)


def lt_ordering_check(
    x: HermitianTensor,
    y: HermitianTensor,
    g: ConnectionFunction,
    m: int,
    q: float,
    branch: str = "pmi",
    tol: float = PSD_RTOL,
) -> LoewnerVerdict:
    """Compare the log-affine exponential against the q-th-root lifted mean.

    With generator ``F = x**m g(x)`` and ``0 < q <= 1/2`` the increasing
    branch ("pmi") requires the premise ``x #_F y <= I`` and asserts

        exp((m + g'(1)) log x + (1 - m - g'(1)) log y)  <=  (x**q #_F y**q)**(1/q)

    while the decreasing branch ("pmd") requires ``x #_F y >= I`` and flips
    the ordering.  The returned verdict compares the exponential (left)
    against the root mean (right); callers assert LEQ or GEQ per branch.
    Raises :class:`PremiseError` when the premise fails beyond tolerance.
    """
    if branch not in ("pmi", "pmd"):
        raise ValueError(f"unknown branch {branch!r}")
    q = float(q)
    if not 0.0 < q <= 0.5:
        raise ValueError(f"need 0 < q <= 1/2, got {q}")
    m = int(m)
    lifted = power_lift(g, m)
    base = mean_pd(x, y, lifted)
    if branch == "pmi":
        extreme = base.lambda_max()
        if extreme > 1.0 + tol:
            raise PremiseError(f"premise mean <= I fails: lambda_max = {extreme!r}")
    else:
        extreme = base.lambda_min()
        if extreme < 1.0 - tol:
            raise PremiseError(f"premise mean >= I fails: lambda_min = {extreme!r}")
    log_affine, _, root_mean = _ordering_sides(x, y, lifted, m + derivative_at_one(g), q)
    return loewner_compare(log_affine, root_mean, tol)


def _ordering_sides(x, y, lifted, w, q):
    """Both sides of :func:`lt_ordering_check` over stacks: the log-affine
    exponential ``exp(w log x + (1 - w) log y)``, the mean of the q-th
    powers under the lifted generator, and its q-th root."""
    log_affine = tensor_exp(w * tensor_log(x) + (1.0 - w) * tensor_log(y))
    mean_q = mean_pd(spectral_power(x, q), spectral_power(y, q), lifted)
    return log_affine, mean_q, spectral_power(mean_q, 1.0 / q, psd_clip=False)
