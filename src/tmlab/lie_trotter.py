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
    HermitianStack,
    HermitianTensor,
    LoewnerVerdict,
    PSD_RTOL,
    _TINY,
    _gate_pd,
    _number,
    _per_item,
    apply_spectral,
    gauge_norm,
    loewner_compare,
    spectral_power,
)
from .functions import ConnectionFunction, _admit, derivative_at_one, power_lift
from .means import _powered_mean, _shrinking_grid, mean_pd

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
    _gate_pd(p._spectrum()[0], "log input")
    return apply_spectral(p, np.log)


def lt_expression(
    q: float,
    x: HermitianStack,
    y: HermitianStack,
    g: ConnectionFunction,
) -> HermitianStack:
    """``(exp(q x) # exp(q y))**(1/q)`` for ``q != 0``.

    ``exp(q x)`` maps the cached eigenpairs of x (:func:`apply_spectral`),
    so x and y are decomposed once for a whole grid of q, and the mean reads
    the eigenpairs that ``exp(q y)`` is born with.  Each q decomposes only
    the mean's quotient; an integer ``1/q`` (every point of the default
    grid) powers the mean by products, and any other decomposes it.
    """
    q = _number("q", q)
    if q == 0.0 or np.isinf(1.0 / q):
        raise ValueError(f"q must be nonzero with 1/q finite as a double, got {q!r}")

    def exp_q(w):
        return np.exp(q * w)

    m = mean_pd(apply_spectral(x, exp_q), apply_spectral(y, exp_q), g)
    return spectral_power(m, 1.0 / q)


def lt_limit(x: HermitianStack, y: HermitianStack, g: ConnectionFunction) -> HermitianStack:
    """Limit ``exp(w x + (1 - w) y)`` with weight ``w = g'(1)``.

    Requires ``g(1) = 1``.
    """
    w = derivative_at_one(_admit(g, normalized=True))
    return tensor_exp(w * x + (1.0 - w) * y)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Distances from the limit along a shrinking parameter grid.

    ``monotone`` allows 5% slack per halving plus an absolute floor at
    the deep-float level, so exactly-commuting pairs (distances at
    rounding noise) still register as monotone.  Over stacks (not tensors)
    the distances, ``monotone`` and the final error are per-pair arrays.
    """

    q_grid: tuple[float, ...]
    distances: tuple
    monotone: bool
    final_relative_error: float


def convergence_study(
    x: HermitianStack,
    y: HermitianStack,
    g: ConnectionFunction,
    q_grid=tuple(2.0**-k for k in range(1, 9)),
) -> ConvergenceStudy:
    """Frobenius distance of the product-formula expression from its limit
    per grid point, for a pair of tensors or every pair of two stacks."""
    q_grid = _shrinking_grid(q_grid, "q")
    limit = lt_limit(x, y, g)
    scale = np.maximum(1.0, gauge_norm(limit))
    distances = tuple(gauge_norm(lt_expression(q, x, y, g) - limit) for q in q_grid)
    monotone = np.full(np.shape(scale), True)
    for a, b in zip(distances, distances[1:]):
        monotone &= b <= 1.05 * a + 1e-12 * scale
    return ConvergenceStudy(q_grid, distances, _per_item(monotone), distances[-1] / gauge_norm(limit))


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
    Raises :class:`PremiseError` when the premise fails beyond tolerance;
    an ``m``, ``q`` or ``tol`` that fails :func:`~tmlab.core._number`
    raises ``ValueError`` before any mean is formed.
    """
    tol = _number("tol", tol, low=0)
    if branch not in ("pmi", "pmd"):
        raise ValueError(f"unknown branch {branch!r}")
    q = _number("q", q, low=_TINY, high=0.5)
    m = _number("m", m, integral=True, low=0)
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
    powers under the lifted generator, and its q-th root (a product of
    squarings for an integer ``1/q``, born with no spectrum)."""
    log_affine = tensor_exp(w * tensor_log(x) + (1.0 - w) * tensor_log(y))
    mean_q = _powered_mean(x, y, lifted, q)
    return log_affine, mean_q, spectral_power(mean_q, 1.0 / q)
