"""Scalar bound factors and trace tail-bound estimation.

Everything here reduces to spectral extremes: the Kantorovich constant
relating powers of ordered tensors, the per-level Kantorovich products for
lifted-generator means, the dyadic spectral-ratio factors for exponent
scaling, and the Markov-type trace bound for Loewner tail events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianStack,
    HermitianTensor,
    _TINY,
    _gate,
    _gate_pd,
    _number,
    _per_item,
    _power,
    _quiet,
)
from .functions import ConnectionFunction
from .means import _quotient_levels

__all__ = [
    "BoundFactors",
    "kantorovich",
    "kk_factors",
    "dyadic_decompose",
    "psi_factors",
    "phi_factors",
    "prop310_factors",
    "trace_tail_bound",
    "kyfan_stats",
]


@dataclass(frozen=True)
class BoundFactors:
    """Kantorovich factors ``K_k`` of :func:`kk_factors`; every entry must
    be finite and positive."""

    kk_list: tuple[float, ...] = ()

    def __post_init__(self):
        if any(not math.isfinite(v) or v <= 0.0 for v in self.kk_list):
            raise ValueError(f"kk_list entries must be finite and positive: {self.kk_list}")

    @property
    def kk_product(self) -> float:
        return float(math.prod(self.kk_list)) if self.kk_list else 1.0


@_quiet
def kantorovich(m, big_m, p):
    """Sharp constant K(m, M, p) with ``B <= A`` implying ``B**p <= K A**p``
    on spectra inside ``[m, M]``; elementwise over broadcast arrays, a
    float for scalar arguments.

    Is 1 for ``p`` in [0, 1] (where plain power monotonicity applies) and
    for the degenerate spectrum ``m == M``; otherwise the closed form,
    which is always >= 1.  Raises ``ValueError`` on non-finite arguments,
    ``m <= 0`` or ``M < m``, and where the closed form over- or underflows.

    ``K`` is homogeneous of degree 0, so the closed form is evaluated at
    ``(1, M / m)``: only the ratio's powers can leave double range, not
    ``m**p`` or ``M**p``.  It divides differences that cancel as
    ``M / m -> 1``, so for ``M - m < m / 64`` it is evaluated in
    ``t = log(M / m)`` instead, where each difference is an ``expm1`` exact
    to rounding.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (m, big_m, p)))
    shape = args[0].shape
    # One-dimensional operands keep every power on numpy's array loop, so a
    # scalar call gives the bits of the same entry of an array call.
    m, big_m, p = (a.reshape(-1) for a in args)
    finite = np.isfinite(m) & np.isfinite(big_m) & np.isfinite(p)
    if not finite.all():
        i = np.argmin(finite)
        raise ValueError(f"need finite m, M and p, got K({m[i]:g}, {big_m[i]:g}, {p[i]:g})")
    if (m <= 0.0).any():
        raise ValueError(f"need m > 0, got {m[np.argmax(m <= 0.0)]}")
    if (big_m < m).any():
        i = np.argmax(big_m < m)
        raise ValueError(f"need M >= m, got M = {big_m[i]} < m = {m[i]}")
    trivial = (m == big_m) | ((0.0 <= p) & (p <= 1.0))
    h, rel = big_m / m, (big_m - m) / m
    hp = h**p
    cross = hp - h
    first = ((p - 1.0) * (hp - 1.0) / (p * cross)) ** p
    second = cross / ((p - 1.0) * rel)
    t = np.log1p(rel)
    lower = h * np.expm1((p - 1.0) * t)
    near = ((p - 1.0) * np.expm1(p * t) / (p * lower)) ** p * lower / ((p - 1.0) * rel)
    k = np.where(trivial, 1.0, np.where(big_m - m < m / 64.0, near, first * second))
    bad = ~np.isfinite(k)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"K({m[i]:g}, {big_m[i]:g}, {p[i]:g}) is out of floating-point range")
    return _per_item(np.maximum(1.0, k).reshape(shape))


def kk_factors(
    x: HermitianTensor,
    g: ConnectionFunction,
    m: int,
    q: float,
    k_start: int = 1,
) -> BoundFactors:
    """Kantorovich factors ``K_k`` for ``k = k_start .. m``.

    ``K_k`` compares the spectral extremes of ``x^{-1} g(x)**(m-k)`` at
    exponent ``2q`` (the scalar power of ``g``, which commutes with ``x``
    through the shared eigenbasis).  ``k_start`` is 1 for even lifted
    exponents and 2 for odd ones.
    """
    return BoundFactors(kk_list=tuple(_kk_lists(x, g, m, q, k_start)[0].tolist()))


def _kk_lists(x: HermitianStack, g: ConnectionFunction, m: int, q: float, k_start: int = 1) -> np.ndarray:
    """Body of :func:`kk_factors` over a stack: the ``K_k`` of every
    matrix, shape ``(matrices, m - k_start + 1)``."""
    m, q = _number("m", m, integral=True, low=0), _number("q", q)
    k_start = _number("k_start", k_start, integral=True, low=1, high=2)
    lam = _gate_pd(x._eigenvalues(), "x")
    lam = lam.reshape(-1, lam.shape[-1])
    g_lam = g.fn(lam)
    # Levels first; one power per level keeps numpy's integer-power paths.
    ratios = np.reshape([g_lam ** (m - k) / lam for k in range(k_start, m + 1)], (-1, *lam.shape))
    return kantorovich(1.0 / ratios.max(axis=-1), 1.0 / ratios.min(axis=-1), 2.0 * q).T


def dyadic_decompose(q: float) -> tuple[int, float]:
    """Split ``q >= 1`` as ``q = 2**n * q0`` with ``q0`` in [1, 2].

    Ties at ``q0 == 2`` resolve to the smaller ``n``.  For ``q < 1`` the
    pair ``(0, q)`` is returned (single-factor regime).
    """
    q = _number("q", q, low=_TINY)
    if q < 1.0:
        return 0, q
    # q = f 2**e with f in [1/2, 1): q0 = 2 f, or 2 at the tie f = 1/2 past q = 1.
    f, e = math.frexp(q)
    n = e - 2 if f == 0.5 and e > 1 else e - 1
    return n, math.ldexp(q, -n)


@_quiet
def _ratio_extremes(lam: np.ndarray, live: np.ndarray, f: ConnectionFunction, a: float):
    """Extremes of ``f(z**a) f(z)**(-a)`` over the ascending spectra ``lam``
    of a stack; the entries that ``live`` marks dead (a null space) count
    through the 0+ limit of ``f``.  Raises ``ValueError`` where a ratio is
    not finite."""
    dead = not live.all()
    f0 = f.value_at_0plus
    if dead and not (math.isfinite(f0) and f0 > 0.0):
        raise ValueError(f"{f.label}: spectral ratio undefined on the null space (limit at 0+ is {f0!r})")
    safe = np.where(live, lam, 1.0)
    ratios = np.where(live, f.fn(safe**a) / f.fn(safe) ** a, f0 ** (1.0 - a) if dead else 1.0)
    if not np.isfinite(ratios).all():
        raise ValueError(f"{f.label}: spectral ratio at exponent {a:g} is not finite")
    return _per_item(ratios.min(axis=-1)), _per_item(ratios.max(axis=-1))


def psi_factors(
    q: float,
    f: ConnectionFunction,
    x: HermitianStack,
    y: HermitianStack,
):
    """Dyadic spectral-ratio factors (lower, upper) of a generator: floats
    for a pair of tensors, arrays over a pair of stacks.

    With ``q = 2**n q0``, the ratio extremes at exponent ``q0`` on the
    quotient ``Z_n = eta(y**(2**n), x**(2**n))`` times those at exponent 2 on
    ``Z_0 .. Z_{n-1}``, whose spectra are graded SVDs of the eigenpairs of x
    and y (no power is formed); domination is checked at each level.
    Exactly 1 for power generators.  The same factors serve an increasing
    generator (psi) and a decreasing one (``phi_factors``).
    """
    x._check_same_shape(y)
    n, q0 = dyadic_decompose(q)
    levels, live = _quotient_levels(x, y, n)
    lower, upper = _ratio_extremes(levels[n], live, f, q0)
    for lam in levels[:n]:
        lo, hi = _ratio_extremes(lam, live, f, 2.0)
        lower, upper = lower * lo, upper * hi
    return lower, upper


phi_factors = psi_factors


def prop310_factors(x: HermitianStack, q: float):
    """Kantorovich pair ``(K1, K2)`` at exponents ``q - 1`` and ``2q - 1``
    over the reciprocal spectrum of a PD tensor (arrays over a stack).
    """
    q = _number("q", q, low=1)
    lam = _gate_pd(x._eigenvalues(), "x")
    return tuple(kantorovich(1.0 / lam[..., -1], 1.0 / lam[..., 0], p) for p in (q - 1.0, 2.0 * q - 1.0))


def trace_tail_bound(
    samples,
    q: float,
    c: HermitianTensor,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``Tr(mean(z**q) * c^{-1})`` with its standard error.

    ``samples`` are PSD tensors; small negative eigenvalues are clamped at
    zero before a fractional power (an integer ``q`` is a product of the
    samples as given).  The standard error is that of the per-sample
    trace statistic (zero for constant samples).  Deviations are scaled by
    the least power of two above ``max |s|`` (an exact scaling), so finite
    statistics cannot overflow when squared.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    for z in samples:
        z._check_same_shape(c)
    _gate(c, "c")
    zq = _tail_power(c._derive(np.stack([z.unfold() for z in samples])), q)
    stats = np.trace(zq.unfold() @ np.linalg.inv(c.unfold()), axis1=-2, axis2=-1).real
    return _tail_summary(stats.tolist())


def _tail_power(z: HermitianStack, q: float) -> HermitianStack:
    """``z**q`` of a PSD stack for a ``q`` that passes
    :func:`~tmlab.core._number`, gated once: by :func:`core._gate` before
    the products of an integer ``q >= 2``, else on the decomposition the
    power reads."""
    return _power(z, _number("q", q), "sample", psd=True)


def _tail_summary(stats: list) -> tuple[float, float]:
    """Mean of per-sample statistics and its standard error (see
    :func:`trace_tail_bound`).  Where a partial sum of the statistics
    overflows, the mean sums them scaled by the power of two that scales
    the deviations, so a mean of finite statistics is finite."""
    n = len(stats)
    e = math.frexp(max(abs(s) for s in stats))[1]
    try:
        mean = math.fsum(stats) / n
    except OverflowError:
        mean = math.ldexp(math.fsum(math.ldexp(s, -e) for s in stats) / n, e)
    if n == 1:
        return mean, 0.0
    var = math.fsum((math.ldexp(s, -e) - math.ldexp(mean, -e)) ** 2 for s in stats) / (n - 1)
    return mean, math.ldexp(math.sqrt(var / n), e)


def kyfan_stats(h: HermitianTensor, k: int) -> tuple[float, float]:
    """Sum and product of the k largest (signed) eigenvalues: the batch of
    one of :func:`_kyfan_profile`."""
    k = _number("k", k, integral=True, low=1, high=h.shape.square_dim)
    total, product, _ = _kyfan_profile(h)[:, k - 1].tolist()
    return total, product


@_quiet
def _kyfan_profile(h: HermitianStack) -> np.ndarray:
    """Ky Fan statistics of every matrix for k = 1..D from its cached
    eigenvalues, shape ``(..., 3, D)``: the sums, the products and the sums
    of logs (finite for PD input, and free of overflow) of the k largest."""
    ev = h._eigenvalues()[..., ::-1]
    return np.stack([np.cumsum(ev, -1), np.cumprod(ev, -1), np.cumsum(np.log(ev), -1)], axis=-2)
