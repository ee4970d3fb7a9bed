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
    HermitianTensor,
    RANK_RTOL,
    require_pd,
    require_psd,
    spectral_power,
)
from .functions import ConnectionFunction
from .means import eta

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
    """Bundle of scalar factors appearing in the tail-bound statements.

    Only the fields relevant to the producing operation are populated; all
    populated factors must be finite and positive, with upper >= lower for
    the paired ones.
    """

    kantorovich: float | None = None
    kk_list: tuple[float, ...] = ()
    psi_lower: float | None = None
    psi_upper: float | None = None
    phi_lower: float | None = None
    phi_upper: float | None = None
    k1: float | None = None
    k2: float | None = None
    m1: float | None = None
    m2: float | None = None

    def __post_init__(self):
        for name in ("kantorovich", "psi_lower", "psi_upper", "phi_lower", "phi_upper", "k1", "k2", "m1", "m2"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v <= 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if any(not math.isfinite(v) or v <= 0.0 for v in self.kk_list):
            raise ValueError(f"kk_list entries must be finite and positive: {self.kk_list}")
        for lo, hi in (("psi_lower", "psi_upper"), ("phi_lower", "phi_upper")):
            a, b = getattr(self, lo), getattr(self, hi)
            if a is not None and b is not None and b < a:
                raise ValueError(f"{hi} < {lo}: {b} < {a}")

    @property
    def kk_product(self) -> float:
        return float(math.prod(self.kk_list)) if self.kk_list else 1.0


def kantorovich(m: float, big_m: float, p: float) -> float:
    """Sharp constant K(m, M, p) with ``B <= A`` implying ``B**p <= K A**p``
    on spectra inside ``[m, M]``.

    Returns 1 for ``p`` in [0, 1] (where plain power monotonicity applies)
    and for the degenerate spectrum ``m == M``; otherwise evaluates the
    closed form, which is always >= 1.  Raises ``ValueError`` when the
    closed form over- or underflows double precision.
    """
    m, big_m, p = float(m), float(big_m), float(p)
    if m <= 0.0:
        raise ValueError(f"need m > 0, got {m}")
    if big_m < m:
        raise ValueError(f"need M >= m, got M = {big_m} < m = {m}")
    if m == big_m or 0.0 <= p <= 1.0:
        return 1.0
    try:
        mp = m**p
        big_mp = big_m**p
        cross = m * big_mp - big_m * mp
        first = ((p - 1.0) * (big_mp - mp) / (p * cross)) ** p
        second = cross / ((p - 1.0) * (big_m - m))
        k = first * second
    except (OverflowError, ZeroDivisionError):
        k = math.nan
    if not math.isfinite(k):
        raise ValueError(f"K({m:g}, {big_m:g}, {p:g}) is out of floating-point range")
    return max(1.0, k)


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
    m = int(m)
    if k_start not in (1, 2):
        raise ValueError("k_start must be 1 or 2")
    lam = require_pd(x, "x")
    g_lam = g.fn(lam)
    factors = []
    for k in range(k_start, m + 1):
        ratios = g_lam ** (m - k) / lam
        factors.append(kantorovich(1.0 / float(ratios.max()), 1.0 / float(ratios.min()), 2.0 * q))
    return BoundFactors(kk_list=tuple(factors))


def dyadic_decompose(q: float) -> tuple[int, float]:
    """Split ``q >= 1`` as ``q = 2**n * q0`` with ``q0`` in [1, 2].

    Ties at ``q0 == 2`` resolve to the smaller ``n``.  For ``q < 1`` the
    pair ``(0, q)`` is returned (single-factor regime).
    """
    q = float(q)
    if q <= 0.0:
        raise ValueError("need q > 0")
    if q < 1.0:
        return 0, q
    n = max(0, math.ceil(math.log2(q / 2.0)))
    q0 = q / 2.0**n
    while q0 > 2.0:
        n += 1
        q0 = q / 2.0**n
    while q0 < 1.0 and n > 0:
        n -= 1
        q0 = q / 2.0**n
    return n, q0


def _ratio_extremes(z: HermitianTensor, f: ConnectionFunction, a: float) -> tuple[float, float]:
    """Extremes of ``f(z**a) f(z)**(-a)`` over the spectrum of PSD ``z``."""
    lam = z._spectrum()[0]
    live = lam > RANK_RTOL * max(float(lam[-1]), 0.0)
    ratios = f.fn(lam[live] ** a) / f.fn(lam[live]) ** a
    if not live.all():
        f0 = f.value_at_0plus
        if f0 is None or not math.isfinite(f0) or f0 <= 0.0:
            raise ValueError(
                f"{f.label}: spectral ratio undefined on the null space "
                f"(limit at 0+ is {f0!r})"
            )
        ratios = np.append(ratios, f0 ** (1.0 - a))
    return float(ratios.min()), float(ratios.max())


def psi_factors(
    q: float,
    f: ConnectionFunction,
    x: HermitianTensor,
    y: HermitianTensor,
) -> tuple[float, float]:
    """Dyadic spectral-ratio factors (lower, upper) of a generator.

    Uses the quotients ``Z_k = eta(y**(2**k), x**(2**k))`` for
    ``k = 0 .. n`` from the decomposition ``q = 2**n q0``; domination of
    each dyadic power pair is required and checked.  Exactly 1 for power
    generators.  The same factors serve an increasing generator (the
    psi factors) and a decreasing one (``phi_factors``).
    """
    n, q0 = dyadic_decompose(q)
    levels = []
    for k in range(n + 1):
        xp = spectral_power(x, float(2**k)) if k else x
        yp = spectral_power(y, float(2**k)) if k else y
        levels.append(eta(yp, xp).eta)
    lower, upper = _ratio_extremes(levels[n], f, q0)
    for k in range(1, n + 1):
        lo, hi = _ratio_extremes(levels[k - 1], f, 2.0)
        lower *= lo
        upper *= hi
    return lower, upper


phi_factors = psi_factors


def prop310_factors(x: HermitianTensor, q: float) -> tuple[float, float]:
    """Kantorovich pair ``(K1, K2)`` at exponents ``q - 1`` and ``2q - 1``
    over the reciprocal spectrum of a PD tensor.
    """
    q = float(q)
    if q < 1.0:
        raise ValueError("need q >= 1")
    lam = require_pd(x, "x")
    lo = 1.0 / float(lam[-1])
    hi = 1.0 / float(lam[0])
    return kantorovich(lo, hi, q - 1.0), kantorovich(lo, hi, 2.0 * q - 1.0)


def trace_tail_bound(
    samples,
    q: float,
    c: HermitianTensor,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``Tr(mean(z**q) * c^{-1})`` with its standard error.

    ``samples`` are PSD tensors; small negative eigenvalues are clamped at
    zero before the power.  The standard error is that of the per-sample
    trace statistic (zero for constant samples).  Deviations are scaled by
    the least power of two above ``max |s|`` (an exact scaling), so finite
    statistics cannot overflow when squared.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    require_pd(c, "c")
    c_inv = np.linalg.inv(c.unfold())
    stats = []
    for z in samples:
        z._check_same_shape(c)
        require_psd(z, "sample")
        zq = spectral_power(z, q)
        stats.append(float(np.trace(zq.unfold() @ c_inv).real))
    n = len(stats)
    mean = math.fsum(stats) / n
    if n == 1:
        return mean, 0.0
    e = math.frexp(max(abs(s) for s in stats))[1]
    var = math.fsum((math.ldexp(s, -e) - math.ldexp(mean, -e)) ** 2 for s in stats) / (n - 1)
    return mean, math.ldexp(math.sqrt(var / n), e)


def kyfan_stats(h: HermitianTensor, k: int) -> tuple[float, float]:
    """Sum and product of the k largest (signed) eigenvalues."""
    k = int(k)
    d = h.shape.square_dim
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got {k}")
    ev = h.eigenvalues()[:k]
    return float(np.sum(ev)), float(np.prod(ev))
