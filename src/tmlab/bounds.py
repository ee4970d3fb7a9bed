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
    RANK_RTOL,
    _gate_psd,
    _per_item,
    require_pd,
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
    return BoundFactors(kk_list=_kk_lists(x, g, m, q, k_start)[0])


def _kk_lists(x: HermitianStack, g: ConnectionFunction, m: int, q: float, k_start: int = 1) -> list:
    """Body of :func:`kk_factors` over a stack: one tuple of ``K_k`` per
    matrix.  The ratio spectra are stacked; the closed form stays scalar."""
    m = int(m)
    if k_start not in (1, 2):
        raise ValueError("k_start must be 1 or 2")
    lam = require_pd(x, "x")
    lam = lam.reshape(-1, lam.shape[-1])
    g_lam = g.fn(lam)
    extremes = []
    for k in range(k_start, m + 1):
        ratios = g_lam ** (m - k) / lam
        extremes.append((ratios.max(axis=-1).tolist(), ratios.min(axis=-1).tolist()))
    return [
        tuple(kantorovich(1.0 / hi[i], 1.0 / lo[i], 2.0 * q) for hi, lo in extremes)
        for i in range(len(lam))
    ]


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


def _ratio_extremes(z: HermitianStack, f: ConnectionFunction, a: float):
    """Extremes of ``f(z**a) f(z)**(-a)`` over the spectrum of each PSD
    matrix ``z``; eigenvalues at or below ``RANK_RTOL * lambda_max`` count
    through the 0+ limit of ``f``."""
    lam = z._eigenvalues()
    live = lam > RANK_RTOL * np.maximum(lam[..., -1:], 0.0)
    safe = np.where(live, lam, 1.0)
    ratios = f.fn(safe**a) / f.fn(safe) ** a
    lo = np.where(live, ratios, np.inf).min(axis=-1)
    hi = np.where(live, ratios, -np.inf).max(axis=-1)
    if not live.all():
        f0 = f.value_at_0plus
        if f0 is None or not math.isfinite(f0) or f0 <= 0.0:
            raise ValueError(
                f"{f.label}: spectral ratio undefined on the null space "
                f"(limit at 0+ is {f0!r})"
            )
        dead = ~live.all(axis=-1)
        at_zero = f0 ** (1.0 - a)
        lo = np.where(dead, np.minimum(lo, at_zero), lo)
        hi = np.where(dead, np.maximum(hi, at_zero), hi)
    return _per_item(lo), _per_item(hi)


def psi_factors(
    q: float,
    f: ConnectionFunction,
    x: HermitianStack,
    y: HermitianStack,
):
    """Dyadic spectral-ratio factors (lower, upper) of a generator: floats
    for a pair of tensors, arrays over a pair of stacks.

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


def prop310_factors(x: HermitianStack, q: float):
    """Kantorovich pair ``(K1, K2)`` at exponents ``q - 1`` and ``2q - 1``
    over the reciprocal spectrum of a PD tensor (arrays over a stack).
    """
    q = float(q)
    if q < 1.0:
        raise ValueError("need q >= 1")
    lam = require_pd(x, "x")
    ranges = np.stack([1.0 / lam[..., -1], 1.0 / lam[..., 0]], axis=-1).reshape(-1, 2).tolist()
    return tuple(
        _per_item(np.reshape([kantorovich(lo, hi, p) for lo, hi in ranges], lam.shape[:-1]))
        for p in (q - 1.0, 2.0 * q - 1.0)
    )


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
    for z in samples:
        z._check_same_shape(c)
    stack = HermitianStack._trusted(np.stack([z.unfold() for z in samples]))
    return _tail_summary(_tail_statistics(stack, q, [c])[0].tolist())


def _tail_statistics(z: HermitianStack, q: float, thresholds) -> list:
    """Per-sample statistics ``Tr(z**q c^{-1})`` of a PSD stack, one array
    per threshold tensor ``c``; the powers are taken once for all ``c``."""
    c_invs = []
    for c in thresholds:
        require_pd(c, "c")
        c_invs.append(np.linalg.inv(c.unfold()))
    # Gate on the decomposition the power reads; a power of 1 reads none.
    _gate_psd(z._eigenvalues() if float(q) == 1.0 else z._spectrum()[0], "sample")
    zq = spectral_power(z, q)._matrix
    return [np.trace(zq @ c_inv, axis1=-2, axis2=-1).real for c_inv in c_invs]


def _tail_summary(stats: list) -> tuple[float, float]:
    """Mean of per-sample statistics and its standard error (see
    :func:`trace_tail_bound`)."""
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
