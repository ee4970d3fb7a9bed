"""Mean inequalities under data fusion and positive linear transforms.

Two facts about means generated by operator convex functions with a finite
limit at 0+: summing dominated pairs before taking the mean never exceeds the
sum of the individual means, and a positive linear map applied after the mean
dominates the mean of the mapped arguments.  The map algebra is restricted to
congruences, pinchings, and their convex combinations, all completely
positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .core import (
    HermitianStack,
    LoewnerVerdict,
    PSD_RTOL,
    TensorShape,
    _as_shape,
    _ct,
    _number,
    _quiet,
    _read_only,
    _symmetrize,
    loewner_compare,
)
from .functions import ConnectionFunction, _admit, transpose_fn
from .means import EtaResult, _extended_mean, eta

__all__ = [
    "PositiveLinearMap",
    "congruence",
    "pinching",
    "convex_combination",
    "DominationPair",
    "apply_map",
    "mean_on_pair",
    "fusion_gap",
    "transform_gap",
]


@dataclass(frozen=True)
class PositiveLinearMap:
    """A positive linear map on Hermitian tensors of ``shape``: ``fn``, the
    function it applies to a ``(..., D, D)`` array of unfoldings.

    Built by :func:`congruence`, :func:`pinching` and
    :func:`convex_combination`, each of which checks its own parts; all
    three send PSD to PSD and preserve hermiticity.
    """

    shape: TensorShape
    fn: Callable[[np.ndarray], np.ndarray]


def congruence(k_entries, shape) -> PositiveLinearMap:
    """Map ``h -> k^H * h * k`` for a fixed (not necessarily Hermitian)
    tensor, or matrix by matrix for a stack of ``D x D`` unfoldings."""
    shape = _as_shape(shape)
    d = shape.square_dim
    k = np.array(k_entries, dtype=np.complex128, order="C")
    if k.shape == shape.dims + shape.dims:
        k = k.reshape(d, d)
    if k.shape[-2:] != (d, d):
        raise ValueError(f"congruence needs a {d} x {d} tensor unfolding")
    if not np.isfinite(k).all():
        raise ValueError("congruence needs a finite tensor")
    return PositiveLinearMap(shape, partial(_congruence, _read_only(k)))


def _congruence(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``k^H m k`` per matrix; ``k`` is one ``D x D`` matrix or a stack,
    whose size a stack ``m`` must match."""
    if k.ndim == m.ndim == 3 and len(k) != len(m):
        raise ValueError(f"congruence of {len(k)} matrices applied to a stack of {len(m)}")
    return _symmetrize(_ct(k) @ m @ k)


def pinching(partition, shape) -> PositiveLinearMap:
    """Block-diagonal compression over a partition of the unfolding indices."""
    shape = _as_shape(shape)
    d = shape.square_dim
    part = tuple(tuple(_number("partition index", i, integral=True, low=0) for i in group) for group in partition)
    if not part:
        raise ValueError("pinching needs a partition")
    if sorted(i for group in part for i in group) != list(range(d)):
        raise ValueError(f"partition must cover 0..{d - 1} exactly once, got {part}")
    kept = np.zeros((d, d), dtype=bool)
    for idx in (np.asarray(group, dtype=np.intp) for group in part):
        kept[np.ix_(idx, idx)] = True
    # Diagonal blocks of a Hermitian matrix: exactly Hermitian.
    return PositiveLinearMap(shape, lambda m: np.where(kept, m, 0.0))


def convex_combination(maps, weights) -> PositiveLinearMap:
    """The weighted sum of positive maps of one shape, weights on the simplex."""
    maps, weights = tuple(maps), tuple(_number("weight", w, low=0, high=1) for w in weights)
    if not maps:
        raise ValueError("need at least one component map")
    if len(maps) != len(weights):
        raise ValueError("mix needs matching components and weights")
    if abs(math.fsum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must be a convex combination, got {weights}")
    if any(c.shape.dims != maps[0].shape.dims for c in maps):
        raise ValueError("component shape mismatch")
    return PositiveLinearMap(maps[0].shape, lambda m: sum(w * comp.fn(m) for w, comp in zip(weights, maps)))


@_quiet
def apply_map(lmap: PositiveLinearMap, h: HermitianStack) -> HermitianStack:
    """Evaluate the map on a tensor, or on every matrix of a stack;
    hermiticity is preserved by construction."""
    d = lmap.shape.square_dim
    if h._shape is not None and h._shape.dims != lmap.shape.dims:
        raise ValueError(f"shape mismatch: map on {lmap.shape.dims}, tensor {h._shape.dims}")
    if h._matrix_shape[-1] != d:
        raise ValueError(f"size mismatch: map on D = {d}, matrices of size {h._matrix_shape[-1]}")
    return h._derive(lmap.fn(h.unfold()))


@dataclass(frozen=True)
class DominationPair:
    """PSD pair with a verified one-sided domination.

    ``side = "left"`` certifies ``x <= c y`` (the mean extends through the
    quotient of x by y); ``side = "right"`` certifies ``c x >= y``.  The
    certifying quotient (``eta(x, y)``, or ``eta(y, x)`` on the right) is
    kept as ``quotient``, and :func:`mean_on_pair` finishes the mean from it.
    """

    x: HermitianStack
    y: HermitianStack
    side: str
    constant: float = field(init=False)
    quotient: EtaResult = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        q = eta(self.x, self.y) if self.side == "left" else eta(self.y, self.x)
        object.__setattr__(self, "quotient", q)
        object.__setattr__(self, "constant", q.domination_constant)


def mean_on_pair(pair: DominationPair, g: ConnectionFunction) -> HermitianStack:
    """PSD-extended mean on a dominated pair, routed through the certified side.

    Right-dominated pairs evaluate through the transposed generator, which
    requires a finite transposed 0+ limit (finite derivative of ``g`` at
    infinity).
    """
    if pair.side == "left":
        return _extended_mean(pair.x, pair.y, g, quotient=pair.quotient.eta._spectrum())
    return _extended_mean(pair.y, pair.x, transpose_fn(g), quotient=pair.quotient.eta._spectrum())


def fusion_gap(
    p1: DominationPair,
    p2: DominationPair,
    g: ConnectionFunction,
    tol: float = PSD_RTOL,
) -> tuple[float, LoewnerVerdict]:
    """Slack of the fusion inequality: summing before the mean never wins.

    Returns ``lambda_min(rhs - lhs)`` for
    ``lhs = (x1 + x2) # (y1 + y2)`` and ``rhs = x1 # y1 + x2 # y2``
    together with the Loewner verdict of lhs against rhs (LEQ expected).
    Both pairs must certify the same domination side.
    """
    if p1.side != p2.side:
        raise ValueError("pairs must share the domination side")
    _admit(g, "TC", zero_limit=True, side=p1.side)
    fused = DominationPair(p1.x + p2.x, p1.y + p2.y, p1.side)
    verdict = loewner_compare(*_fusion_sides(p1, p2, fused, g), tol)
    return verdict.lam_min, verdict


def _fusion_sides(p1, p2, fused, g):
    """Body of :func:`fusion_gap` over stacks of pairs, given the fused
    pair: the two sides ``(lhs, rhs)`` of ``lhs <= rhs``, the mean of the
    fused pair and the sum of the two means."""
    return mean_on_pair(fused, g), mean_on_pair(p1, g) + mean_on_pair(p2, g)


def transform_gap(
    lmap: PositiveLinearMap,
    pair: DominationPair,
    g: ConnectionFunction,
    tol: float = PSD_RTOL,
) -> tuple[float, LoewnerVerdict]:
    """Slack of the transform inequality: mapping after the mean dominates.

    Returns ``lambda_min(L(x # y) - L(x) # L(y))`` and the verdict of
    ``L(x # y)`` against ``L(x) # L(y)`` (GEQ expected).
    """
    _admit(g, "TC", zero_limit=True, side=pair.side)
    verdict = loewner_compare(*_transform_sides(lmap, pair, mean_on_pair(pair, g), g), tol)
    return -verdict.lam_max, verdict


def _transform_sides(lmap, pair, pair_mean, g):
    """Body of :func:`transform_gap` over stacks, where ``pair_mean`` is
    ``mean_on_pair(pair, g)``, shared by every map.  Returns the two sides
    ``(lhs, rhs)`` of ``lhs >= rhs``, the mapped mean and the mean of the
    mapped pair."""
    mean_mapped = mean_on_pair(DominationPair(apply_map(lmap, pair.x), apply_map(lmap, pair.y), pair.side), g)
    return apply_map(lmap, pair_mean), mean_mapped
