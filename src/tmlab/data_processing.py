"""Mean inequalities under data fusion and positive linear transforms.

Two facts about means generated by operator convex functions with a finite
limit at 0+: summing dominated pairs before taking the mean never exceeds the
sum of the individual means, and a positive linear map applied after the mean
dominates the mean of the mapped arguments.  The map algebra is restricted to
congruences, pinchings, and their convex combinations, all completely
positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    HermitianStack,
    HermitianTensor,
    LoewnerVerdict,
    PSD_RTOL,
    TensorShape,
    _ct,
    _quiet,
    _symmetrize,
    _verdict,
    loewner_extremes,
    tensor_from_json_dict,
)
from .functions import ConnectionFunction, transpose_fn
from .means import DominationError, EtaResult, UnsupportedFunctionError, _extended_mean, eta

__all__ = [
    "PositiveLinearMap",
    "congruence",
    "pinching",
    "convex_combination",
    "parse_map_spec",
    "DominationPair",
    "apply_map",
    "mean_on_pair",
    "fusion_gap",
    "transform_gap",
]


@dataclass(frozen=True)
class PositiveLinearMap:
    """Congruence, pinching, or a convex combination of positive maps.

    ``kind`` is one of ``"congruence"`` (conjugation by a fixed tensor),
    ``"pinching"`` (block-diagonal compression over a partition of the
    unfolding indices), or ``"mix"`` (weighted combination, weights on the
    simplex).  All three send PSD to PSD and preserve hermiticity.
    """

    kind: str
    shape: TensorShape
    matrix: np.ndarray | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    components: tuple = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        d = self.shape.square_dim
        if self.kind == "congruence":
            if self.matrix is None or self.matrix.shape != (d, d):
                raise ValueError(f"congruence needs a {d} x {d} tensor unfolding")
            m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        elif self.kind == "pinching":
            if not self.partition:
                raise ValueError("pinching needs a partition")
            seen = [i for group in self.partition for i in group]
            if sorted(seen) != list(range(d)):
                raise ValueError(f"partition must cover 0..{d - 1} exactly once, got {self.partition}")
        elif self.kind == "mix":
            if len(self.components) != len(self.weights) or not self.components:
                raise ValueError("mix needs matching components and weights")
            if any(w < 0 for w in self.weights) or abs(math.fsum(self.weights) - 1.0) > 1e-12:
                raise ValueError(f"weights must be a convex combination, got {self.weights}")
            if any(c.shape.dims != self.shape.dims for c in self.components):
                raise ValueError("component shape mismatch")
        else:
            raise ValueError(f"unknown map kind {self.kind!r}")


def congruence(k_entries, shape) -> PositiveLinearMap:
    """Map ``h -> k^H * h * k`` for a fixed (not necessarily Hermitian) tensor."""
    shape = shape if isinstance(shape, TensorShape) else TensorShape(tuple(shape))
    d = shape.square_dim
    arr = np.asarray(k_entries, dtype=np.complex128)
    if arr.shape == shape.dims + shape.dims:
        arr = arr.reshape(d, d)
    return PositiveLinearMap("congruence", shape, matrix=arr)


def pinching(partition, shape) -> PositiveLinearMap:
    """Block-diagonal compression over a partition of the unfolding indices."""
    shape = shape if isinstance(shape, TensorShape) else TensorShape(tuple(shape))
    part = tuple(tuple(int(i) for i in group) for group in partition)
    return PositiveLinearMap("pinching", shape, partition=part)


def convex_combination(maps, weights) -> PositiveLinearMap:
    maps = tuple(maps)
    if not maps:
        raise ValueError("need at least one component map")
    return PositiveLinearMap(
        "mix", maps[0].shape, components=maps, weights=tuple(float(w) for w in weights)
    )


def apply_map(lmap: PositiveLinearMap, h: HermitianStack) -> HermitianStack:
    """Evaluate the map on a tensor, or on every matrix of a stack;
    hermiticity is preserved by construction."""
    d = lmap.shape.square_dim
    if isinstance(h, HermitianTensor) and h.shape.dims != lmap.shape.dims:
        raise ValueError(f"shape mismatch: map on {lmap.shape.dims}, tensor {h.shape.dims}")
    if h.unfold().shape[-1] != d:
        raise ValueError(f"size mismatch: map on D = {d}, matrices of size {h.unfold().shape[-1]}")
    if lmap.kind == "congruence":
        return _congruence(lmap.matrix, h)
    if lmap.kind == "pinching":
        m = h.unfold()
        out = np.zeros_like(m)
        for group in lmap.partition:
            block = (Ellipsis,) + np.ix_(np.asarray(group, dtype=np.intp), np.asarray(group, dtype=np.intp))
            out[block] = m[block]
        # Diagonal blocks of a Hermitian matrix: exactly Hermitian.
        return h._derive(out)
    acc = np.zeros(h.unfold().shape, dtype=np.complex128)
    for w, comp in zip(lmap.weights, lmap.components):
        acc = acc + w * apply_map(comp, h).unfold()
    return h._derive(acc)


@_quiet
def _congruence(k: np.ndarray, h: HermitianStack) -> HermitianStack:
    """``k^H h k`` per matrix; ``k`` is one ``D x D`` matrix or a stack."""
    return h._derive(_symmetrize(_ct(k) @ h.unfold() @ k))


def parse_map_spec(spec: str, shape) -> PositiveLinearMap:
    """Parse a map spec: ``congruence:<tensor-file>``,
    ``pinching:1|2,3`` (1-based groups of unfolding indices), or
    ``mix:<w>:<map>:<w>:<map>`` with ``+``-separated inner maps.
    """
    shape = shape if isinstance(shape, TensorShape) else TensorShape(tuple(shape))
    head, _, rest = spec.partition(":")
    if head == "congruence":
        if not rest:
            raise ValueError("congruence needs a tensor file path")
        with open(rest, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        dims, arr = tensor_from_json_dict(payload)
        if dims != shape.dims:
            raise ValueError(f"congruence tensor dims {dims} do not match shape {shape.dims}")
        return congruence(arr, shape)
    if head == "pinching":
        groups = []
        for chunk in rest.split("|"):
            if not chunk:
                raise ValueError(f"malformed pinching spec {spec!r}")
            groups.append(tuple(int(i) - 1 for i in chunk.split(",")))
        return pinching(groups, shape)
    if head == "mix":
        parts = rest.split(":")
        if len(parts) % 2 != 0 or not parts:
            raise ValueError(f"malformed mix spec {spec!r}")
        weights, maps = [], []
        for w, inner in zip(parts[::2], parts[1::2]):
            weights.append(float(w))
            maps.append(parse_map_spec(inner.replace("+", ":"), shape))
        return convex_combination(maps, weights)
    raise ValueError(f"unknown map spec {spec!r}")


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
        self.x._check_same_shape(self.y)
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
        return _extended_mean(pair.x, pair.y, g, quotient=pair.quotient)
    return _extended_mean(pair.y, pair.x, transpose_fn(g), quotient=pair.quotient)


def _require_convex_finite(g: ConnectionFunction, side: str) -> None:
    """Admissibility for the inequality theorems, per domination side.

    Left-dominated pairs evaluate g at the quotient's zero boundary, so
    they need a finite g(0+); right-dominated pairs evaluate the transpose
    there instead, so they need a finite derivative at infinity (the
    transpose's 0+ limit).
    """
    if "TC" not in g.tags:
        raise ValueError(f"{g.label} is not tagged operator convex")
    if side == "left":
        if g.value_at_0plus is None or not math.isfinite(g.value_at_0plus):
            raise UnsupportedFunctionError(f"{g.label} has no finite limit at 0+")
    else:
        limit = transpose_fn(g).value_at_0plus
        if limit is None or not math.isfinite(limit):
            raise UnsupportedFunctionError(
                f"{g.label} has no finite derivative at infinity (transposed 0+ limit)"
            )


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
    _require_convex_finite(g, p1.side)
    fused = DominationPair(p1.x + p2.x, p1.y + p2.y, p1.side)
    verdict = _verdict(*_fusion_extremes(p1, p2, fused, g, tol))
    return verdict.lam_min, verdict


def _fusion_extremes(p1, p2, fused, g, tol):
    """Body of :func:`fusion_gap` over stacks of pairs, given the fused
    pair: the :func:`loewner_extremes` of its mean against the sum of the
    two means."""
    lhs = mean_on_pair(fused, g)
    rhs = mean_on_pair(p1, g) + mean_on_pair(p2, g)
    return loewner_extremes(lhs, rhs, tol)


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
    _require_convex_finite(g, pair.side)
    verdict = _verdict(*_transform_extremes(partial(apply_map, lmap), pair, mean_on_pair(pair, g), g, tol))
    return -verdict.lam_max, verdict


def _transform_extremes(lmap, pair, pair_mean, g, tol):
    """Body of :func:`transform_gap` over stacks: ``lmap`` maps a stack,
    and ``pair_mean`` is ``mean_on_pair(pair, g)``, shared by every map.
    Returns the :func:`loewner_extremes` of the mapped mean against the
    mean of the mapped pair."""
    mean_mapped = mean_on_pair(DominationPair(lmap(pair.x), lmap(pair.y), pair.side), g)
    return loewner_extremes(lmap(pair_mean), mean_mapped, tol)
