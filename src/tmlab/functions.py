"""Connection functions on (0, inf) with classification metadata.

A connection function generates a bivariate tensor mean through the spectral
calculus (see :mod:`tmlab.means`).  Its ``fn`` is elementwise on float64
arrays, so a whole spectrum maps in one call.  Instances carry class tags
from ``{"TMI", "TMD", "TC"}`` (monotone increasing / decreasing / convex,
each positive), a normalized-at-1 flag, and analytic values where known.
Tags are caller-asserted but validated against scalar probes on a
logarithmic grid; scalar probes cannot certify the tensor (operator)
versions of these properties, they only reject gross misuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .core import _integer

__all__ = [
    "ConnectionFunction",
    "UnsupportedFunctionError",
    "PmiCertificate",
    "identity",
    "square",
    "geometric",
    "power",
    "harmonic_like",
    "psi",
    "from_id",
    "power_lift",
    "transpose_fn",
    "invert_fn",
    "ando_hiai_g",
    "derivative_at_one",
    "power_exponent",
    "check_pmi",
    "check_pmd",
    "DEFAULT_Q_GRID",
    "DEFAULT_X_GRID",
]

# 64-point logarithmic probe grid spanning twelve decades.
PROBE_GRID = np.logspace(-6.0, 6.0, 64)
PROBE_TOL = 1e-9

DEFAULT_X_GRID = tuple(np.logspace(-3.0, 3.0, 41))
DEFAULT_Q_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)

VALID_TAGS = frozenset({"TMI", "TMD", "TC"})


@dataclass(frozen=True)
class ConnectionFunction:
    """Positive scalar function on (0, inf) generating a tensor mean.

    Parameters
    ----------
    fn : callable
        Elementwise evaluation on float64 arrays (numpy expressions); must
        be reentrant.  Points outside the domain may give NaN or inf.
    label : str
        Display / config id.
    tags : frozenset of {"TMI", "TMD", "TC"}
        Asserted function classes, validated by scalar probes.
    normalized : bool
        Whether ``fn(1) == 1`` (within 1e-12).
    positive : bool
        Whether positivity on (0, inf) is required and probed.  The
        convexity building block ``psi(s)`` changes sign near 1 and opts
        out; sign-changing functions cannot carry class tags.
    derivative_at_1, value_at_0plus : float, optional
        Analytic values when known.  ``value_at_0plus`` is otherwise probed
        at ``x = 1e-12`` and recorded as ``inf`` above 1e10.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    tags: frozenset = frozenset()
    normalized: bool = False
    positive: bool = True
    derivative_at_1: float | None = None
    value_at_0plus: float | None = field(default=None)

    def __post_init__(self):
        tags = frozenset(self.tags)
        if not tags <= VALID_TAGS:
            raise ValueError(f"unknown tags {tags - VALID_TAGS}")
        object.__setattr__(self, "tags", tags)
        if tags and not self.positive:
            raise ValueError("class tags require a positive function")
        with np.errstate(over="ignore", invalid="ignore"):
            self._run_probes()
        if self.value_at_0plus is None:
            probe = self(1e-12)
            limit = math.inf if probe > 1e10 else probe
            object.__setattr__(self, "value_at_0plus", limit)

    def _run_probes(self) -> None:
        values = self.fn(PROBE_GRID)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self.label}: non-finite values on probe grid")
        if self.positive and np.any(values <= 0.0):
            raise ValueError(f"{self.label}: not positive on probe grid")
        if self.normalized and abs(self.value_at_1 - 1.0) > 1e-12:
            raise ValueError(f"{self.label}: normalized flag set but fn(1) = {self.value_at_1!r}")
        failed = self.tags - _probe_tags(self.fn, values, self.tags)
        for tag, what in _PROBE_NAMES.items():
            if tag in failed:
                raise ValueError(f"{self.label}: {tag} tag fails {what} probe")

    def __call__(self, x: float) -> float:
        """Scalar convenience: ``fn`` at one point, through the array path."""
        return float(self.fn(np.asarray(x, dtype=np.float64)))

    @property
    def value_at_1(self) -> float:
        return self(1.0)

    def eval_extended(self, x, cutoff: float = 0.0) -> np.ndarray:
        """``fn`` over an array, extended to the boundary: entries not
        above ``cutoff`` map to the 0+ limit (``fn`` alone, with the same
        bits, when every entry is above it)."""
        x = np.asarray(x, dtype=np.float64)
        live = x > cutoff
        if live.all():
            return np.asarray(self.fn(x), dtype=np.float64)
        return np.where(live, self.fn(np.where(live, x, 1.0)), self.value_at_0plus)

    def __repr__(self) -> str:
        return f"ConnectionFunction({self.label!r})"


_PROBE_NAMES = {"TMI": "monotonicity", "TMD": "monotonicity", "TC": "midpoint convexity"}


def _midpoint_convex(fn, grid_values, scale) -> bool:
    for stride in (1, 4):
        mid = fn((PROBE_GRID[:-stride] + PROBE_GRID[stride:]) / 2.0)
        chord = (grid_values[:-stride] + grid_values[stride:]) / 2.0
        if np.any(mid > chord + PROBE_TOL * np.maximum(scale, np.abs(chord))):
            return False
    return True


def _probe_tags(fn, values, candidates) -> frozenset:
    """Subset of candidate tags that survive the scalar probes, given the
    values ``fn(PROBE_GRID)``."""
    kept = set()
    scale = max(1.0, float(np.max(np.abs(values))))
    diffs = np.diff(values)
    if "TMI" in candidates and np.all(diffs >= -PROBE_TOL * scale):
        kept.add("TMI")
    if "TMD" in candidates and np.all(diffs <= PROBE_TOL * scale):
        kept.add("TMD")
    if "TC" in candidates and _midpoint_convex(fn, values, scale):
        kept.add("TC")
    return frozenset(kept)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def _power(x, a):
    return x**a


def power(alpha: float) -> ConnectionFunction:
    """``x**alpha``;  alpha in [0, 1] is the operator monotone range."""
    a = float(alpha)
    tags = set()
    if 0.0 <= a <= 1.0:
        tags.add("TMI")
    if -1.0 <= a <= 0.0:
        tags.add("TMD")
    if 1.0 <= a <= 2.0 or -1.0 <= a <= 0.0:
        tags.add("TC")
    return ConnectionFunction(
        fn=partial(_power, a=a),
        label=f"power:{a:g}",
        tags=frozenset(tags),
        normalized=True,
        derivative_at_1=a,
        value_at_0plus=(1.0 if a == 0.0 else (0.0 if a > 0.0 else math.inf)),
    )


def power_exponent(f: ConnectionFunction) -> float | None:
    """``alpha`` when ``f`` evaluates as the power ``x**alpha`` (the builtins
    ``power``, ``identity``, ``square`` and ``geometric``), else None."""
    fn = f.fn
    if isinstance(fn, partial) and fn.func is _power:
        return fn.keywords["a"]
    return None


def identity() -> ConnectionFunction:
    return power(1.0)


def square() -> ConnectionFunction:
    return replace(power(2.0), label="square")


def geometric() -> ConnectionFunction:
    return replace(power(0.5), label="geometric")


def harmonic_like() -> ConnectionFunction:
    """``2x / (1 + x)``, the harmonic-mean generator."""
    return ConnectionFunction(
        fn=lambda x: 2.0 * x / (1.0 + x),
        label="harmonic_like",
        tags=frozenset({"TMI"}),
        normalized=True,
        derivative_at_1=0.5,
        value_at_0plus=0.0,
    )


def psi(s: float) -> ConnectionFunction:
    """``x/(1+s) - x/(x+s)``, the integral building block of convex functions.

    Sign-changing (negative on (0, 1), zero at 1), hence untagged.
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError("psi needs s > 0")
    return ConnectionFunction(
        fn=lambda x, s=s: x / (1.0 + s) - x / (x + s),
        label=f"psi:{s:g}",
        tags=frozenset(),
        normalized=False,
        positive=False,
        derivative_at_1=1.0 / (1.0 + s) - s / (1.0 + s) ** 2,
        value_at_0plus=0.0,
    )


# ---------------------------------------------------------------------------
# lifts and transforms
# ---------------------------------------------------------------------------


def power_lift(f: ConnectionFunction, n: int) -> ConnectionFunction:
    """Lifted generator ``x**n * f(x)``; ``n = 0`` returns ``f`` itself."""
    n = _integer("lift exponent n", n)
    if n == 0:
        return f
    deriv = None
    if f.derivative_at_1 is not None:
        deriv = n * f.value_at_1 + f.derivative_at_1
    return ConnectionFunction(
        fn=lambda x, n=n, f=f.fn: x**n * f(x),
        label=f"liftn:{n}:{f.label}",
        tags=frozenset(),
        normalized=f.normalized,
        positive=f.positive,
        derivative_at_1=deriv,
        value_at_0plus=0.0 if math.isfinite(f.value_at_0plus) else None,
    )


def transpose_fn(g: ConnectionFunction) -> ConnectionFunction:
    """Transpose ``x * g(1/x)``; an involution, swaps the two mean slots.

    Operator theory carries TMI to TMI and TC to TC (and TMD into TC); the
    carried tags are additionally re-probed and dropped if the scalar shadow
    fails, never raising.
    """
    candidates = set()
    if "TMI" in g.tags:
        candidates.add("TMI")
    if "TC" in g.tags or "TMD" in g.tags:
        candidates.add("TC")

    def h(x, g=g.fn):
        return x * g(1.0 / x)

    deriv = None
    if g.derivative_at_1 is not None:
        deriv = g.value_at_1 - g.derivative_at_1
    # The transpose of x**p is x**(1 - p), whose 0+ limit is exact; any other is probed.
    p = power_exponent(g)
    limit = None if p is None else (0.0 if p < 1.0 else 1.0 if p == 1.0 else math.inf)
    return ConnectionFunction(
        fn=h,
        label=f"transpose:{g.label}",
        tags=_probe_tags(h, h(PROBE_GRID), candidates) if g.positive else frozenset(),
        normalized=g.normalized,
        positive=g.positive,
        derivative_at_1=deriv,
        value_at_0plus=limit,
    )


class UnsupportedFunctionError(ValueError):
    """The connection function has no finite limit at 0+ (PSD extension)."""


_TAG_NAMES = {"TMI": "monotone increasing", "TMD": "monotone decreasing", "TC": "convex"}


def _admit(g: ConnectionFunction, tag: str | None = None, zero_limit: bool = False,
           side: str = "left") -> ConnectionFunction:
    """The one admissibility rule for a generator, shared by the suite table,
    the PSD-extended mean and the data-processing inequalities: ``g`` must
    carry the class ``tag`` (if any) and, with ``zero_limit``, have a finite
    limit at 0+ on the domination ``side``.  A left-dominated pair evaluates
    ``g`` at the quotient's zero boundary; a right-dominated pair evaluates
    the transpose there, whose 0+ limit is ``g``'s derivative at infinity.
    Returns ``g``."""
    if tag is not None and tag not in g.tags:
        raise ValueError(f"{g.label} is not tagged {_TAG_NAMES[tag]} ({tag})")
    if zero_limit and side == "left" and not math.isfinite(g.value_at_0plus):
        raise UnsupportedFunctionError(f"{g.label} has no finite limit at 0+")
    if zero_limit and side == "right" and not math.isfinite(transpose_fn(g).value_at_0plus):
        raise UnsupportedFunctionError(f"{g.label} has no finite derivative at infinity (transposed 0+ limit)")
    return g


def invert_fn(g: ConnectionFunction, y):
    """Solve ``g(x) = y`` for strictly monotone ``g`` on (0, inf), elementwise
    over an array of targets.

    Exponential bracket expansion over ``2**-64 .. 2**64``
    followed by bisection; ties resolve toward the lower root.  Raises
    ``ValueError`` when a target cannot be bracketed.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("target must be finite")
    shape, targets = y.shape, y.reshape(-1)
    sign = 1.0 if g(2.0) > g(0.5) else -1.0

    def resid(x, t=targets):
        return sign * (g.fn(x) - t)

    # Brackets: the first of 1, 1/2, 1/4, .. with resid <= 0 and the first
    # of 1, 2, 4, .. with resid >= 0.
    steps = 2.0 ** np.arange(65)
    with np.errstate(over="ignore"):
        r_lo = resid(1.0 / steps, targets[:, None]) <= 0.0
        r_hi = resid(steps, targets[:, None]) >= 0.0
    found = r_lo.any(axis=1) & r_hi.any(axis=1)
    if not found.all():
        raise ValueError(f"cannot bracket {targets[~found][0]!r} within 2**(+-64) for {g.label}")
    lo = 1.0 / steps[np.argmax(r_lo, axis=1)]
    hi = steps[np.argmax(r_hi, axis=1)]
    active = np.ones(targets.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            break
        upper = resid(mid) >= 0.0
        hi = np.where(active & upper, mid, hi)
        lo = np.where(active & ~upper, mid, lo)
    root = np.where(resid(lo) == 0.0, lo, 0.5 * (lo + hi))
    return root.reshape(shape)[()]


def ando_hiai_g(f: ConnectionFunction, m: int) -> ConnectionFunction:
    """Auxiliary increasing function ``x -> 1 / F_inv(1/x)`` with ``F = x**(m-1) f``.

    For ``f = power(alpha)`` this is ``x**(1 / (m - 1 + alpha))`` in closed
    form; generic ``f`` goes through numeric inversion of ``F``.
    """
    m = _integer("m", m, low=2)
    if not f.positive:
        raise ValueError("needs a positive generator")
    alpha = power_exponent(f)
    if alpha is not None:
        if m - 1 + alpha == 0.0:
            raise ValueError(f"x**(m-1) {f.label} is constant, hence not invertible")
        g = partial(_power, a=1.0 / (m - 1 + alpha))
    else:
        big_f = power_lift(f, m - 1)

        def g(x):
            return 1.0 / invert_fn(big_f, 1.0 / x)

    deriv = None
    if f.derivative_at_1 is not None and f.normalized:
        # F(1) = 1, F'(1) = m - 1 + f'(1); inverse-function calculus at 1.
        deriv = 1.0 / (m - 1 + f.derivative_at_1)
    return ConnectionFunction(
        fn=g,
        label=f"andohiai:{m}:{f.label}",
        tags=frozenset({"TMI"}) if "TMI" in f.tags else frozenset(),
        normalized=f.normalized,
        derivative_at_1=deriv,
    )


def derivative_at_one(g: ConnectionFunction) -> float:
    """``g'(1)``: analytic when registered, else Richardson-extrapolated
    5-point central differences at ``h = 1e-5`` (absolute error target 1e-8).
    """
    if g.derivative_at_1 is not None:
        return float(g.derivative_at_1)

    def central(h: float) -> float:
        pts = g.fn(1.0 + h * np.array([-2.0, -1.0, 1.0, 2.0]))
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"{g.label}: non-finite probes near 1")
        return float(pts[0] - 8.0 * pts[1] + 8.0 * pts[2] - pts[3]) / (12.0 * h)

    h = 1e-5
    d1, d2 = central(h), central(h / 2.0)
    return (16.0 * d2 - d1) / 15.0


# ---------------------------------------------------------------------------
# power-scaling certificates (pmi / pmd)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PmiCertificate:
    """Grid evidence for the power-scaling conditions.

    ``m1_estimate`` is the least grid constant M with
    ``f(x**q) <= M * f(x)**q`` (direction "pmi") or
    ``f(x)**q <= M * f(x**q)`` (direction "pmd"); always >= 1.
    """

    holds: bool
    m1_estimate: float
    direction: str
    probe_grid: str


def _power_certificate(f, q_grid, x_grid, direction: str) -> PmiCertificate:
    if not q_grid or not len(x_grid):
        raise ValueError("grids must be nonempty")
    q = np.asarray(q_grid, dtype=np.float64)[:, None]
    x = np.asarray(x_grid, dtype=np.float64)
    with np.errstate(all="ignore"):
        num = f.fn(x**q)
        den = f.fn(x) ** q
        ratio = num / den if direction == "pmi" else den / num
    finite = np.isfinite(ratio)
    worst = max(1.0, float(ratio[finite].max())) if finite.any() else 1.0
    desc = f"q in {tuple(float(q) for q in q_grid)}, x grid of {len(x_grid)} points"
    return PmiCertificate(bool(finite.all()), worst, direction, desc)


def check_pmi(
    f: ConnectionFunction,
    q_grid=DEFAULT_Q_GRID,
    x_grid=DEFAULT_X_GRID,
) -> PmiCertificate:
    """Least grid constant for ``f(x**q) <= M * f(x)**q`` (working definition)."""
    return _power_certificate(f, q_grid, x_grid, "pmi")


def check_pmd(
    f: ConnectionFunction,
    q_grid=DEFAULT_Q_GRID,
    x_grid=DEFAULT_X_GRID,
) -> PmiCertificate:
    """Dual certificate: least grid constant for ``f(x)**q <= M * f(x**q)``."""
    return _power_certificate(f, q_grid, x_grid, "pmd")


# ---------------------------------------------------------------------------
# string ids ("power:0.5", "liftn:2:power:0.5", ...)
# ---------------------------------------------------------------------------

_SIMPLE_BUILTINS = {
    "identity": identity,
    "square": square,
    "geometric": geometric,
    "harmonic_like": harmonic_like,
}


def from_id(fid: str) -> ConnectionFunction:
    """Build a connection function from a colon-separated constructor chain."""
    parts = fid.strip().split(":")
    return _from_parts(parts, fid)


def _from_parts(parts, full: str) -> ConnectionFunction:
    if not parts or not parts[0]:
        raise ValueError(f"malformed function id {full!r}")
    head = parts[0]
    if head in _SIMPLE_BUILTINS:
        if len(parts) != 1:
            raise ValueError(f"{head} takes no arguments in {full!r}")
        return _SIMPLE_BUILTINS[head]()
    if head == "power":
        if len(parts) != 2:
            raise ValueError(f"power needs one exponent in {full!r}")
        return power(float(parts[1]))
    if head == "psi":
        if len(parts) != 2:
            raise ValueError(f"psi needs one parameter in {full!r}")
        return psi(float(parts[1]))
    if head == "liftn":
        if len(parts) < 3:
            raise ValueError(f"liftn needs an exponent and an inner chain in {full!r}")
        return power_lift(_from_parts(parts[2:], full), int(parts[1]))
    if head == "transpose":
        if len(parts) < 2:
            raise ValueError(f"transpose needs an inner chain in {full!r}")
        return transpose_fn(_from_parts(parts[1:], full))
    raise ValueError(f"unknown function id {full!r}")
