"""Connection functions on (0, inf) with classification metadata.

A connection function generates a bivariate tensor mean through the spectral
calculus (see :mod:`tmlab.means`).  Its ``fn`` is elementwise on float64
arrays, so a whole spectrum maps in one call.  Instances carry class tags
from ``{"TMI", "TMD", "TC"}`` (monotone increasing / decreasing / convex,
each positive), whether ``fn(1) = 1``, and analytic values where known.
Tags are caller-asserted and checked at construction by one matrix probe
on a logarithmic grid (:func:`_class_readings`): Loewner's theorem for
operator monotonicity and Kraus's for operator convexity.  A finite grid
gives a necessary condition, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .core import _EPS, _TINY, _certified, _number, _quiet

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
# Where a generator is probed: the grid, the grid moved up and down by a
# relative 1e-4 (the Loewner diagonal), and three Kraus anchors, the
# grid's geometric midpoints nearest 1e-3, 1 and 1e3.
_PROBE_POINTS = np.concatenate([PROBE_GRID, PROBE_GRID * (1.0 + 1e-4), PROBE_GRID * (1.0 - 1e-4),
                                np.sqrt(PROBE_GRID[15:48:16] * PROBE_GRID[16:49:16])])
# A class reading below -_CLASS_TOL refuses the tag.
_CLASS_TOL = 1e-6
# The probe matrices' points, as indices into _PROBE_POINTS: a Loewner entry
# (i, j) differences fn at _X[i, j] and _Y[i, j] (t_i and t_j, and on the
# diagonal t_i (1 +- 1e-4)); a Kraus entry also at an anchor of _S.  _STEPS
# are the differences' denominators, over (_X, _Y), (_S, _Y) and (_S, _X).
_I = np.arange(PROBE_GRID.size)
_EYE = _I[:, None] == _I
_X = np.where(_EYE, _I + _I.size, _I[:, None])
_Y = np.where(_EYE, _I + 2 * _I.size, _I)
_S = np.arange(3 * _I.size, _PROBE_POINTS.size)[:, None, None]
_STEPS = tuple(_PROBE_POINTS[a] - _PROBE_POINTS[b] for a, b in ((_X, _Y), (_S, _Y), (_S, _X)))

DEFAULT_X_GRID = tuple(np.logspace(-3.0, 3.0, 41))
DEFAULT_Q_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)

# The generator classes, in the order the class probe reads them: per tag,
# the class a refusal names and the operator property its probe reads.
_TAGS = {"TMI": ("monotone increasing", "monotonicity"), "TMD": ("monotone decreasing", "monotonicity"),
         "TC": ("convex", "convexity")}
VALID_TAGS = frozenset(_TAGS)


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
        Asserted function classes, checked by the class probe
        (:func:`_class_readings`); a tag that fails raises ``ValueError``.
    positive : bool
        Whether positivity on (0, inf) is required and probed.  The
        convexity building block ``psi(s)`` changes sign near 1 and opts
        out; sign-changing functions cannot carry class tags.
    derivative_at_1, value_at_0plus : float, optional
        Analytic values when known.  A stated ``value_at_0plus`` is kept.
        Otherwise it is exact for a power ``x**a`` (:func:`power_exponent`):
        0 for ``a > 0``, 1 at ``a = 0`` and ``inf`` below.  Any other ``fn``
        is probed at ``x = 1e-12``; a probe above 1e10 records ``inf`` and
        one below 1e-10 in magnitude records 0.

    ``normalized`` is read from ``fn``: whether ``fn(1) = 1`` within 1e-12.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    tags: frozenset = frozenset()
    normalized: bool = field(init=False)
    positive: bool = True
    derivative_at_1: float | None = None
    value_at_0plus: float | None = field(default=None)

    @_quiet
    def __post_init__(self):
        tags = frozenset(self.tags)
        if not tags <= VALID_TAGS:
            raise ValueError(f"unknown tags {tags - VALID_TAGS}")
        object.__setattr__(self, "tags", tags)
        if tags and not self.positive:
            raise ValueError("class tags require a positive function")
        self._run_probes()
        object.__setattr__(self, "normalized", abs(self.value_at_1 - 1.0) <= 1e-12)
        if self.value_at_0plus is None:
            a = power_exponent(self)
            if a is not None:
                limit = 1.0 if a == 0.0 else (0.0 if a > 0.0 else math.inf)
            else:
                probe = self(1e-12)
                limit = math.inf if probe > 1e10 else (0.0 if abs(probe) < 1e-10 else probe)
            object.__setattr__(self, "value_at_0plus", limit)

    def _run_probes(self) -> None:
        values = self.fn(_PROBE_POINTS)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self.label}: non-finite values on probe grid")
        if self.positive and np.any(values <= 0.0):
            raise ValueError(f"{self.label}: not positive on probe grid")
        for tag, reading in _class_readings(values, self.tags).items():
            if not reading >= -_CLASS_TOL:
                raise ValueError(f"{self.label}: {tag} tag fails the operator {_TAGS[tag][1]} probe"
                                 f" (reading {reading:.2g})")

    def __call__(self, x: float) -> float:
        """Scalar convenience: ``fn`` at one point, through the array path."""
        return float(self.fn(np.asarray(x, dtype=np.float64)))

    @property
    def value_at_1(self) -> float:
        return self(1.0)

    def eval_extended(self, x, cutoff: float = 0.0) -> np.ndarray:
        """``fn`` over an array, extended to the boundary: entries
        ``<= cutoff`` map to the 0+ limit, and the others, NaN and inf
        included, through ``fn``."""
        x = np.asarray(x, dtype=np.float64)
        dead = x <= cutoff
        return np.where(dead, self.value_at_0plus, self.fn(np.where(dead, 1.0, x)))

    @cached_property
    def _transpose(self) -> ConnectionFunction:
        """:func:`transpose_fn` of this generator, constructed (and probed) once."""
        deriv = None
        if self.derivative_at_1 is not None:
            deriv = self.value_at_1 - self.derivative_at_1
        return ConnectionFunction(
            fn=partial(_transposed, f=self.fn),
            label=f"transpose:{self.label}",
            tags=(self.tags & {"TMI"}) | ({"TC"} if self.tags & {"TC", "TMD"} else set()),
            positive=self.positive,
            derivative_at_1=deriv,
        )

    def __repr__(self) -> str:
        return f"ConnectionFunction({self.label!r})"


def _class_readings(values, tags) -> dict:
    """The one class rule: per tag in ``tags``, a reading from ``values``
    (``fn`` on ``_PROBE_POINTS``) that is negative when ``fn`` leaves the class.

    ``f`` is operator monotone iff its Loewner matrix ``[f^[1](t_i, t_j)]``
    is PSD on every point set (Loewner, Math. Z. 38, 1934), and operator
    convex iff ``f^[1](s, .)`` is operator monotone (Kraus, Math. Z. 41,
    1936; Hansen & Tomiyama, LAA 420, 2007).  TMI reads the Loewner matrix
    of ``f`` on ``PROBE_GRID``, TMD that of ``-f``, and TC, at each anchor
    ``s``, that of ``f^[1](s, .)``: ``[f^[2](s, t_i, t_j)]``, formed as
    ``(f^[1](s, t_j) - f^[1](t_i, t_j)) / (s - t_i)``, since differences of
    ``f^[1](s, .)`` itself cancel when ``s`` is far from the points.  The
    diagonal is the divided difference over ``t_i (1 -+ 1e-4)``, the mean
    of ``f'`` there; a class member's ``f'`` is convex, so the mean is at
    least ``f'(t_i)`` and the matrix stays PSD.  Scaled to a unit diagonal
    (where nonzero), a matrix reads ``(lambda_min + |E|_F) / |lambda|_max``:
    ``E`` is what an error of 4 ulps in each value of ``fn`` makes of the
    entries, which by Weyl's theorem bounds its move of ``lambda_min``, so
    a constant or affine ``f`` reads its rounding as noise.  That models
    ``fn`` as accurate to 4 ulps: a less accurate ``fn`` (bisected, or
    cancelling) can read below ``-_CLASS_TOL`` in its class.  A matrix
    whose ``lambda_min`` the Cholesky certificate (:func:`core._certified`)
    shows to be at least ``-(|E|_F + _CLASS_TOL)`` reads 0 without
    eigenvalues; an overflowed matrix reads -inf.  A finite grid gives a
    necessary condition, not a certificate: a function closer to the class
    than ``_CLASS_TOL`` resolves passes.
    """
    if not tags:
        return {}
    err = 4.0 * _EPS * np.abs(values)

    def divided(p, q, step):  # of (value, rounding bound) pairs
        return (p[0] - q[0]) / step, (p[1] + q[1]) / np.abs(step)

    loewner = divided((values[_X], err[_X]), (values[_Y], err[_Y]), _STEPS[0])
    mats = {"TMI": loewner, "TMD": (-loewner[0], loewner[1])}
    if "TC" in tags:
        mats["TC"] = divided(divided((values[_S], err[_S]), (values[_Y], err[_Y]), _STEPS[1]), loewner, _STEPS[2])
    readings = {}
    for tag in [tag for tag in _TAGS if tag in tags]:
        m, bound = mats[tag]
        d = np.abs(np.diagonal(m, axis1=-2, axis2=-1))
        r = np.sqrt(np.where(d > 0.0, d, 1.0))
        r = r[..., :, None] * r[..., None, :]
        m, bound = m / r, bound / r
        if not np.all(np.isfinite(m)):
            readings[tag] = -math.inf
            continue
        m = (m + np.swapaxes(m, -1, -2)) / 2.0
        noise = np.sqrt(np.sum(bound * bound, axis=(-2, -1)))
        # |lambda|_max >= |m_ii|, which is 1 unless the whole diagonal is 0.
        if _certified(-(noise + _CLASS_TOL * np.any(d > 0.0, axis=-1)), m):
            readings[tag] = 0.0
            continue
        w = np.linalg.eigvalsh(m)
        slack = w[..., 0] + noise
        readings[tag] = float(np.min(slack / np.maximum(np.abs(w).max(axis=-1), np.finfo(np.float64).tiny)))
    return readings


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def _power(x, a):
    return x**a


def power(alpha: float) -> ConnectionFunction:
    """``x**alpha``;  alpha in [0, 1] is the operator monotone range."""
    a = _number("alpha", alpha)
    return _power_generator(a, f"power:{a:g}")


def _power_generator(a: float, label: str) -> ConnectionFunction:
    tags = set()
    if 0.0 <= a <= 1.0:
        tags.add("TMI")
    if -1.0 <= a <= 0.0:
        tags.add("TMD")
    if 1.0 <= a <= 2.0 or -1.0 <= a <= 0.0:
        tags.add("TC")
    return ConnectionFunction(
        fn=partial(_power, a=a),
        label=label,
        tags=frozenset(tags),
        derivative_at_1=a,
    )


def power_exponent(f: ConnectionFunction) -> float | None:
    """``alpha`` when ``f`` evaluates as the power ``x**alpha``, else None.

    The builtin powers (``power``, ``identity``, ``square``, ``geometric``
    and ``ando_hiai_g``'s closed form) are themselves; the lift by ``n`` of
    ``x**a`` is ``x**(n + a)`` and its transpose ``x**(1 - a)``, taken from
    the innermost power outward.  The one reader of a chain's parameters.
    """
    fn, chain = f.fn, []
    while isinstance(fn, partial) and fn.func in (_lift, _transposed):
        chain.append(fn)
        fn = fn.keywords["f"]
    if not (isinstance(fn, partial) and fn.func is _power):
        return None
    a = fn.keywords["a"]
    for link in reversed(chain):
        a = link.keywords["n"] + a if link.func is _lift else 1.0 - a
    return a


def identity() -> ConnectionFunction:
    return power(1.0)


def square() -> ConnectionFunction:
    return _power_generator(2.0, "square")


def geometric() -> ConnectionFunction:
    return _power_generator(0.5, "geometric")


def harmonic_like() -> ConnectionFunction:
    """``2x / (1 + x)``, the harmonic-mean generator."""
    return ConnectionFunction(
        fn=lambda x: 2.0 * x / (1.0 + x),
        label="harmonic_like",
        tags=frozenset({"TMI"}),
        derivative_at_1=0.5,
        value_at_0plus=0.0,
    )


def psi(s: float) -> ConnectionFunction:
    """``x/(1+s) - x/(x+s)``, the integral building block of convex functions.

    Sign-changing (negative on (0, 1), zero at 1), hence untagged.
    """
    s = _number("s", s, low=_TINY)
    return ConnectionFunction(
        fn=lambda x, s=s: x / (1.0 + s) - x / (x + s),
        label=f"psi:{s:g}",
        tags=frozenset(),
        positive=False,
        derivative_at_1=1.0 / (1.0 + s) - s / (1.0 + s) ** 2,
        value_at_0plus=0.0,
    )


# ---------------------------------------------------------------------------
# lifts and transforms
# ---------------------------------------------------------------------------


def _lift(x, n, f):
    return x**n * f(x)


def power_lift(f: ConnectionFunction, n: int) -> ConnectionFunction:
    """Lifted generator ``x**n * f(x)``; ``n = 0`` returns ``f`` itself."""
    n = _number("lift exponent n", n, integral=True, low=0)
    if n == 0:
        return f
    deriv = None
    if f.derivative_at_1 is not None:
        deriv = n * f.value_at_1 + f.derivative_at_1
    return ConnectionFunction(
        fn=partial(_lift, n=n, f=f.fn),
        label=f"liftn:{n}:{f.label}",
        tags=frozenset(),
        positive=f.positive,
        derivative_at_1=deriv,
        value_at_0plus=0.0 if math.isfinite(f.value_at_0plus) else None,
    )


def _transposed(x, f):
    return x * f(1.0 / x)


def transpose_fn(g: ConnectionFunction) -> ConnectionFunction:
    """Transpose ``x * g(1/x)``; an involution, swaps the two mean slots.

    Carries the tags operator theory carries: TMI to TMI, and TC or TMD to
    TC (Kubo & Ando, Math. Ann. 246, 1980).  The constructor checks them as
    it checks any asserted tag, so a ``g`` tagged out of its class raises.
    The transpose is built once per ``g`` and kept: the right-dominated
    means and inequalities call this on every call.
    """
    return g._transpose


class UnsupportedFunctionError(ValueError):
    """The connection function has no finite limit at 0+ (PSD extension)."""


def _admit(g: ConnectionFunction, tag: str | None = None, zero_limit: bool = False,
           side: str = "left", normalized: bool = False) -> ConnectionFunction:
    """The one admissibility rule for a generator, shared by the suite table,
    the PSD-extended mean, the product-formula limit and the data-processing
    inequalities: ``g`` must be normalized if asked, carry the class ``tag``
    (if any) and, with ``zero_limit``, have a finite limit at 0+ on the
    domination ``side``.  A left-dominated pair evaluates ``g`` at the
    quotient's zero boundary; a right-dominated pair evaluates the
    transpose there, whose 0+ limit is ``g``'s derivative at infinity.
    Returns ``g``."""
    if normalized and not g.normalized:
        raise ValueError(f"{g.label} is not normalized (value 1 at 1)")
    if tag is not None and tag not in g.tags:
        raise ValueError(f"{g.label} is not tagged {_TAGS[tag][0]} ({tag})")
    if zero_limit and side == "left" and not math.isfinite(g.value_at_0plus):
        raise UnsupportedFunctionError(f"{g.label} has no finite limit at 0+")
    if zero_limit and side == "right" and not math.isfinite(transpose_fn(g).value_at_0plus):
        raise UnsupportedFunctionError(f"{g.label} has no finite derivative at infinity (transposed 0+ limit)")
    return g


@_quiet
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

    For a power ``f = x**alpha`` (:func:`power_exponent`) this is
    ``x**(1 / (m - 1 + alpha))`` in closed form; generic ``f`` goes through
    numeric inversion of ``F``.
    """
    m = _number("m", m, integral=True, low=2)
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


@_quiet
def _power_certificate(f, q_grid, x_grid, direction: str) -> PmiCertificate:
    if not q_grid or not len(x_grid):
        raise ValueError("grids must be nonempty")
    q = np.asarray(q_grid, dtype=np.float64)[:, None]
    x = np.asarray(x_grid, dtype=np.float64)
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


def _parsed(text: str, full: str, kind=float):
    """The number ``text`` of function id ``full``, parsed by ``kind``;
    ``ValueError`` quoting the whole id where it does not parse."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{text!r} is not {what} in function id {full!r}") from None


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
        return power(_parsed(parts[1], full))
    if head == "psi":
        if len(parts) != 2:
            raise ValueError(f"psi needs one parameter in {full!r}")
        return psi(_parsed(parts[1], full))
    if head == "liftn":
        if len(parts) < 3:
            raise ValueError(f"liftn needs an exponent and an inner chain in {full!r}")
        return power_lift(_from_parts(parts[2:], full), _parsed(parts[1], full, int))
    if head == "transpose":
        if len(parts) < 2:
            raise ValueError(f"transpose needs an inner chain in {full!r}")
        return transpose_fn(_from_parts(parts[1:], full))
    raise ValueError(f"unknown function id {full!r}")
