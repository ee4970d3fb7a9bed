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

from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianStack,
    HermitianTensor,
    RANK_RTOL,
    _NORM_SAFE,
    _all,
    _any,
    _check_finite,
    _ct,
    _defer_gate,
    _first,
    _frobenius,
    _gate,
    _gate_by_quotient,
    _gate_pd,
    _gate_psd,
    _live,
    _number,
    _per_item,
    _quiet,
    _scale_of,
    _spectral_map,
    _spectral_scale,
    _symmetrize,
    gauge_norm,
)
from .functions import ConnectionFunction, UnsupportedFunctionError, _admit, power_lift

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


def _quotient(x: np.ndarray, v: np.ndarray, inv_root: np.ndarray) -> np.ndarray:
    """The congruence quotient of every mean in y's eigenbasis:
    ``diag(inv_root) (V^H x V) diag(inv_root)`` for raw stacks ``x`` and
    y's eigenvectors ``V``.  A two-sided diagonal scaling of a unitary
    congruence keeps the relative accuracy that a formed ``y^{-1/2}``
    loses on an ill-conditioned ``y``."""
    return _symmetrize(inv_root[..., :, None] * (_ct(v) @ x @ v) * inv_root[..., None, :])


@_quiet
def _congruence_mean(
    x: HermitianStack, y: HermitianStack, g: ConnectionFunction, gate_x: bool = False
) -> HermitianStack:
    """``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` for a PD ``y`` (gated here,
    on its ``eigh`` ``(L, V)``), ``g`` extended at 0+, over a stack: one
    ``eigh`` ``(qw, qv)`` of the finite :func:`_quotient` at ``L^{-1/2}``,
    finished over the factor ``V L^{1/2} qv``.  With ``gate_x``, x passes
    the PD gate too (first, if C is not finite), from the quotient's values
    where they settle it (:func:`_defer_gate`, :func:`_gate_by_quotient`).
    Shared by :func:`mean_pd`, :func:`mean_recursive` and the right-slot
    limit of :func:`epsilon_mean_limit`, whose first slot is only PSD."""
    w, v = y._spectrum()
    deferred = gate_x and _defer_gate(x, "x", w)
    root = np.sqrt(_gate_pd(w, "y"))
    c = _quotient(x._matrix, v, 1.0 / root)
    if not _all(np.isfinite(c)):
        if deferred:
            _gate(x, "x")
        _check_finite(c)
    qw, qv = _gate_by_quotient(x, "x", w, c) if deferred else np.linalg.eigh(c)
    return _finish_mean(x, g, qw, v, root, qv)


@_quiet
def _powered_mean(x: HermitianStack, y: HermitianStack, g: ConnectionFunction, q: float) -> HermitianStack:
    """``mean_pd(x**q, y**q, g)`` of PD stacks from the cached eigenpairs
    of x and y, with no power formed: ``F g(S**2) F^H`` for the factor
    ``F = Vy Ly^(q/2) U``, where the quotient's eigenpairs ``(U, S**2)``
    in y's eigenbasis come from one SVD of the graded matrix
    ``B = (Vy^H Vx) * (lx_j / ly_i)^(q/2)`` (``Q = B B^H``).  Its callers
    have checked that x and y match in shape.
    """
    (lx, vx), (ly, vy) = x._spectrum(), y._spectrum()
    _gate_pd(lx, "x")
    _gate_pd(ly, "y")
    y_power = ly ** (0.5 * q)
    u, s, _ = np.linalg.svd((_ct(vy) @ vx) * (lx[..., None, :] / ly[..., :, None]) ** (0.5 * q))
    return _finish_mean(x, g, s**2, vy, y_power, u)


def _finish_mean(x: HermitianStack, g: ConnectionFunction, qw, vy, s, u, cutoff=0.0) -> HermitianStack:
    """Where every mean is born, and the one place its factor is formed:
    ``f g(qw) f^H`` for ``f = (Vy diag(s)) U`` (y's eigenvectors, y's root
    or ``y**(q/2)`` on them, the quotient's eigenvectors in y's eigenbasis),
    ``g`` taking its 0+ limit at or below ``cutoff``.  A non-finite
    ``g(qw)``, a NaN or inf ``qw`` included, raises.  A mean of a positive
    ``g`` is born with its graded factor's parts ``(diag(s) U, g(qw), Vy)``."""
    mapped = g.eval_extended(qw, cutoff)
    if not _all(np.isfinite(mapped)):
        bad = qw[~np.isfinite(mapped)]
        raise ValueError(f"{g.label} not finite on quotient spectrum {bad}")
    mean = _symmetrize(_spectral_map((vy * s[..., None, :]) @ u, mapped))
    return x._derive(mean, factor=(s[..., :, None] * u, mapped, vy) if g.positive else None)


def mean_pd(x: HermitianStack, y: HermitianStack, g: ConnectionFunction) -> HermitianStack:
    """Mean ``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` of PD tensors, or of
    every pair of two stacks.

    Raises when an input is not numerically PD or when ``g`` is non-finite
    on the spectrum of the congruence quotient.  A fresh x is gated by the
    quotient's eigenvalues where they settle its verdict.
    """
    x._check_same_shape(y)
    return _congruence_mean(x, y, g, gate_x=True)


@_quiet
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
    n = _number("lift exponent n", n, integral=True, low=0)
    x._check_same_shape(y)
    base = _congruence_mean(x, y, power_lift(f, n % 2), gate_x=True)
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
    ``c`` with ``x <= c y``.  Over stacks, ``eta`` is a stack and the
    constant is an array.
    """

    eta: HermitianStack
    domination_constant: float


@_quiet
def eta(x: HermitianStack, y: HermitianStack) -> EtaResult:
    """Solve ``x = y^{1/2} * eta * y^{1/2}`` on the range of ``y``.

    ``eta = V C V^H`` for the :func:`_quotient` ``C`` of x in y's
    eigenbasis ``(L, V)``, at ``L^{-1/2}`` on the kept eigenvalues
    ``lambda > RANK_RTOL * lambda_max`` and 0 on the others, which enforces
    the range compatibility exactly.  The dead slots are a zero prefix of
    ``C``, so one stacked ``eigh`` ``(qw, qv)`` of ``C`` serves every kept
    rank, and eta is born with its eigenpairs ``(qw, V qv)``; its matrix
    is formed on first read.  Raises
    :class:`DominationError` when range(x) leaks outside range(y) beyond a
    relative 1e-6 of the scale ``max(1, |x|_sp)``; x's spectrum is read for
    that scale only when the leak passes 1e-6.
    """
    qw, vectors, c = _eta_pairs(x, y)
    v = y._spectrum()[1]
    out = x._derive(lambda: _symmetrize(v @ c @ _ct(v)), values=qw, vectors=vectors)
    return EtaResult(out, _per_item(np.maximum(qw[..., -1], 0.0)))


@_quiet
def _eta_pairs(x: HermitianStack, y: HermitianStack):
    """Body of :func:`eta` up to eta's eigenpairs, which :func:`mean_psd`
    reads without eta's matrix: the gates, the range test, the quotient
    ``C`` and its ``eigh`` ``(qw, qv)``.  Returns ``(qw, V qv, C)``.  Where
    ``V C V^H`` might leave the double range, it passes :func:`eta`'s
    finiteness check before the ``eigh``, so both raise alike."""
    x._check_same_shape(y)
    _gate(x, "x", psd=True)
    lam, v = y._spectrum()
    _gate_psd(lam, "y")
    live = _live(lam)
    dead = v * ~live[..., None, :]
    # Range containment: the part of x living outside range(y) must vanish.
    leak = _frobenius(x._matrix @ dead)
    if _any(leak > 1e-6):
        _require_range(leak, np.maximum(1.0, _spectral_scale(x)))
    c = _quotient(x._matrix, v, np.where(live, 1.0 / np.sqrt(np.where(live, lam, 1.0)), 0.0))
    # Every entry of V C V^H, its sums included, is at most 8 D**1.5 |C|_F:
    # far inside the double range while |C|_F < _NORM_SAFE.
    if not _all(_frobenius(c) < _NORM_SAFE):
        _check_finite(_symmetrize(v @ c @ _ct(v)))
    qw, qv = np.linalg.eigh(c)
    return qw, v @ qv, c


def _require_range(leak: np.ndarray, x_scale: np.ndarray) -> None:
    """:func:`eta`'s range test: x's part outside range(y), of norm
    ``leak``, may be at most 1e-6 of x's scale."""
    allowed = 1e-6 * x_scale
    if _any(leak > allowed):
        i = _first(leak > allowed)
        raise DominationError(f"range(x) not contained in range(y): "
                              f"leakage {leak[i]:.3e} (allowed {allowed[i]:.3e})")


@_quiet
def _quotient_levels(x: HermitianStack, y: HermitianStack, n: int):
    """Ascending spectra ``sigma(Lx^-s (Vx^H Vy) Ly^s)**2`` of the dyadic
    quotients ``eta(y**(2s), x**(2s)) = x^-s y^(2s) x^-s``, ``s = 2**(k-1)``,
    at the levels ``k = 0 .. n``, and x's live mask: graded SVDs of the
    cached eigenpairs, which keep the relative accuracy that a formed power
    loses.  The rows keep x's eigenvalues ``> RANK_RTOL * lambda_max(x)``;
    the dead slots hold 0.  The part of ``y**(2s)`` outside range(x) gets
    :func:`eta`'s range test, relative to ``max(1, |y**(2s)|)``.  A graded
    matrix past the double range raises ``ValueError`` before its SVD.
    """
    (lx, vx), (ly, vy) = x._spectrum(), y._spectrum()
    _gate_psd(lx, "x")
    ly = _gate_psd(ly, "y")
    live = _live(lx)
    w, y_rel = _ct(vx) @ vy, ly / np.maximum(ly[..., -1:], 1.0)
    levels = []
    for k in range(n + 1):
        s = 2.0 ** (k - 1)
        if not live.all():
            leak = np.where(live[..., :, None], 0.0, w * (y_rel ** (2.0 * s))[..., None, :])
            _require_range(_frobenius(leak), np.ones(live.shape[:-1]))
        b = np.where(live, np.where(live, lx, 1.0) ** -s, 0.0)[..., :, None] * w * (ly**s)[..., None, :]
        if not _all(np.isfinite(b)):  # LAPACK's SVD would not converge, or return NaN
            raise ValueError(f"dyadic quotient at level {k} (exponent {2.0 * s:g}) is not finite")
        levels.append(np.where(live, np.linalg.svd(b, compute_uv=False)[..., ::-1] ** 2, 0.0))
    return levels, live


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
    quotient: tuple[np.ndarray, np.ndarray] | None = None,
) -> HermitianStack:
    """Body of :func:`mean_psd`; a caller holding ``eta(x, y)`` passes its
    eigenpairs as ``quotient`` instead of having them computed again.  The
    operands' shapes are checked once, before anything reads them: by
    :func:`_eta_pairs`, or for a ``quotient`` when its ``eta`` was built."""
    _admit(g, zero_limit=True)
    w, v = _eta_pairs(x, y)[:2] if quotient is None else quotient
    ly, vy = y._spectrum()
    zero_y = _scale_of(ly) == 0.0
    if _any(zero_y) and _any(zero_y & (_spectral_scale(x) != 0.0)):
        raise DominationError("y = 0 dominates only x = 0")
    # Over y's truncated root in its eigenbasis; a zero y has a zero root, so its mean is exactly 0.
    root = np.sqrt(np.where(_live(ly), ly, 0.0))
    return _finish_mean(x, g, w, vy, root, _ct(vy) @ v, RANK_RTOL * np.maximum(w[..., -1:], 0.0))


def _psd_root(y: HermitianStack) -> np.ndarray:
    """Rank-truncated square roots of a PSD stack as raw matrices: negative
    noise and eigenvalues at or below ``RANK_RTOL * lambda_max`` map to 0."""
    w, v = y._spectrum()
    return _spectral_map(v, np.sqrt(np.where(_live(w), w, 0.0)))


@dataclass(frozen=True)
class RttDiagnostic:
    """Convergence record for the regularized means along a shrinking grid.

    ``errors[i]`` is the gauge-norm distance of the regularized mean at
    ``epsilon_grid[i]`` from the PSD-extended limit; ``converged`` requires
    nonincreasing errors and a final relative error at most 1e-3.  Over
    stacks (not tensors) the errors and ``converged`` are per-pair arrays.
    """

    epsilon_grid: tuple[float, ...]
    errors: tuple
    converged: bool


def _shrinking_grid(grid, name: str) -> tuple[float, ...]:
    """The one check of a parameter grid: nonempty, positive and strictly
    decreasing, each entry passing :func:`core._number`, returned as
    floats; else ``ValueError`` naming ``name``."""
    grid = tuple(_number(f"{name} grid entry", g) for g in grid)
    if not (grid and grid[-1] > 0 and all(b < a for a, b in zip(grid, grid[1:]))):
        raise ValueError(f"{name} grid must be positive and strictly decreasing, got {grid}")
    return grid


def epsilon_mean_limit(
    x: HermitianStack,
    y: HermitianStack,
    g: ConnectionFunction,
    eps_grid=(1e-2, 1e-4, 1e-6, 1e-8),
    mode: str = "joint",
) -> tuple[HermitianStack, RttDiagnostic]:
    """Regularized means along ``eps_grid`` against the PSD-extended limit,
    at Frobenius distance, for a pair of tensors or every pair of two
    stacks.

    ``mode="joint"`` perturbs both slots (``(x + eps I) # (y + eps I)``);
    ``mode="right"`` perturbs only the second slot, covering perturbation
    sequences like ``I/n`` applied to ``y``.  Non-convergence is recorded in
    the diagnostic, never raised.

    The shifted operands are born with the spectra of x and y shifted by
    ``eps``: ``y + eps I`` with y's eigenpairs, which the limit reads (its
    matrix is formed on first read), and in the joint mode ``x + eps I``
    with x's values, which its gate reads.  Both are read here on every
    call, so the bits do not depend on what ran before.
    """
    eps_grid = _shrinking_grid(eps_grid, "epsilon")
    if mode not in ("joint", "right"):
        raise ValueError(f"unknown mode {mode!r}")
    # Read before the limit, x's values serve its PSD gate and range test too;
    # that gate is all the right-slot mode needs of x.
    lx = x._eigenvalues() if mode == "joint" else None
    limit = mean_psd(x, y, g)
    ly, vy = y._spectrum()
    eye = np.eye(vy.shape[-1], dtype=np.complex128)
    errors = []
    for eps in eps_grid:
        y_eps = y._derive(lambda eps=eps: y._matrix + eye * eps, values=ly + eps, vectors=vy)
        if mode == "joint":
            x_eps = x._derive(x._matrix + eye * eps, values=lx + eps)
            approx = mean_pd(x_eps, y_eps, g)
        else:
            approx = _congruence_mean(x, y_eps, g)
        errors.append(gauge_norm(approx - limit))
    scale = np.maximum(gauge_norm(limit), 1e-300)
    converged = errors[-1] <= 1e-3 * np.maximum(scale, 1.0)
    for a, b in zip(errors, errors[1:]):
        converged &= b <= a * (1.0 + 1e-9) + 1e-14 * scale
    return limit, RttDiagnostic(eps_grid, tuple(errors), _per_item(converged))
