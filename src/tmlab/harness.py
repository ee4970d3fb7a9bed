"""Seeded tensor ensembles and Monte Carlo verification suites.

Each suite exercises one ordering or tail-bound statement on randomly
drawn tensors and reports violation counts, empirical event
frequencies, and Monte Carlo bound estimates.  Report semantics:

- ordering suites (L1, L2, T1, C1, T65, APP_*): ``violations`` counts trials
  where the asserted Loewner relation ``lhs <= rhs`` fails, that is where its
  relative excess ``lambda_max(lhs - rhs) / max(|lhs|_sp, |rhs|_sp, 1)``
  (:func:`_excess`) is above the tolerance; ``max_violation`` is
  ``max(0, worst excess)``.
- tail-bound suites (L3, T3, T7, T8, T9): ``violations`` counts
  (inequality, threshold) combinations where the empirical frequency
  exceeds ``min(1, bound) + 3 * stderr``; the clamp at 1 is reported, not
  hidden.  Deterministic-chain diagnostics go to ``regime_notes``.
- majorization suites (C2, C3, C4): ``violations`` counts points of the
  kappa grid where the empirical CDF sandwich of Ky Fan statistics fails
  beyond Monte Carlo noise.
- convergence suites (T2, T63): ``violations`` counts draws that fail the
  monotone-convergence criteria.

All randomness derives from per-(suite, trial, role) streams seeded by the
config seed, so reports are byte-identical across reruns regardless of
scheduling.  Premises of the form "mean <= I almost surely" are realized by
deterministic per-trial rescaling (:func:`enforce_premise`); reports label
them as enforced.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .core import (
    FROBENIUS,
    HermitianStack,
    HermitianTensor,
    NotPositiveDefiniteError,
    TensorShape,
    _TINY,
    _ascending,
    _certified,
    _composed,
    _ct,
    _gate_pd,
    _loewner_gap,
    _number,
    _quiet,
    _spectral_scale,
    _symmetrize,
    apply_spectral,
    gauge_norm,
    spectral_power,
)
from .functions import (
    ConnectionFunction,
    _admit,
    ando_hiai_g,
    check_pmd,
    check_pmi,
    derivative_at_one,
    from_id,
    power_exponent,
    power_lift,
)
from .means import _powered_mean, _psd_root, _quotient_levels, epsilon_mean_limit, mean_pd
from .bounds import (
    _kk_lists,
    _kyfan_profile,
    _ratio_extremes,
    _tail_power,
    _tail_summary,
    kantorovich,
    prop310_factors,
    psi_factors,
)
from .lie_trotter import _ordering_sides, convergence_study
from .data_processing import (
    DominationPair,
    _fusion_sides,
    _transform_sides,
    congruence,
    mean_on_pair,
    pinching,
)

__all__ = [
    "ConfigError",
    "EnsembleSpec",
    "sample",
    "enforce_premise",
    "SuiteId",
    "ExperimentConfig",
    "VerificationReport",
    "run_suite",
    "run_suites",
    "REPORT_VERSION",
]

REPORT_VERSION = "tmlab-report/2"

# Sweep of multiples of the identity used as tail-event thresholds.  Powers
# of two, so ``Tr(X) / c`` is ``Tr(X (c I)^-1)`` bit for bit.
C_SWEEP = (0.5, 1.0, 2.0)

# Byte budget of a trial chunk's live set.  Each suite runs its trials in
# chunks of at most STACK_BYTES // (16 D^2) trials, one 128 KiB stack of
# complex D x D matrices.  A chunk keeps up to about 24 such stacks alive at
# once (APP_Fusion, which sets the peak memory at D = 64), so what it holds
# is about 3 MiB whatever the trial count: 2 trials at D = 64, 32 at
# D = 16, and all 200 default trials at D = 4.  tools/suite_peaks.py prints
# each suite's traced peak.
STACK_BYTES = 128 * 1024


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic family of random Hermitian tensors.

    Kinds: ``wishart`` (complex Wishart scaled by dof, plus a 1e-6 identity
    ridge, PD), ``spectrum`` (Haar-like eigenbasis with eigenvalues uniform
    in [m, M]; ``m == M`` returns the exact multiple of the identity), and
    ``rank_deficient`` (truncated Wishart with the target rank).  Samples
    are a pure function of ``(seed, trial)``.
    """

    shape: TensorShape
    kind: str
    seed: int
    dof: int = 8
    m: float = 0.0
    M: float = 1.0
    rank: int = 1

    def __post_init__(self):
        if self.kind not in ("wishart", "spectrum", "rank_deficient"):
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        for name, integral in (("seed", True), ("dof", True), ("rank", True), ("m", False), ("M", False)):
            object.__setattr__(self, name, _number(name, getattr(self, name), integral))
        if self.kind == "wishart" and self.dof < 1:
            raise ConfigError("wishart needs dof >= 1")
        if self.kind == "spectrum" and not 0.0 <= self.M - self.m < math.inf:
            raise ConfigError(f"spectrum needs m <= M with a finite range M - m, got [{self.m}, {self.M}]")
        if self.kind == "rank_deficient" and not 1 <= self.rank <= self.shape.square_dim:
            raise ConfigError(f"rank must lie in 1..{self.shape.square_dim}")


def _of_kind(name: str, value, kind, what: str):
    """``value`` when it is an instance of ``kind``, else :class:`ConfigError`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


# SeedSequence's hash constants (NumPy's ``bit_generator.pyx``, stable by
# NEP 19) and the 128-bit PCG64 multiplier (O'Neill 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


# The hash multipliers ``init * mult**k mod 2**32``: a spawned seed sequence
# hashes 2 spawn-key words into its 4 pool words at k = 16..24 of the A chain
# (the seed's own pool took k = 0..15) and 8 words out of it on the B chain.
_SPAWN_A = np.array([_INIT_A * pow(_MULT_A, k, 2**32) & _M32 for k in range(16, 25)], dtype=np.uint32)[:, None]
_CHAIN_B = np.array([_INIT_B * pow(_MULT_B, k, 2**32) & _M32 for k in range(9)], dtype=np.uint32)[:, None]


def _hashmix(value, xor, mult):
    """SeedSequence's hash of 32-bit words on ``uint32`` arrays."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _streams(seed: int, trials, role: int):
    """One stream per trial: an iterator that yields a single reused
    ``Generator(PCG64)``, set in turn to the state of
    ``default_rng(SeedSequence(seed & (2**64 - 1), spawn_key=(t, role)))``
    for each trial ``t``.  Take each stream's draws before advancing.

    The seed's pool of 4 words is numpy's own (``SeedSequence.pool``); only
    the spawn keys are hashed into it, for all trials at once on ``uint32``
    arrays, and each PCG64 seeding step is done on Python 128-bit integers,
    so the states are numpy's own bit for bit.  Trial and role must lie in
    ``[0, 2**32)``: numpy would hash a wider key as two words.
    """
    keys = [int(t) for t in trials]
    bad = [k for k in (*keys, role) if not 0 <= k <= _M32]
    if bad:
        raise ValueError(f"stream trial and role must lie in [0, 2**32), got {bad[0]}")
    pool = np.random.SeedSequence(int(seed) & (2**64 - 1)).pool[:, None]
    pool = _mix(pool, _hashmix(np.array(keys, dtype=np.uint32), _SPAWN_A[:4], _SPAWN_A[1:5]))
    pool = _mix(pool, _hashmix(np.uint32(role), _SPAWN_A[4:8], _SPAWN_A[5:]))
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _CHAIN_B[:8], _CHAIN_B[1:])
    seeds = np.ascontiguousarray(words.T).astype("<u4").view("<u8").tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def sample(spec: EnsembleSpec, trial: int, role: int = 0) -> HermitianTensor:
    """Draw the ensemble member for one trial; bitwise reproducible.

    ``role`` selects an independent stream for further draws of the same
    trial (the default 0 is the primary draw).  The batch of one of
    :func:`_draw`, with the eigenpairs that a ``spectrum`` draw is born with.
    """
    # The stream keys check the trial's range.
    return _draw(spec, (_number("trial", trial, integral=True),), role)._member(0)


def _draw(spec: EnsembleSpec, trials, role: int = 0) -> HermitianStack:
    """The ensemble members of a run of trials as one stack.

    Member ``t`` comes from its own stream, through :func:`_stacked`, in
    the same order as a lone :func:`sample`; the matrices are then formed as
    one stack, Hermitian by construction: a rotated spectrum (born with its
    eigenpairs, and formed on first read), or a Gram matrix through
    :func:`_symmetrize`.
    """
    d = spec.shape.square_dim
    if spec.kind == "spectrum" and spec.m == spec.M:
        m, eye = spec.m, np.broadcast_to(np.eye(d, dtype=np.complex128), (len(trials), d, d))
        return HermitianStack._trusted(lambda: eye * m, spec.shape, values=np.full((len(trials), d), m), vectors=eye)
    if spec.kind == "spectrum":
        gauss, lam = _stacked(spec.seed, trials, role, ((2, d, d), None), ((d,), (spec.m, spec.M)))
        # Interior margin keeps the reconstructed spectrum inside [m, M]
        # despite rounding in the congruence.
        margin = 64.0 * np.finfo(float).eps * max(1.0, abs(spec.m), abs(spec.M))
        if spec.M - spec.m > 4.0 * margin:
            lam = np.clip(lam, spec.m + margin, spec.M - margin)
        return _rotated(np.linalg.qr(gauss)[0], lam, spec.shape)
    rows = spec.dof if spec.kind == "wishart" else spec.rank
    (g,) = _stacked(spec.seed, trials, role, ((2, rows, d), None))
    gram = _ct(g) @ g / rows
    if spec.kind == "wishart":
        gram += 1e-6 * np.eye(d)
    # Hermitian by construction: _validated's half + adjoint, without its norms.
    return HermitianStack._trusted(_symmetrize(gram), spec.shape)


def _stacked(seed: int, trials, role: int, *parts) -> list[np.ndarray]:
    """The draws of a run of trials, one stack per part ``(shape, span)``:
    trial ``k`` fills row ``k`` of each from its stream, parts in order, with
    uniforms ``m + (M - m) * U[0, 1)`` on ``span = (m, M)``, the formula and
    so the bits of ``Generator.uniform``, or, when ``span`` is None, complex
    Gaussians ``(re + 1j * im) / sqrt(2)`` drawn as re then im on axis -3."""
    stacks = [np.empty((len(trials), *shape)) for shape, _ in parts]
    for k, rng in enumerate(_streams(seed, trials, role)):
        if not k:
            fills = [(rng.standard_normal if span is None else rng.random, stack)
                     for (_, span), stack in zip(parts, stacks)]
        for fill, stack in fills:
            fill(out=stack[k])
    return [_complex_gaussian(g) if span is None else span[0] + (span[1] - span[0]) * g
            for (_, span), g in zip(parts, stacks)]


def _complex_gaussian(g: np.ndarray) -> np.ndarray:
    """``(re + 1j * im) / sqrt(2)`` of the halves ``re, im`` on axis -3 of
    ``g``, each written into its part of one complex array times ``1 /
    sqrt(2)``: the bits of numpy's complex division by ``sqrt(2)``, whose
    Smith formula multiplies by the reciprocal, but for the sign of a part
    that is exactly zero."""
    z = np.empty(g.shape[:-3] + g.shape[-2:], dtype=np.complex128)
    for k, part in enumerate((z.real, z.imag)):
        np.multiply(g[..., k, :, :], 1.0 / math.sqrt(2.0), out=part)
    return z


def _rotated(q: np.ndarray, lam: np.ndarray, shape: TensorShape) -> HermitianStack:
    """Stack of ``q diag(lam) q^H`` for unitary ``q``, of tensor ``shape``,
    born with the eigenpairs :func:`core._ascending` gives it; its matrix
    is formed by :func:`core._composed` on first read."""
    values, vectors = _ascending(lam, q)
    return HermitianStack._trusted(lambda: _composed(lam, q), shape, values=values, vectors=vectors)


# Stream roles of the further draws of a trial (the primary draw is role 0):
# the Wishart conjugated into a dominated draw, the second PD pair of the
# two-pair suites, APP_LinearTransform's two random maps and L3's second
# increment.
_DOMINATED_ROLE = 3
_SECONDARY_ROLE = 5
_MAP_ROLE = 6
_INCREMENT_ROLE = 7


def dominated_sample(y: HermitianTensor, spec: EnsembleSpec, trial: int) -> HermitianTensor:
    """PSD tensor dominated by ``y`` with range inside range(y).

    Conjugates a PD draw by the rank-truncated square root of ``y``, so the
    pair is admissible for the PSD mean extension by construction.
    """
    w = sample(_dominating_spec(spec, y.shape), trial, _DOMINATED_ROLE)
    return _dominate(y, w)


def _dominating_spec(spec: EnsembleSpec, shape: TensorShape) -> EnsembleSpec:
    """The Wishart that :func:`dominated_sample` conjugates: ``spec``'s dof
    when ``spec`` is a Wishart, else the default dof of the dimension."""
    dof = spec.dof if spec.kind == "wishart" else _wishart_dof(shape.square_dim)
    return EnsembleSpec(shape, "wishart", spec.seed, dof=dof)


@_quiet
def _dominate(y: HermitianStack, w: HermitianStack) -> HermitianStack:
    """``y^{1/2} w y^{1/2}`` per matrix, with the rank-truncated root."""
    root = _psd_root(y)
    return y._derive(_symmetrize(root @ w.unfold() @ root))


def _premise_pair(run, trials, big_f, direction):
    """Premise enforcement at the suite boundary: the x/y draws of a chunk
    of trials and their mean, rescaled for ``direction`` (see
    :func:`_rescale`).  Non-PD draws are a configuration problem (the
    premise suites need PD ensembles in both slots).

    T3, T9 and C4 rescale for ``leq`` only: the ``geq`` pair is ``rho =
    t_top / t_bot`` times it, ``1 / rho`` the ``leq`` mean's bottom
    eigenvalue, so by the positive homogeneity of Kubo–Ando means each
    ``geq`` side is the ``leq`` side times a power of ``rho``."""
    x, y = run.pair(trials)
    try:
        base = mean_pd(x, y, big_f)
    except NotPositiveDefiniteError as exc:
        raise ConfigError(f"needs PD ensembles in both slots: {exc}") from exc
    return _rescale(x, y, base, direction, f"at m={run.cfg.exponents['m']}")


def enforce_premise(
    x: HermitianTensor,
    y: HermitianTensor,
    big_f: ConnectionFunction,
    direction: str = "leq",
) -> tuple[HermitianTensor, HermitianTensor]:
    """Rescale a PD pair so the mean premise holds with equality.

    ``direction="leq"`` divides both tensors by the top eigenvalue of the
    mean, making ``mean(x', y') <= I`` exact up to rounding (positive
    homogeneity); ``"geq"`` uses the bottom eigenvalue.
    """
    if direction not in ("leq", "geq"):
        raise ValueError(f"direction must be 'leq' or 'geq', got {direction!r}")
    return _rescale(x, y, mean_pd(x, y, big_f), direction, "enforce_premise")[:2]


@_quiet
def _rescale(x, y, base, direction, where):
    """``(x / t, y / t, base / t)`` for the extreme eigenvalue ``t`` of the
    mean ``base`` that the premise fixes at 1 (``base / t`` by homogeneity).

    The pair maps the eigenpairs of x and y (:func:`apply_spectral`), so it
    is born with both spectral caches; ``base / t`` is born with base's
    values divided by ``t``, the values ``t`` is read from, so no rescaled
    stack is decomposed again.  A scale ``t <= 0`` raises
    :class:`ConfigError` naming ``where``.
    """
    w = base._eigenvalues()
    t = w[..., -1] if direction == "leq" else w[..., 0]
    if (t <= 0.0).any():
        raise ConfigError(
            f"{where}: premise scale t = {np.min(t):.3e} is not positive; "
            "the premise mean's bottom eigenvalue is below float64 resolution"
        )

    def scaled(lam):
        return lam / t[..., None]

    mean = base._derive(base.unfold() * (1.0 / t)[..., None, None], values=scaled(w))
    return apply_spectral(x, scaled), apply_spectral(y, scaled), mean


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class SuiteId(enum.Enum):
    L1_PowerMonotone = "L1_PowerMonotone"
    L2_Kantorovich = "L2_Kantorovich"
    L3_MarkovChebyshev = "L3_MarkovChebyshev"
    T1_AndoHiaiGeneralized = "T1_AndoHiaiGeneralized"
    C1_AndoHiaiDual = "C1_AndoHiaiDual"
    T2_LieTrotterLimit = "T2_LieTrotterLimit"
    T3_LieTrotterTail = "T3_LieTrotterTail"
    T7_Psi = "T7_Psi"
    T8_Phi = "T8_Phi"
    T9_TC = "T9_TC"
    C2_MajorizationTMI = "C2_MajorizationTMI"
    C3_MajorizationTMD = "C3_MajorizationTMD"
    C4_MajorizationTC = "C4_MajorizationTC"
    T63_PsdLimit = "T63_PsdLimit"
    T65_JointConvexity = "T65_JointConvexity"
    APP_Fusion = "APP_Fusion"
    APP_LinearTransform = "APP_LinearTransform"


SUITE_ORDER = tuple(SuiteId)
_SUITE_INDEX = {sid: i for i, sid in enumerate(SUITE_ORDER)}

_EXPONENT_DEFAULTS = {"q": 2.0, "p": 1.0, "m": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated harness configuration (see README for the JSON schema)."""

    seed: int = 20260809
    trials: int = 200
    shape: tuple[int, ...] = (2, 2)
    ensembles: dict | None = None
    function: str | None = None
    exponents: dict = field(default_factory=lambda: dict(_EXPONENT_DEFAULTS))
    tolerance: float = 1e-8
    suites: tuple[str, ...] = tuple(s.value for s in SUITE_ORDER)

    def __post_init__(self):
        """Checks every field; a number that fails :func:`core._number`
        raises its ``ConfigError`` here."""
        try:
            self._check()
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _check(self):
        object.__setattr__(self, "seed", _number("seed", self.seed, integral=True))
        object.__setattr__(self, "trials", _number("trials", self.trials, integral=True, low=1, high=2**32 - 1))
        object.__setattr__(self, "tolerance", _number("tolerance", self.tolerance, low=_TINY))
        shape = _of_kind("shape", self.shape, (list, tuple), "a list of integers >= 1")
        object.__setattr__(self, "shape", TensorShape([_number("shape entry", d, True, low=1) for d in shape]).dims)
        exps = {**_EXPONENT_DEFAULTS, **_of_kind("exponents", self.exponents, dict, "an object")}
        if set(exps) != set(_EXPONENT_DEFAULTS):
            raise ConfigError(f"exponents accepts keys {sorted(_EXPONENT_DEFAULTS)}")
        object.__setattr__(self, "exponents", {"q": _number("exponent q", exps["q"], low=_TINY),
                                               "p": _number("exponent p", exps["p"], low=_TINY),
                                               "m": _number("exponent m", exps["m"], integral=True, low=2)})
        object.__setattr__(self, "suites", tuple(_of_kind("suites", self.suites, (list, tuple), "a list of suite ids")))
        bad = [s for s in self.suites if not isinstance(s, str) or s not in SuiteId.__members__]
        if bad:
            raise ConfigError(f"unknown suites {bad}")
        if self.function is not None:
            from_id(_of_kind("function", self.function, str, "a string"))
        if self.ensembles is not None:
            if not isinstance(self.ensembles, dict) or set(self.ensembles) != {"x", "y"}:
                raise ConfigError("ensembles needs exactly the keys 'x' and 'y'")
            for params in self.ensembles.values():
                self._ensemble_from_params(params, seed=0)

    def _ensemble_from_params(self, params: dict, seed: int) -> EnsembleSpec:
        if not isinstance(params, dict) or "kind" not in params:
            raise ConfigError(f"ensemble spec needs a 'kind': {params!r}")
        extra = set(params) - {"kind", "dof", "m", "M", "rank"}
        if extra:
            raise ConfigError(f"unknown ensemble fields {sorted(extra)}")
        return EnsembleSpec(TensorShape(self.shape), seed=seed, **params)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        extra = set(_of_kind("config", payload, dict, "an object")) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields {sorted(extra)}")
        return cls(**payload)

    def to_dict(self) -> dict:
        return {**asdict(self), "shape": list(self.shape), "suites": list(self.suites)}


@dataclass(frozen=True)
class VerificationReport:
    """Per-suite Monte Carlo result with stable JSON field order."""

    suite: str
    trials: int
    violations: int
    max_violation: float
    empirical_prob: float
    bound_value: float | None
    mc_stderr: float
    seed: int
    tolerance: float
    regime_notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"version": REPORT_VERSION, **asdict(self), "regime_notes": list(self.regime_notes)}


# ---------------------------------------------------------------------------
# running a suite
# ---------------------------------------------------------------------------


def _wishart_dof(d: int) -> int:
    # Wishart dof grows with the unfolding dimension so that premise
    # rescaling (division by extreme eigenvalues of the mean) keeps the
    # scaled draws well conditioned at any desk-scale shape.
    return max(8, 2 * d)


def _pd_pair(d: int) -> dict:
    return {"x": {"kind": "wishart", "dof": _wishart_dof(d)}, "y": {"kind": "spectrum", "m": 0.3, "M": 2.0}}


def _wishart_pair(d: int) -> dict:
    return {"x": {"kind": "wishart", "dof": _wishart_dof(d)}, "y": {"kind": "wishart", "dof": _wishart_dof(d)}}


@dataclass(frozen=True)
class _Suite:
    """One row of :data:`_SUITES`: what a suite runs, with which generator,
    on which ensembles.

    ``function`` is the default generator id (``None``: the suite takes no
    generator).  The generator, default or configured, must pass
    :func:`functions._admit` for ``normalized``, the class ``tag`` and, with
    ``zero_limit``, a finite limit at 0+.
    ``ensembles`` maps the unfolding dimension D to the default x/y
    ensembles, written in the config's ``ensembles`` format; ``second``
    does the same for the second PD pair of the two-pair suites, drawn on
    the primary seeds at role ``_SECONDARY_ROLE`` whatever the config's
    ensembles.
    """

    runner: Callable
    function: str | None = None
    tag: str | None = None
    normalized: bool = True
    zero_limit: bool = False
    ensembles: Callable[[int], dict] = _pd_pair
    second: Callable[[int], dict] | None = None


@dataclass(frozen=True)
class _Run:
    """What a runner gets: the suite, the config, the regime notes so far
    (appended to in place), the checked generator, and the ensembles of the
    x/y pair and, for the two-pair suites, of the second pair."""

    sid: SuiteId
    cfg: ExperimentConfig
    notes: list
    fn: ConnectionFunction | None
    ex: EnsembleSpec
    ey: EnsembleSpec
    second: tuple[EnsembleSpec, EnsembleSpec] | None

    def pair(self, trials) -> tuple[HermitianStack, HermitianStack]:
        """The x and y draws of a chunk of trials."""
        return _draw(self.ex, trials), _draw(self.ey, trials)


def _suite_function(cfg: ExperimentConfig, row: _Suite) -> ConnectionFunction:
    """The suite's generator, admitted by the library's rule for the row's
    ``tag``, ``zero_limit`` and ``normalized``."""
    fn = from_id(cfg.function if cfg.function is not None else row.function)
    try:
        return _admit(fn, row.tag, row.zero_limit, normalized=row.normalized)
    except ValueError as exc:
        raise ConfigError(f"cannot run: {exc}") from exc


def _specs(cfg: ExperimentConfig, ensembles: dict, seeds) -> tuple[EnsembleSpec, EnsembleSpec]:
    return tuple(cfg._ensemble_from_params(ensembles[role], seed) for role, seed in zip("xy", seeds))


def _mix_seed(seed: int, suite_idx: int, role: int) -> int:
    return (int(seed) * 1000003 + suite_idx * 1009 + role) & (2**63 - 1)


def _binom_stderr(p_hat, n: int):
    """The binomial standard error ``sqrt(p (1 - p) / n)`` of observed
    frequencies ``p_hat``, a number or an array, over ``n`` trials."""
    return np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n)


@_quiet
def run_suite(sid: SuiteId | str, cfg: ExperimentConfig) -> VerificationReport:
    """Execute one verification suite; deterministic given (config, seed).
    Its refusals, any ``ValueError`` it raises, are raised as a chained
    :class:`ConfigError` that starts with the suite id."""
    if isinstance(sid, str):
        if sid not in SuiteId.__members__:
            raise ConfigError(f"unknown suite {sid!r}")
        sid = SuiteId[sid]
    row = _SUITES[sid]
    notes, fn = [], None
    try:
        if row.function is not None:
            fn = _suite_function(cfg, row)
            notes.append(f"function={fn.label}")
        d = TensorShape(cfg.shape).square_dim
        seeds = [_mix_seed(cfg.seed, _SUITE_INDEX[sid], role) for role in (1, 2)]
        ex, ey = _specs(cfg, row.ensembles(d) if cfg.ensembles is None else cfg.ensembles, seeds)
        second = _specs(cfg, row.second(d), seeds) if row.second else None
        return row.runner(_Run(sid, cfg, notes, fn, ex, ey, second))
    except ValueError as exc:
        raise ConfigError(f"{sid.value}: {exc}") from exc


def run_suites(cfg: ExperimentConfig) -> list[VerificationReport]:
    return [run_suite(name, cfg) for name in cfg.suites]


def _report(run, violations, max_violation, bound, empirical, stderr):
    """Assemble a suite report."""
    trials = run.cfg.trials
    violations = int(violations)
    notes = list(run.notes)
    if violations > trials:
        # Suites that count failing checks rather than failing trials can
        # exceed tiny trial counts; the report contract caps at trials and
        # the raw count stays visible.
        notes.append(f"raw failing-check count {violations} clamped to trials")
        violations = trials
    return VerificationReport(
        suite=run.sid.value,
        trials=trials,
        violations=violations,
        max_violation=float(max_violation),
        empirical_prob=float(empirical),
        bound_value=None if bound is None else float(bound),
        mc_stderr=float(stderr),
        seed=run.cfg.seed,
        tolerance=run.cfg.tolerance,
        regime_notes=tuple(notes),
    )


def _fail_report(run, failed: np.ndarray, worst: np.ndarray, bound=None):
    """Report of the pass/fail suites: the count of failing checks, their
    frequency with its binomial standard error over ``len(failed)``, and
    the worst per-check figure floored at 0."""
    count = np.count_nonzero(failed)
    empirical = count / len(failed)
    return _report(run, count, max(0.0, *worst.tolist()), bound, empirical, _binom_stderr(empirical, len(failed)))


def _chunks(cfg: ExperimentConfig) -> list:
    """Consecutive trial ranges whose stacks fit :data:`STACK_BYTES`."""
    d = TensorShape(cfg.shape).square_dim
    size = max(1, STACK_BYTES // (16 * d * d))
    return [range(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]


def _per_trial(cfg: ExperimentConfig, body) -> list:
    """Run ``body`` on each trial chunk; it returns a sequence of per-trial
    arrays (trial axis first), joined here over the chunks."""
    parts = [body(trials) for trials in _chunks(cfg)]
    return [np.concatenate(column) for column in zip(*parts)]


def _excess(lhs, rhs) -> np.ndarray:
    """The one Loewner rule of the suites: the relative excess of ``lhs``
    over ``rhs``, ``lambda_max(lhs - rhs) / max(|lhs|_sp, |rhs|_sp, 1)`` per
    matrix, read from ``core._loewner_gap`` as ``tmlab.loewner_compare``
    reads it; ``lhs <= rhs`` fails when it is above the tolerance.  Either
    side may be a stack or per-matrix numbers ``c`` standing for ``c I``.

    A stack against a stack is first offered to ``core._certified``: when
    it certifies every matrix, every excess is ``<= 0`` and the rule
    returns the floor 0 of ``max_violation`` without reading a spectrum.
    """
    if isinstance(lhs, HermitianStack) and isinstance(rhs, HermitianStack) and _certified(lhs, rhs):
        return np.zeros(lhs.unfold().shape[:-2])
    _, top = _loewner_gap(lhs, rhs)
    return top / np.maximum(np.maximum(_spectral_scale(lhs), _spectral_scale(rhs)), 1.0)


def _tail_columns(cfg, checks) -> list:
    """Per-trial inputs of the tail rule for one chunk of trials.

    ``checks`` are ``(events, traces)`` pairs: the event stacks (or per-trial
    numbers standing for multiples of I) and the per-trial
    ``Tr(tail**power)``.  Returns two arrays of shape
    ``(trials, checks, len(C_SWEEP))``: whether ``event <= c I`` holds by
    :func:`_excess`, and the trace statistic
    ``Tr(tail**power (c I)^-1) = Tr(tail**power) / c``.
    """
    c = np.array(C_SWEEP)
    held = [_excess(events, c[:, None]).T <= cfg.tolerance for events, _ in checks]
    stats = np.stack([traces[:, None] / c for _, traces in checks], axis=1)
    if not np.isfinite(stats).all():
        raise ValueError("a trace statistic Tr(tail**power) / c leaves double range")
    return [np.stack(held, axis=1), stats]


def _power_trace(z: HermitianStack, power: float) -> np.ndarray:
    """``Tr(z**power)`` of every matrix of a PSD stack."""
    return np.trace(_tail_power(z, power).unfold(), axis1=-2, axis2=-1).real


def _tail_report(run, rows, held, stats, after=()):
    """Tail-event rule shared by the tail-bound suites.

    Each row is ``(note prefix, check, c index)`` into the
    :func:`_tail_columns` of all trials.  The empirical frequency of
    ``event not<= c I`` is checked against the trace bound
    ``Tr(mean(tail**power) (c I)^-1)``; the row counts one violation when it
    exceeds ``min(1, bound) + 3 * stderr``.  The report carries the row with
    the largest margin over the clamped bound.  ``after`` notes follow the
    per-row notes.
    """
    trials = run.cfg.trials
    viol, worst = 0, None
    for prefix, check, j in rows:
        emp = int(np.count_nonzero(~held[:, check, j])) / trials
        bound, se = _tail_summary(stats[:, check, j].tolist())
        if emp > min(1.0, bound) + 3.0 * (se + _binom_stderr(emp, trials)):
            viol += 1
        margin = emp - min(1.0, bound)
        if worst is None or margin > worst[0]:
            worst = (margin, bound, emp)
        run.notes.append(f"{prefix}: empirical={emp:.6g} bound={bound:.6g} stderr={se:.3g}")
    run.notes.extend(after)
    margin, bound, emp = worst
    return _report(run, viol, max(0.0, margin), bound, empirical=emp, stderr=_binom_stderr(emp, trials))


def _sweep_rows(labels):
    """Tail rows with the threshold outermost, then the checks."""
    return [(f"c={c:g} {label}", i, j) for j, c in enumerate(C_SWEEP) for i, label in enumerate(labels)]


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _suite_l1(run):
    for slot, spec in (("x", run.ex), ("y", run.ey)):
        # b = y and a = y + x must be PSD for the power ordering to apply.
        if spec.kind == "spectrum" and spec.m < 0:
            raise ConfigError(f"needs PSD ensembles in both slots; {slot} is a spectrum on [{spec.m:g}, {spec.M:g}]")
    q = run.cfg.exponents["q"]
    if not 0.0 <= q <= 1.0:
        q = 0.5
        run.notes.append("q outside [0,1]; using q=0.5")
    run.notes.append(f"q={q:g}")

    def body(trials):
        b = _draw(run.ey, trials)
        a = b + _draw(run.ex, trials)
        return (_excess(spectral_power(b, q), spectral_power(a, q)),)

    (excesses,) = _per_trial(run.cfg, body)
    return _fail_report(run, excesses > run.cfg.tolerance, excesses)


def _suite_l2(run):
    p = run.cfg.exponents["p"]
    if 0.0 <= p <= 1.0:
        p = 2.0
        run.notes.append("p inside [0,1] is the trivial constant-1 regime; using p=2")
    run.notes.append(f"p={p:g}; constants from per-trial observed spectrum extremes")

    def body(trials):
        b = _draw(run.ey, trials)
        a = b + _draw(run.ex, trials)
        if not p.is_integer():
            # The power reads a's eigenpairs, the constant its extremes: one eigh.
            a = a._decomposed()
        ap = spectral_power(a, p)
        bp = spectral_power(b, p)
        out = []
        for ref in (a, b):
            w = ref._eigenvalues()
            k = kantorovich(w[:, 0], w[:, -1], p)
            out += [k, _excess(bp, k * ap)]
        return out

    k_a, excess_a, k_b, excess_b = _per_trial(run.cfg, body)
    excesses = np.maximum(np.maximum(0.0, excess_a), excess_b)
    return _fail_report(run, excesses > run.cfg.tolerance, excesses,
                        bound=math.fsum(np.concatenate((k_a, k_b))) / (2 * len(k_a)))


def _suite_l3(run):
    if run.ey.kind != "spectrum":
        raise ConfigError("draws its second increment on the y spectrum [m, M]; "
                          f"y must be a spectrum ensemble, got {run.ey.kind!r}")
    q = max(1.0, run.cfg.exponents["q"])
    run.notes.append(f"q={q:g}; chain built as x, x+p1, x+p1+p2 with PSD increments")

    def body(trials):
        x, p1 = run.pair(trials)
        y = x + p1
        if not q.is_integer():
            # y's power and its tail event read one eigh.
            y = y._decomposed()
        z = y + _increments(run.ey, trials)
        return _tail_columns(run.cfg, ((y, _power_trace(z, q)), (x, _power_trace(y, q))))

    rows = _sweep_rows(("Pr(y not<= C) vs E[z^q]", "Pr(x not<= C) vs E[y^q]"))
    return _tail_report(run, rows, *_per_trial(run.cfg, body))


def _increments(spec: EnsembleSpec, trials) -> HermitianStack:
    """L3's second increments: Haar-like rotations of eigenvalues uniform in
    the spectrum ensemble's ``[m, M]`` (no interior margin), drawn from the
    streams of role ``_INCREMENT_ROLE``, eigenvalues first."""
    d = spec.shape.square_dim
    lam, gauss = _stacked(spec.seed, trials, _INCREMENT_ROLE, ((d,), (spec.m, spec.M)), ((2, d, d), None))
    return _rotated(np.linalg.qr(gauss)[0], lam, spec.shape)


def _ando_hiai_bound_parts(m: int):
    """Half-index and product start for the lifted exponent m."""
    if m % 2:
        return (m + 1) // 2, 2
    return m // 2, 1


def _suite_ando_hiai(run, direction):
    """T1 (``leq``: top eigenvalue under ``m1 * prod K_k``) and its dual C1
    (``geq``: bottom eigenvalue over ``1 / (m2 * prod K_k)``)."""
    leq = direction == "leq"
    cfg, fn, notes = run.cfg, run.fn, run.notes
    q = cfg.exponents["q"]
    m = cfg.exponents["m"]
    lifted = power_lift(fn, m)
    half, k_start = _ando_hiai_bound_parts(m)
    g_aux = ando_hiai_g(fn, m)
    name = "m1" if leq else "m2"
    if power_exponent(fn) is not None:
        const = 1.0
        notes.append(f"{name}=1 exactly (power generator)")
    else:
        certify = check_pmi if leq else check_pmd
        const = certify(fn, q_grid=(q,) if q > 1 else (1.0,)).m1_estimate
        notes.append(f"{name}={const:.6g} from grid certificate (working definition)")
    if leq:
        notes.append(f"m={m}, q={q:g}; premise enforced by rescaling")
    else:
        notes.append(f"m={m}, q={q:g}; dual premise (mean >= I) enforced by rescaling")
        notes.append("generator tagged TMI with the pmd certificate; corollary hypothesis read as stated")

    def body(trials):
        xp, yp, _ = _premise_pair(run, trials, lifted, direction)
        factors = const * _kk_lists(xp, g_aux, half, q, k_start).prod(axis=-1)
        mean = _powered_mean(xp, yp, lifted, q)
        return (factors, _excess(mean, factors)) if leq else (1.0 / factors, _excess(1.0 / factors, mean))

    bounds, excesses = _per_trial(cfg, body)
    return _fail_report(run, excesses > cfg.tolerance, excesses, math.fsum(bounds.tolist()) / len(bounds))


def _suite_t2(run):
    q_grid = tuple(2.0**-k for k in range(1, 9))
    run.notes.append("q grid 2^-1 .. 2^-8; monotone with 5% slack; final relative error <= 1e-2")

    def body(trials):
        study = convergence_study(*run.pair(trials), run.fn, q_grid, FROBENIUS)
        return study.monotone, study.final_relative_error

    monotone, final = _per_trial(run.cfg, body)
    return _fail_report(run, ~monotone | (final > 1e-2), final)


def _suite_t3(run):
    cfg, notes = run.cfg, run.notes
    q = cfg.exponents["q"]
    if not 0.0 < q <= 0.5:
        q = 0.25
        notes.append("q clipped into (0, 1/2]: using q=0.25")
    m = cfg.exponents["m"]
    r = max(1.0, cfg.exponents["p"])
    if r > 1.0:  # the tail power r / q, named by the config's exponents
        _number("exponents.p / exponents.q", r / q)
    lifted = power_lift(run.fn, m)
    w = m + derivative_at_one(run.fn)
    notes.append(f"m={m}, q={q:g}, r={r:g}; premises enforced by rescaling")
    branches = ("pmi", "pmd")

    def body(trials):
        mean_q, rho, pmi, pmd = _lie_trotter_sides(run, trials, lifted, w, q)
        # At r = 1 each tail is its branch's high side.  Else pmi's is
        # mean_q**(r/q), and pmd's the power of the log-affine side, which
        # holds its eigenpairs, scaled by rho**r.
        tails = (pmi[1], pmd[1]) if r == 1.0 else (
            spectral_power(mean_q, r / q), spectral_power(pmi[0], r)._scaled(rho**r))
        flags, checks = [], []
        for (low, high), tail in zip((pmi, pmd), tails):
            head = _excess(low._eigenvalues()[:, -1], high._eigenvalues()[:, -1])
            flags += [_excess(low, high) > cfg.tolerance, head > cfg.tolerance]
            checks.append((low, _power_trace(tail, 1.0)))
        return flags + _tail_columns(cfg, checks)

    columns = _per_trial(cfg, body)
    rows = [(f"{branch} c={c:g}", i, j) for i, branch in enumerate(branches) for j, c in enumerate(C_SWEEP)]
    after = [
        f"{branch} deterministic Loewner chain failures: {np.count_nonzero(columns[2 * i])}/{cfg.trials}; "
        f"top-eigenvalue order failures: {np.count_nonzero(columns[2 * i + 1])}/{cfg.trials}"
        for i, branch in enumerate(branches)
    ]
    after.append("tail bound uses exp of the log-affine combination (proof-consistent form)")
    return _tail_report(run, rows, *columns[4:], after)


def _lie_trotter_sides(run, trials, lifted, w, q):
    """T3's sides for one chunk: ``mean_q`` of the ``leq`` pair, ``rho``,
    then each branch's ``(low, high)``, pmi's ``log_affine <= root_mean``
    on the ``leq`` pair and pmd's reverse order on the ``geq`` pair, whose
    sides, of degree 1, are ``rho`` times those (see :func:`_premise_pair`)."""
    xp, yp, mean = _premise_pair(run, trials, lifted, "leq")
    log_affine, mean_q, root_mean = _ordering_sides(xp, yp, lifted, w, q)
    rho = 1.0 / mean._eigenvalues()[:, 0]
    return mean_q, rho, (log_affine, root_mean), (root_mean._scaled(rho), log_affine._scaled(rho))


def _dyadic_q(run) -> float:
    """Exponent q of the dyadic-factor suites."""
    q = run.cfg.exponents["q"]
    if q < 1.0:
        run.notes.append("q < 1 is the single-factor regime; using q=2")
        return 2.0
    return q


def _dyadic_stacks(run, q, direction, trials):
    """Premise-enforced dyadic-factor stages for one chunk: the lower
    companion stack, the powered means and the upper companion stack."""
    fn = run.fn
    xp, yp, base = _premise_pair(run, trials, fn, direction)
    lo, up = psi_factors(q, fn, xp, yp)
    mean_q = _powered_mean(xp, yp, fn, q)
    w = base._eigenvalues()
    return base._scaled(lo * w[:, -1] ** (q - 1.0)), mean_q, base._scaled(up * w[:, 0] ** (q - 1.0))


def _suite_dyadic_tail(run, direction):
    q = _dyadic_q(run)
    p = max(1.0, run.cfg.exponents["p"])
    run.notes.append(f"q={q:g}, p={p:g}; premise enforced by rescaling; factors from dyadic quotients")

    def body(trials):
        lower, mid, upper = _dyadic_stacks(run, q, direction, trials)
        failed = np.maximum(_excess(lower, mid), _excess(mid, upper)) > run.cfg.tolerance
        return [failed] + _tail_columns(run.cfg, ((mid, _power_trace(upper, p)), (lower, _power_trace(mid, p))))

    columns = _per_trial(run.cfg, body)
    chain_fail = np.count_nonzero(columns[0])
    rows = _sweep_rows(("mean^q vs upper", "lower vs mean^q"))
    return _tail_report(run, rows, *columns[1:],
                        [f"deterministic sandwich failures: {chain_fail}/{run.cfg.trials}"])


def _cap_floor_stacks(run, q, trials):
    """Premise-enforced Kantorovich cap/floor stages for one chunk.

    Returns the powered mean under the ``leq`` premise with its scalar
    caps, then under the ``geq`` premise, ``rho**q`` times it (see
    :func:`_premise_pair`), with its scalar floors.  The quotient, its
    ratio extremes and the Kantorovich pair, of degree 0, serve both.
    """
    fn = run.fn
    xp, yp, base = _premise_pair(run, trials, fn, "leq")
    k1, k2 = prop310_factors(xp, q)
    (z,), live = _quotient_levels(xp, yp, 0)
    if (z[:, 0] <= 0.0).any():
        raise ConfigError(
            "the Kantorovich cap/floor suite needs an invertible quotient of (y, x); "
            "use PD ensembles for both slots"
        )
    mean_q = _powered_mean(xp, yp, fn, q)
    ratio = _ratio_extremes(1.0 / z, live, fn, q)[1]
    # The bottom eigenvalue of the leq mean is 1 / rho, that of the geq mean 1.
    bottom = base._eigenvalues()[:, 0]
    caps = k1 * k2 * (bottom ** (1.0 - q) * ratio)
    if not np.isfinite(caps).all():
        raise ValueError("the Kantorovich cap leaves double range")
    # A finite ratio over k2 >= 1 is a finite floor.
    return mean_q, caps, mean_q._scaled(bottom**-q), ratio / k2


def _suite_t9(run):
    q = max(1.0, run.cfg.exponents["q"])
    p = max(1.0, run.cfg.exponents["p"])
    d = run.ex.shape.square_dim
    run.notes.append(f"q={q:g}, p={p:g}; quotient tensor from the inverse eta of (y, x)")
    tol = run.cfg.tolerance

    def body(trials):
        mid_leq, caps, mid_geq, floors = _cap_floor_stacks(run, q, trials)
        cap_fail = _excess(mid_leq, caps) > tol
        floor_fail = _excess(floors, mid_geq) > tol
        # The caps are scalar multiples of I: Tr((cap I)**p) = d cap**p, checked by _tail_columns.
        cap_trace = d * caps**p
        return [cap_fail, floor_fail] + _tail_columns(run.cfg, ((mid_leq, cap_trace),
                                                                (floors, _power_trace(mid_geq, p))))

    columns = _per_trial(run.cfg, body)
    chain_fail = np.count_nonzero(columns[0]) + np.count_nonzero(columns[1])
    rows = _sweep_rows(("mean^q vs K cap", "K floor vs mean^q"))
    return _tail_report(run, rows, *columns[2:],
                        [f"deterministic cap/floor failures: {chain_fail}/{2 * run.cfg.trials}"])


def _cdf_dominance(low, mid, high, n, levels, tol):
    """Check Pr(low >= kappa) <= Pr(mid >= kappa) <= Pr(high >= kappa) beyond
    3 standard errors on a deterministic quantile grid of the mid statistic,
    for every column of the per-trial statistics (trials first) at once.
    A side counts past ``kappa`` only beyond the slack
    ``tol * max(|kappa|, 1)``, the scale of :func:`_excess`, so a side that
    ties the mid to rounding does not flip a count.  Returns per column the
    number of failing grid points and the worst excess, floored at 0."""
    kappa = np.quantile(mid, levels, axis=0)[:, None]
    slack = tol * np.maximum(np.abs(kappa), 1.0)
    p_lo, p_md, p_hi = (np.count_nonzero(v >= k, axis=1) / n
                        for v, k in ((low, kappa + slack), (mid, kappa), (high, kappa - slack)))
    s = _binom_stderr(p_md, n)
    bad = np.maximum(p_lo - p_md - 3.0 * (s + _binom_stderr(p_lo, n)), p_md - p_hi - 3.0 * (s + _binom_stderr(p_hi, n)))
    return np.count_nonzero(bad > 0, axis=0), np.maximum(bad.max(axis=0), 0.0)


def _majorization_report(run, sandwiches, levels):
    """The rule of C2, C3 and C4: :func:`_cdf_dominance` of each Ky Fan sum
    and log-sum on the chunks' sandwiches ``(low, mid, high)``.  A side is a
    PD stack or per-trial numbers ``c`` (``c I``, profile ``(k c, k log c)``);
    a one-sided sandwich repeats its mid, whose excess ``-6 stderr`` never
    fails.  A failing (statistic, k) leaves a note."""
    d = run.ex.shape.square_dim
    k = np.arange(1, d + 1)

    def profile(side):
        if isinstance(side, HermitianStack):
            _gate_pd(side._eigenvalues(), "Ky Fan profile input")
            return _kyfan_profile(side)[:, ::2]
        return np.stack([k * side[:, None], k * np.log(side)[:, None]], axis=1)

    def body(trials):
        return [np.stack([profile(side) for side in sandwich], axis=1) for sandwich in sandwiches(trials)]

    profiles = _per_trial(run.cfg, body)
    points = len(profiles) * len(levels)
    # Each sandwich's (statistic, k) columns at once: fails and worst are (2, D).
    checks = [_cdf_dominance(*sides.swapaxes(0, 1), run.cfg.trials, levels, run.cfg.tolerance) for sides in profiles]
    fails = sum(f for f, _ in checks)
    for s, stat in enumerate(("sum", "prod")):
        for j in np.flatnonzero(fails[s]):
            run.notes.append(f"{stat} k={j + 1}: {fails[s, j]}/{points} kappa points fail CDF dominance")
    viol = int(fails.sum())
    worst = max(float(w.max()) for _, w in checks)
    return _report(run, viol, worst, None, viol / (2 * d * points), 0.0)


def _suite_majorization_dyadic(run, direction):
    q = _dyadic_q(run)
    run.notes.append(f"q={q:g}; kappa grid at mid-statistic quantiles (0.1..0.9)")
    return _majorization_report(run, lambda trials: [_dyadic_stacks(run, q, direction, trials)],
                                (0.1, 0.3, 0.5, 0.7, 0.9))


def _suite_c4(run):
    q = max(1.0, run.cfg.exponents["q"])
    run.notes.append(f"q={q:g}; scalar cap/floor tensors, kappa grid at mid quantiles")

    def sandwiches(trials):
        mid_leq, caps, mid_geq, floors = _cap_floor_stacks(run, q, trials)
        return [(mid_leq, mid_leq, caps), (floors, mid_geq, mid_geq)]

    return _majorization_report(run, sandwiches, (0.1, 0.5, 0.9))


def _suite_t63(run):
    eps_grid = (1e-2, 1e-4, 1e-6, 1e-8)
    run.notes.append("epsilon grid 1e-2..1e-8; dominated x built inside range(y)")
    wishart = _dominating_spec(run.ex, run.ex.shape)

    def body(trials):
        y = _draw(run.ey, trials)
        x = _dominate(y, _draw(wishart, trials, _DOMINATED_ROLE))
        limit, diag = epsilon_mean_limit(x, y, run.fn, eps_grid, FROBENIUS)
        return diag.converged, diag.errors[-1] / np.maximum(1e-300, gauge_norm(limit))

    converged, rel = _per_trial(run.cfg, body)
    return _fail_report(run, ~converged, rel)


def _two_pairs(run, trials):
    """Both PD pairs of the two-pair suites for one chunk."""
    sx, sy = run.second
    return (*run.pair(trials), _draw(sx, trials, _SECONDARY_ROLE), _draw(sy, trials, _SECONDARY_ROLE))


_MIX_WEIGHTS = (0.25, 0.5, 0.75)


def _suite_t65(run):
    fn = run.fn
    run.notes.append("mix weights 0.25, 0.5, 0.75")

    def body(trials):
        x1, y1, x2, y2 = _two_pairs(run, trials)
        m1, m2 = mean_pd(x1, y1, fn), mean_pd(x2, y2, fn)
        bad = 0.0
        for lam in _MIX_WEIGHTS:
            lhs = mean_pd(lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2, fn)
            bad = np.maximum(bad, _excess(lhs, lam * m1 + (1 - lam) * m2))
        return (bad,)

    (excesses,) = _per_trial(run.cfg, body)
    return _fail_report(run, excesses > run.cfg.tolerance, excesses)


def _shifted_convex_probe() -> ConnectionFunction:
    """Convex generator with a finite nonzero 0+ limit (value 2 there),
    exercising the weaker hypothesis regime of the fusion statement."""
    return ConnectionFunction(
        fn=lambda x: 2.0 / (1.0 + x),
        label="inverse_arithmetic",
        tags=frozenset({"TMD", "TC"}),
        derivative_at_1=-0.5,
        value_at_0plus=2.0,
    )


def _suite_fusion(run):
    regimes = ((f"zero-limit generator {run.fn.label}", run.fn),
               ("finite nonzero 0+ limit generator inverse_arithmetic", _shifted_convex_probe()))

    def body(trials):
        x1, y1, x2, y2 = _two_pairs(run, trials)
        p1, p2 = DominationPair(x1, y1, "left"), DominationPair(x2, y2, "left")
        fused = DominationPair(x1 + x2, y1 + y2, "left")
        columns = []
        for _, gen in regimes:
            excess = _excess(*_fusion_sides(p1, p2, fused, gen))
            columns += [excess > run.cfg.tolerance, excess]
        return columns

    columns = _per_trial(run.cfg, body)
    for (label, _), failed in zip(regimes, columns[::2]):
        run.notes.append(f"{label}: {np.count_nonzero(failed)}/{run.cfg.trials} violations")
    return _fail_report(run, np.concatenate(columns[::2]), np.concatenate(columns[1::2]))


def _random_maps(spec: EnsembleSpec, trials) -> tuple[np.ndarray, np.ndarray]:
    """APP_LinearTransform's two maps per trial, from the streams of role
    ``_MAP_ROLE``: a complex Gaussian congruence, then a Haar-like unitary."""
    d = spec.shape.square_dim
    cong, gauss = _stacked(spec.seed, trials, _MAP_ROLE, ((2, d, d), None), ((2, d, d), None))
    return cong, np.ascontiguousarray(np.linalg.qr(gauss)[0])


def _suite_transform(run):
    fn, ex = run.fn, run.ex
    d = ex.shape.square_dim
    groups = (tuple(range(d // 2)), tuple(range(d // 2, d)))
    pinch = pinching(groups, ex.shape)
    run.notes.append(f"maps: random congruence, pinching {groups}, unitary congruence (equality case)")

    def body(trials):
        pair = DominationPair(*run.pair(trials), "left")
        cong, unitary = _random_maps(ex, trials)
        pair_mean = mean_on_pair(pair, fn)
        # The mapped mean dominates the mean of the mapped pair.
        return [_excess(*_transform_sides(lmap, pair, pair_mean, fn)[::-1])
                for lmap in (congruence(cong, ex.shape), pinch, congruence(unitary, ex.shape))]

    cong, pinch, unitary = _per_trial(run.cfg, body)
    run.notes.append(f"max |excess| for unitary congruence: {max(0.0, *np.abs(unitary).tolist()):.3e}")
    return _fail_report(run, np.maximum(cong, pinch) > run.cfg.tolerance, np.maximum(cong, pinch))


# One row per suite (see :class:`_Suite`); a new suite is one SuiteId member
# and one row here.
_SUITES = {
    SuiteId.L1_PowerMonotone: _Suite(_suite_l1),
    SuiteId.L2_Kantorovich: _Suite(_suite_l2),
    SuiteId.L3_MarkovChebyshev: _Suite(_suite_l3, ensembles=lambda d: {
        "x": {"kind": "spectrum", "m": 0.1, "M": 0.5}, "y": {"kind": "spectrum", "m": 0.05, "M": 0.3}}),
    SuiteId.T1_AndoHiaiGeneralized: _Suite(partial(_suite_ando_hiai, direction="leq"), "power:0.5", "TMI"),
    SuiteId.C1_AndoHiaiDual: _Suite(partial(_suite_ando_hiai, direction="geq"), "power:0.5", "TMI"),
    SuiteId.T2_LieTrotterLimit: _Suite(_suite_t2, "geometric", ensembles=lambda d: {
        "x": {"kind": "spectrum", "m": -1.0, "M": 1.0}, "y": {"kind": "spectrum", "m": -1.0, "M": 1.0}}),
    SuiteId.T3_LieTrotterTail: _Suite(_suite_t3, "geometric"),
    SuiteId.T7_Psi: _Suite(partial(_suite_dyadic_tail, direction="geq"), "harmonic_like", "TMI"),
    SuiteId.T8_Phi: _Suite(partial(_suite_dyadic_tail, direction="leq"), "power:-0.5", "TMD"),
    SuiteId.T9_TC: _Suite(_suite_t9, "square", "TC"),
    SuiteId.C2_MajorizationTMI: _Suite(partial(_suite_majorization_dyadic, direction="geq"),
                                       "harmonic_like", "TMI"),
    SuiteId.C3_MajorizationTMD: _Suite(partial(_suite_majorization_dyadic, direction="leq"),
                                       "power:-0.5", "TMD"),
    SuiteId.C4_MajorizationTC: _Suite(_suite_c4, "square", "TC"),
    SuiteId.T63_PsdLimit: _Suite(_suite_t63, "geometric", normalized=False, zero_limit=True, ensembles=lambda d: {
        "x": {"kind": "wishart", "dof": _wishart_dof(d)},
        "y": {"kind": "rank_deficient", "rank": max(1, d - 1)}}),
    SuiteId.T65_JointConvexity: _Suite(_suite_t65, "square", "TC", zero_limit=True, second=_wishart_pair),
    SuiteId.APP_Fusion: _Suite(_suite_fusion, "square", "TC", zero_limit=True, second=_wishart_pair),
    SuiteId.APP_LinearTransform: _Suite(_suite_transform, "square", "TC", zero_limit=True),
}


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
