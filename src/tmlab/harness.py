"""Seeded tensor ensembles and Monte Carlo verification suites.

Each suite exercises one ordering or tail-bound statement on randomly
drawn tensors and reports violation counts, empirical event
frequencies, and Monte Carlo bound estimates.  Report semantics:

- ordering suites (L1, L2, T1, C1, T65, APP_*): ``violations`` counts trials
  where the asserted Loewner relation fails beyond tolerance;
  ``max_violation`` is the worst violation magnitude.
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
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .core import (
    GaugeNormKind,
    HermitianTensor,
    NotPositiveDefiniteError,
    TensorShape,
    gauge_norm,
    loewner_compare,
    spectral_power,
)
from .functions import (
    ConnectionFunction,
    ando_hiai_g,
    check_pmd,
    check_pmi,
    derivative_at_one,
    from_id,
    power_exponent,
    power_lift,
)
from .means import _psd_root, epsilon_mean_limit, eta, mean_pd
from .bounds import kantorovich, kk_factors, prop310_factors, psi_factors, trace_tail_bound
from .lie_trotter import convergence_study, tensor_exp, tensor_log
from .data_processing import DominationPair, congruence, fusion_gap, pinching, transform_gap

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

REPORT_VERSION = "tmlab-report/1"

# Sweep of multiples of the identity used as tail-event thresholds.
C_SWEEP = (0.5, 1.0, 2.0)


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
        for name in ("dof", "rank"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("m", "M"):
            if not _is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.kind == "wishart" and self.dof < 1:
            raise ConfigError("wishart needs dof >= 1")
        if self.kind == "spectrum" and self.M < self.m:
            raise ConfigError(f"spectrum needs m <= M, got [{self.m}, {self.M}]")
        if self.kind == "rank_deficient" and not 1 <= self.rank <= self.shape.square_dim:
            raise ConfigError(f"rank must lie in 1..{self.shape.square_dim}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _trial_rng(seed: int, trial: int, role: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(int(trial), int(role)))
    return np.random.default_rng(ss)


def _complex_gaussian(rng, rows, cols) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def sample(spec: EnsembleSpec, trial: int, role: int = 0) -> HermitianTensor:
    """Draw the ensemble member for one trial; bitwise reproducible.

    ``role`` selects an independent stream for further draws of the same
    trial (the default 0 is the primary draw).
    """
    d = spec.shape.square_dim
    rng = _trial_rng(spec.seed, trial, role)
    if spec.kind == "wishart":
        g = _complex_gaussian(rng, spec.dof, d)
        m = g.conj().T @ g / spec.dof + 1e-6 * np.eye(d)
        return HermitianTensor.from_matrix(m, spec.shape)
    if spec.kind == "spectrum":
        if spec.m == spec.M:
            return float(spec.m) * HermitianTensor.identity(spec.shape)
        q, _ = np.linalg.qr(_complex_gaussian(rng, d, d))
        lam = rng.uniform(spec.m, spec.M, size=d)
        # Interior margin keeps the reconstructed spectrum inside [m, M]
        # despite rounding in the congruence.
        margin = 64.0 * np.finfo(float).eps * max(1.0, abs(spec.m), abs(spec.M))
        if spec.M - spec.m > 4.0 * margin:
            lam = np.clip(lam, spec.m + margin, spec.M - margin)
        return HermitianTensor.from_matrix((q * lam) @ q.conj().T, spec.shape)
    g = _complex_gaussian(rng, spec.rank, d)
    return HermitianTensor.from_matrix(g.conj().T @ g / spec.rank, spec.shape)


def dominated_sample(y: HermitianTensor, spec: EnsembleSpec, trial: int, role: int = 3) -> HermitianTensor:
    """PSD tensor dominated by ``y`` with range inside range(y).

    Conjugates a PD draw by the rank-truncated square root of ``y``, so the
    pair is admissible for the PSD mean extension by construction.
    """
    w = sample(EnsembleSpec(y.shape, "wishart", spec.seed, dof=max(spec.dof, 1)), trial, role).unfold()
    root = _psd_root(y)
    m = root @ w @ root
    return HermitianTensor.from_matrix((m + m.conj().T) / 2.0, y.shape)


def _premise_pair(sid, x, y, big_f, direction):
    """Premise enforcement at the suite boundary: non-PD draws are a
    configuration problem (the premise suites need PD ensembles)."""
    try:
        return enforce_premise(x, y, big_f, direction)
    except NotPositiveDefiniteError as exc:
        raise ConfigError(f"{sid.value} needs PD ensembles in both slots: {exc}") from exc


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
    base = mean_pd(x, y, big_f)
    t = base.lambda_max() if direction == "leq" else base.lambda_min()
    return x / t, y / t


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
    norm: str = "frobenius"
    suites: tuple[str, ...] = tuple(s.value for s in SUITE_ORDER)

    def __post_init__(self):
        if not _is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not (_is_finite_real(self.tolerance) and self.tolerance > 0):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        TensorShape(self.shape)
        if not isinstance(self.exponents, dict):
            raise ConfigError(f"exponents must be an object, got {self.exponents!r}")
        exps = {**_EXPONENT_DEFAULTS, **self.exponents}
        if set(exps) != set(_EXPONENT_DEFAULTS):
            raise ConfigError(f"exponents accepts keys {sorted(_EXPONENT_DEFAULTS)}")
        for name in ("q", "p"):
            if not (_is_finite_real(exps[name]) and exps[name] > 0):
                raise ConfigError(f"exponent {name} must be positive and finite, got {exps[name]!r}")
            exps[name] = float(exps[name])
        if not (_is_integer(exps["m"]) and exps["m"] >= 2):
            raise ConfigError(f"exponent m must be an integer >= 2, got {exps['m']!r}")
        exps["m"] = int(exps["m"])
        object.__setattr__(self, "exponents", exps)
        GaugeNormKind.parse(self.norm)
        bad = [s for s in self.suites if s not in SuiteId.__members__]
        if bad:
            raise ConfigError(f"unknown suites {bad}")
        object.__setattr__(self, "suites", tuple(self.suites))
        if self.function is not None:
            from_id(self.function)
        if self.ensembles is not None:
            if not isinstance(self.ensembles, dict) or set(self.ensembles) != {"x", "y"}:
                raise ConfigError("ensembles needs exactly the keys 'x' and 'y'")
            for params in self.ensembles.values():
                self._ensemble_from_params(params, seed=0)

    def _ensemble_from_params(self, params: dict, seed: int) -> EnsembleSpec:
        if not isinstance(params, dict) or "kind" not in params:
            raise ConfigError(f"ensemble spec needs a 'kind': {params!r}")
        allowed = {"kind", "dof", "m", "M", "rank"}
        extra = set(params) - allowed
        if extra:
            raise ConfigError(f"unknown ensemble fields {sorted(extra)}")
        kw = {k: params[k] for k in params if k != "kind"}
        return EnsembleSpec(TensorShape(self.shape), params["kind"], seed, **kw)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        extra = set(payload) - {f.name for f in fields(cls)}
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
# per-suite function and ensemble selection
# ---------------------------------------------------------------------------

# Per suite: default generator id, the class tag the generator must carry,
# and whether the PSD extension needs a finite limit at 0+.  Every suite
# except T63 also needs a normalized generator.
_FN_RULES = {
    SuiteId.T1_AndoHiaiGeneralized: ("power:0.5", "TMI", False),
    SuiteId.C1_AndoHiaiDual: ("power:0.5", "TMI", False),
    SuiteId.T2_LieTrotterLimit: ("geometric", None, False),
    SuiteId.T3_LieTrotterTail: ("geometric", None, False),
    SuiteId.T7_Psi: ("harmonic_like", "TMI", False),
    SuiteId.C2_MajorizationTMI: ("harmonic_like", "TMI", False),
    SuiteId.T8_Phi: ("power:-0.5", "TMD", False),
    SuiteId.C3_MajorizationTMD: ("power:-0.5", "TMD", False),
    SuiteId.T9_TC: ("square", "TC", False),
    SuiteId.C4_MajorizationTC: ("square", "TC", False),
    SuiteId.T63_PsdLimit: ("geometric", None, True),
    SuiteId.T65_JointConvexity: ("square", "TC", True),
    SuiteId.APP_Fusion: ("square", "TC", True),
    SuiteId.APP_LinearTransform: ("square", "TC", True),
}
_TAG_NAMES = {"TMI": "monotone increasing", "TMD": "monotone decreasing", "TC": "convex"}


def _suite_function(cfg: ExperimentConfig, sid: SuiteId, notes: list) -> ConnectionFunction | None:
    rule = _FN_RULES.get(sid)
    if rule is None:
        return None
    default, tag, needs_zero_limit = rule
    explicit = cfg.function is not None
    fn = from_id(cfg.function) if explicit else from_id(default)
    problem = None
    if sid != SuiteId.T63_PsdLimit and not fn.normalized:
        problem = "needs a normalized generator (value 1 at 1)"
    elif tag is not None and tag not in fn.tags:
        problem = f"needs a {_TAG_NAMES[tag]} ({tag}) generator"
    elif needs_zero_limit and (fn.value_at_0plus is None or not math.isfinite(fn.value_at_0plus)):
        problem = "needs a finite limit at 0+ for the PSD extension"
    if problem:
        if explicit:
            raise ConfigError(f"{sid.value} cannot run with {fn.label}: {problem}")
        raise ConfigError(f"default function for {sid.value} is invalid: {problem}")
    notes.append(f"function={fn.label}")
    return fn


def _suite_ensembles(cfg: ExperimentConfig, sid: SuiteId) -> tuple[EnsembleSpec, EnsembleSpec]:
    shape = TensorShape(cfg.shape)
    idx = _SUITE_INDEX[sid]
    seed_x = _mix_seed(cfg.seed, idx, 1)
    seed_y = _mix_seed(cfg.seed, idx, 2)
    if cfg.ensembles is not None:
        ex = cfg._ensemble_from_params(cfg.ensembles["x"], seed_x)
        ey = cfg._ensemble_from_params(cfg.ensembles["y"], seed_y)
        return ex, ey
    if sid == SuiteId.T2_LieTrotterLimit:
        return (
            EnsembleSpec(shape, "spectrum", seed_x, m=-1.0, M=1.0),
            EnsembleSpec(shape, "spectrum", seed_y, m=-1.0, M=1.0),
        )
    if sid == SuiteId.L3_MarkovChebyshev:
        return (
            EnsembleSpec(shape, "spectrum", seed_x, m=0.1, M=0.5),
            EnsembleSpec(shape, "spectrum", seed_y, m=0.05, M=0.3),
        )
    d = shape.square_dim
    dof = _wishart_dof(d)
    if sid == SuiteId.T63_PsdLimit:
        return (
            EnsembleSpec(shape, "wishart", seed_x, dof=dof),
            EnsembleSpec(shape, "rank_deficient", seed_y, rank=max(1, d - 1)),
        )
    return (
        EnsembleSpec(shape, "wishart", seed_x, dof=dof),
        EnsembleSpec(shape, "spectrum", seed_y, m=0.3, M=2.0),
    )


def _wishart_dof(d: int) -> int:
    # Wishart dof grows with the unfolding dimension so that premise
    # rescaling (division by extreme eigenvalues of the mean) keeps the
    # scaled draws well conditioned at any desk-scale shape.
    return max(8, 2 * d)


def _mix_seed(seed: int, suite_idx: int, role: int) -> int:
    return (int(seed) * 1000003 + suite_idx * 1009 + role) & (2**63 - 1)


def _binom_stderr(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


# ---------------------------------------------------------------------------
# suite implementations
# ---------------------------------------------------------------------------


def run_suite(sid: SuiteId | str, cfg: ExperimentConfig) -> VerificationReport:
    """Execute one verification suite; deterministic given (config, seed)."""
    if isinstance(sid, str):
        if sid not in SuiteId.__members__:
            raise ConfigError(f"unknown suite {sid!r}")
        sid = SuiteId[sid]
    return _SUITE_RUNNERS[sid](sid, cfg)


def run_suites(cfg: ExperimentConfig, suites=None) -> list[VerificationReport]:
    names = suites if suites is not None else cfg.suites
    return [run_suite(name, cfg) for name in names]


def _report(sid, cfg, notes, violations, max_violation, bound=None, empirical=None, stderr=None):
    """Assemble a suite report.  ``empirical`` and ``stderr`` default to the
    failing-trial frequency and its binomial standard error."""
    trials = cfg.trials
    if empirical is None:
        empirical = violations / trials
        stderr = _binom_stderr(empirical, trials)
    violations = int(violations)
    notes = list(notes)
    if violations > trials:
        # Suites that count failing checks rather than failing trials can
        # exceed tiny trial counts; the report contract caps at trials and
        # the raw count stays visible.
        notes.append(f"raw failing-check count {violations} clamped to trials")
        violations = trials
    return VerificationReport(
        suite=sid.value,
        trials=trials,
        violations=violations,
        max_violation=float(max_violation),
        empirical_prob=float(empirical),
        bound_value=None if bound is None else float(bound),
        mc_stderr=float(stderr),
        seed=cfg.seed,
        tolerance=cfg.tolerance,
        regime_notes=tuple(notes),
    )


def _ordering_excess(lhs: HermitianTensor, rhs: HermitianTensor) -> float:
    """Relative excess of ``lhs`` over ``rhs`` in the Loewner order:
    ``-lambda_min(rhs - lhs) / max(1, |rhs|_sp)``, positive when ``lhs <= rhs`` fails."""
    return -(rhs - lhs).lambda_min() / max(1.0, rhs.spectral_scale())


def _ordering_report(sid, cfg, notes, excesses, bound=None):
    """Report for the suites whose trials each yield one relative excess."""
    viol = sum(1 for v in excesses if v > cfg.tolerance)
    return _report(sid, cfg, notes, viol, max(0.0, *excesses), bound)


def _tail_report(sid, cfg, notes, rows, after=()):
    """Tail-event rule shared by the tail-bound suites.

    Each row is ``(note prefix, c, events, tail samples, power)``.  The
    empirical frequency of ``event not<= c I`` is checked against the trace
    bound ``Tr(mean(tail**power) (c I)^-1)``; the row counts one violation
    when it exceeds ``min(1, bound) + 3 * stderr``.  The report carries the
    row with the largest margin over the clamped bound.  ``after`` notes
    follow the per-row notes.
    """
    ident = HermitianTensor.identity(TensorShape(cfg.shape))
    viol, worst = 0, None
    for prefix, c, events, tail, power in rows:
        cten = c * ident
        emp = sum(1 for e in events if not loewner_compare(e, cten, cfg.tolerance).is_leq) / cfg.trials
        bound, se = trace_tail_bound(tail, power, cten)
        if emp > min(1.0, bound) + 3.0 * (se + _binom_stderr(emp, cfg.trials)):
            viol += 1
        margin = emp - min(1.0, bound)
        if worst is None or margin > worst[0]:
            worst = (margin, bound, emp)
        notes.append(f"{prefix}: empirical={emp:.6g} bound={bound:.6g} stderr={se:.3g}")
    notes.extend(after)
    margin, bound, emp = worst
    return _report(sid, cfg, notes, viol, max(0.0, margin), bound,
                   empirical=emp, stderr=_binom_stderr(emp, cfg.trials))


def _suite_l1(sid, cfg):
    notes = []
    ex, ey = _suite_ensembles(cfg, sid)
    q = cfg.exponents["q"]
    if not 0.0 <= q <= 1.0:
        q = 0.5
        notes.append("q outside [0,1]; using q=0.5")
    notes.append(f"q={q:g}")
    excesses = []
    for t in range(cfg.trials):
        b = sample(ey, t)
        a = b + sample(ex, t)
        excesses.append(_ordering_excess(spectral_power(b, q), spectral_power(a, q)))
    return _ordering_report(sid, cfg, notes, excesses)


def _suite_l2(sid, cfg):
    notes = []
    ex, ey = _suite_ensembles(cfg, sid)
    p = cfg.exponents["p"]
    if 0.0 <= p <= 1.0:
        p = 2.0
        notes.append("p inside [0,1] is the trivial constant-1 regime; using p=2")
    notes.append(f"p={p:g}; constants from per-trial observed spectrum extremes")
    excesses, ks = [], []
    for t in range(cfg.trials):
        b = sample(ey, t)
        a = b + sample(ex, t)
        ap = spectral_power(a, p)
        bp = spectral_power(b, p)
        bad = 0.0
        for ref in (a, b):
            k = kantorovich(ref.lambda_min(), ref.lambda_max(), p)
            ks.append(k)
            bad = max(bad, _ordering_excess(bp, k * ap))
        excesses.append(bad)
    return _ordering_report(sid, cfg, notes, excesses, bound=math.fsum(ks) / len(ks))


def _suite_l3(sid, cfg):
    notes = []
    ex, ey = _suite_ensembles(cfg, sid)
    q = max(1.0, cfg.exponents["q"])
    notes.append(f"q={q:g}; chain built as x, x+p1, x+p1+p2 with PSD increments")
    shape = TensorShape(cfg.shape)
    xs, ys, zs = [], [], []
    for t in range(cfg.trials):
        x = sample(ex, t)
        p1 = sample(ey, t)
        rng_extra = _trial_rng(ey.seed, t, 7)
        lam = rng_extra.uniform(ey.m, ey.M, size=shape.square_dim)
        qmat, _ = np.linalg.qr(_complex_gaussian(rng_extra, shape.square_dim, shape.square_dim))
        p2 = HermitianTensor.from_matrix((qmat * lam) @ qmat.conj().T, shape)
        y = x + p1
        xs.append(x)
        ys.append(y)
        zs.append(y + p2)
    checks = (("Pr(y not<= C) vs E[z^q]", ys, zs), ("Pr(x not<= C) vs E[y^q]", xs, ys))
    rows = [(f"c={c:g} {label}", c, events, tail, q) for c in C_SWEEP for label, events, tail in checks]
    return _tail_report(sid, cfg, notes, rows)


def _ando_hiai_bound_parts(m: int):
    """Half-index and product start for the lifted exponent m."""
    if m % 2:
        return (m + 1) // 2, 2
    return m // 2, 1


def _suite_ando_hiai(sid, cfg, direction):
    """T1 (``leq``: top eigenvalue under ``m1 * prod K_k``) and its dual C1
    (``geq``: bottom eigenvalue over ``1 / (m2 * prod K_k)``)."""
    leq = direction == "leq"
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
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
    viol, worst, bounds = 0, -math.inf, []
    for t in range(cfg.trials):
        x, y = sample(ex, t), sample(ey, t)
        xp, yp = _premise_pair(sid, x, y, lifted, direction)
        factor = const * kk_factors(xp, g_aux, half, q, k_start).kk_product
        mean_q = mean_pd(spectral_power(xp, q), spectral_power(yp, q), lifted)
        if leq:
            bound = factor
            excess = mean_q.lambda_max() - bound
        else:
            bound = 1.0 / factor
            excess = bound - mean_q.lambda_min()
        bounds.append(bound)
        if excess > cfg.tolerance:
            viol += 1
        worst = max(worst, excess)
    return _report(sid, cfg, notes, viol, worst, math.fsum(bounds) / len(bounds))


def _suite_t2(sid, cfg):
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    norm = GaugeNormKind.parse(cfg.norm)
    q_grid = tuple(2.0**-k for k in range(1, 9))
    notes.append("q grid 2^-1 .. 2^-8; monotone with 5% slack; final relative error <= 1e-2")
    viol, worst = 0, 0.0
    for t in range(cfg.trials):
        x, y = sample(ex, t), sample(ey, t)
        st = convergence_study(x, y, fn, q_grid, norm)
        if not st.monotone or st.final_relative_error > 1e-2:
            viol += 1
        worst = max(worst, st.final_relative_error)
    return _report(sid, cfg, notes, viol, worst)


def _suite_t3(sid, cfg):
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    q = cfg.exponents["q"]
    if not 0.0 < q <= 0.5:
        q = 0.25
        notes.append("q clipped into (0, 1/2]: using q=0.25")
    m = cfg.exponents["m"]
    r = max(1.0, cfg.exponents["p"])
    lifted = power_lift(fn, m)
    w = m + derivative_at_one(fn)
    notes.append(f"m={m}, q={q:g}, r={r:g}; premises enforced by rescaling")
    order_fail = {"pmi": 0, "pmd": 0}
    head_fail = {"pmi": 0, "pmd": 0}
    events = {"pmi": [], "pmd": []}
    tails = {"pmi": [], "pmd": []}
    for t in range(cfg.trials):
        x, y = sample(ex, t), sample(ey, t)
        for branch, direction in (("pmi", "leq"), ("pmd", "geq")):
            xp, yp = _premise_pair(sid, x, y, lifted, direction)
            log_affine = tensor_exp(w * tensor_log(xp) + (1.0 - w) * tensor_log(yp))
            mean_q = mean_pd(spectral_power(xp, q), spectral_power(yp, q), lifted)
            root_mean = spectral_power(mean_q, 1.0 / q, psd_clip=False)
            v = loewner_compare(log_affine, root_mean, cfg.tolerance)
            # pmi expects log_affine <= root_mean, pmd the reverse order.
            if branch == "pmi":
                low, high, ordered, tail = log_affine, root_mean, v.is_leq, spectral_power(mean_q, r / q)
            else:
                low, high, ordered, tail = root_mean, log_affine, v.is_geq, spectral_power(log_affine, r)
            order_fail[branch] += int(not ordered)
            head_fail[branch] += int(low.lambda_max() > high.lambda_max() * (1 + 1e-10))
            events[branch].append(low)
            tails[branch].append(tail)
    rows = [(f"{branch} c={c:g}", c, events[branch], tails[branch], 1.0)
            for branch in ("pmi", "pmd") for c in C_SWEEP]
    after = [
        f"{branch} deterministic Loewner chain failures: {order_fail[branch]}/{cfg.trials}; "
        f"top-eigenvalue order failures: {head_fail[branch]}/{cfg.trials}"
        for branch in ("pmi", "pmd")
    ]
    after.append("tail bound uses exp of the log-affine combination (proof-consistent form)")
    return _tail_report(sid, cfg, notes, rows, after)


def _dyadic_trials(sid, cfg, notes, direction):
    """Premise-enforced trials of the dyadic-factor suites.

    Returns the exponent q and, per trial, the lower companion tensor, the
    powered mean and the upper companion tensor.
    """
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    q = cfg.exponents["q"]
    if q < 1.0:
        q = 2.0
        notes.append("q < 1 is the single-factor regime; using q=2")
    trials = []
    for t in range(cfg.trials):
        xp, yp = _premise_pair(sid, sample(ex, t), sample(ey, t), fn, direction)
        base = mean_pd(xp, yp, fn)
        lo, up = psi_factors(q, fn, xp, yp)
        mean_q = mean_pd(spectral_power(xp, q), spectral_power(yp, q), fn)
        trials.append(((lo * base.lambda_max() ** (q - 1.0)) * base, mean_q,
                       (up * base.lambda_min() ** (q - 1.0)) * base))
    return q, trials


def _suite_dyadic_tail(sid, cfg, direction):
    notes = []
    q, trials = _dyadic_trials(sid, cfg, notes, direction)
    p = max(1.0, cfg.exponents["p"])
    notes.append(f"q={q:g}, p={p:g}; premise enforced by rescaling; factors from dyadic quotients")
    chain_fail = sum(
        1 for lower_t, mean_q, upper_t in trials
        if not (loewner_compare(lower_t, mean_q, cfg.tolerance).is_leq
                and loewner_compare(mean_q, upper_t, cfg.tolerance).is_leq)
    )
    lowers, mids, uppers = zip(*trials)
    checks = (("mean^q vs upper", mids, uppers), ("lower vs mean^q", lowers, mids))
    rows = [(f"c={c:g} {label}", c, events, tail, p) for c in C_SWEEP for label, events, tail in checks]
    return _tail_report(sid, cfg, notes, rows, [f"deterministic sandwich failures: {chain_fail}/{cfg.trials}"])


def _cap_floor_trials(sid, cfg, notes):
    """Premise-enforced trials of the Kantorovich cap/floor suites.

    Returns q and, per trial, the powered mean under the ``leq`` premise
    with its scalar cap, then under the ``geq`` premise with its scalar
    floor.
    """
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    q = max(1.0, cfg.exponents["q"])
    trials = []
    for t in range(cfg.trials):
        x, y = sample(ex, t), sample(ey, t)
        row = []
        for direction in ("leq", "geq"):
            xp, yp = _premise_pair(sid, x, y, fn, direction)
            base = mean_pd(xp, yp, fn)
            k1, k2 = prop310_factors(xp, q)
            z_res = eta(yp, xp)
            if z_res.eta.lambda_min() <= 0.0:
                raise ConfigError(
                    "the Kantorovich cap/floor suite needs an invertible quotient of (y, x); "
                    "use PD ensembles for both slots"
                )
            lam = 1.0 / z_res.eta.eigenvalues()
            ratio = float(np.max(fn.fn(lam**q) / fn.fn(lam) ** q))
            mean_q = mean_pd(spectral_power(xp, q), spectral_power(yp, q), fn)
            scalar = base.lambda_min() ** (1.0 - q) * ratio
            row += [mean_q, k1 * k2 * scalar if direction == "leq" else scalar / k2]
        trials.append(row)
    return q, trials


def _suite_t9(sid, cfg):
    notes = []
    q, trials = _cap_floor_trials(sid, cfg, notes)
    p = max(1.0, cfg.exponents["p"])
    ident = HermitianTensor.identity(TensorShape(cfg.shape))
    notes.append(f"q={q:g}, p={p:g}; quotient tensor from the inverse eta of (y, x)")
    chain_fail = 0
    for mean_q, cap, mean_q2, floor in trials:
        if mean_q.lambda_max() > cap + cfg.tolerance * max(1.0, cap):
            chain_fail += 1
        if floor - mean_q2.lambda_min() > cfg.tolerance * max(1.0, floor):
            chain_fail += 1
    mids_leq, caps, mids_geq, floors = zip(*trials)
    checks = (("mean^q vs K cap", mids_leq, [c * ident for c in caps]),
              ("K floor vs mean^q", [f * ident for f in floors], mids_geq))
    rows = [(f"c={c:g} {label}", c, events, tail, p) for c in C_SWEEP for label, events, tail in checks]
    return _tail_report(sid, cfg, notes, rows, [f"deterministic cap/floor failures: {chain_fail}/{2 * cfg.trials}"])


def _kyfan_profile(h: HermitianTensor) -> np.ndarray:
    """Ky Fan statistics of a PD tensor for k = 1..D from one spectrum:
    row 0 holds the sums of the k largest eigenvalues, row 1 the sums of
    their logs (log-products, which cannot overflow at large D)."""
    ev = h.eigenvalues()
    return np.array([[np.sum(v[:k]) for k in range(1, ev.size + 1)] for v in (ev, np.log(ev))])


_KYFAN_STATS = ("sum", "prod")


def _cdf_dominance(low_vals, mid_vals, high_vals, n, levels=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """Check Pr(low >= kappa) <= Pr(mid >= kappa) <= Pr(high >= kappa) beyond
    3 standard errors on a deterministic quantile grid of the mid statistic.
    ``None`` in place of ``low_vals`` or ``high_vals`` drops that side.
    Returns the number of failing grid points and the worst excess."""
    mid = np.asarray(mid_vals)
    fails, worst = 0, 0.0
    for kappa in np.quantile(mid, levels):
        p_md = float(np.mean(mid >= kappa))
        s = _binom_stderr(p_md, n)
        bad = []
        if low_vals is not None:
            p_lo = float(np.mean(np.asarray(low_vals) >= kappa))
            bad.append(p_lo - p_md - 3.0 * (s + _binom_stderr(p_lo, n)))
        if high_vals is not None:
            p_hi = float(np.mean(np.asarray(high_vals) >= kappa))
            bad.append(p_md - p_hi - 3.0 * (s + _binom_stderr(p_hi, n)))
        if max(bad) > 0:
            fails += 1
        worst = max(worst, *bad)
    return fails, worst


def _suite_majorization_dyadic(sid, cfg, direction):
    notes = []
    q, trials = _dyadic_trials(sid, cfg, notes, direction)
    d = TensorShape(cfg.shape).square_dim
    notes.append(f"q={q:g}; kappa grid at mid-statistic quantiles (0.1..0.9)")
    profiles = np.array([[_kyfan_profile(h) for h in trial] for trial in trials])
    viol, worst = 0, 0.0
    for s, stat in enumerate(_KYFAN_STATS):
        for k in range(1, d + 1):
            lows, mids, highs = profiles[:, :, s, k - 1].T
            fails, w = _cdf_dominance(lows, mids, highs, cfg.trials)
            if fails:
                notes.append(f"{stat} k={k}: {fails}/5 kappa points fail CDF dominance")
            viol += fails
            worst = max(worst, w)
    return _report(sid, cfg, notes, viol, worst, empirical=viol / (2 * d * 5), stderr=0.0)


def _suite_c4(sid, cfg):
    notes = []
    q, trials = _cap_floor_trials(sid, cfg, notes)
    d = TensorShape(cfg.shape).square_dim
    notes.append(f"q={q:g}; scalar cap/floor tensors, kappa grid at mid quantiles")
    mid_leq, cap_vals, mid_geq, floor_vals = zip(*trials)
    mid_leq = np.array([_kyfan_profile(h) for h in mid_leq])
    mid_geq = np.array([_kyfan_profile(h) for h in mid_geq])
    # The k-th statistics of the multiple s I are k s and k log s.
    caps = np.array([cap_vals, np.log(cap_vals)])
    floors = np.array([floor_vals, np.log(floor_vals)])
    levels = (0.1, 0.5, 0.9)
    viol, worst = 0, 0.0
    for k in range(1, d + 1):
        for s in range(len(_KYFAN_STATS)):
            for fails, w in (
                _cdf_dominance(None, mid_leq[:, s, k - 1], k * caps[s], cfg.trials, levels),
                _cdf_dominance(k * floors[s], mid_geq[:, s, k - 1], None, cfg.trials, levels),
            ):
                viol += fails
                worst = max(worst, w)
    return _report(sid, cfg, notes, viol, worst, empirical=viol / (2 * d * 6), stderr=0.0)


def _suite_t63(sid, cfg):
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    norm = GaugeNormKind.parse(cfg.norm)
    eps_grid = (1e-2, 1e-4, 1e-6, 1e-8)
    notes.append("epsilon grid 1e-2..1e-8; dominated x built inside range(y)")
    viol, worst = 0, 0.0
    for t in range(cfg.trials):
        y = sample(ey, t)
        x = dominated_sample(y, ex, t)
        limit, diag = epsilon_mean_limit(x, y, fn, eps_grid, norm)
        if not diag.converged:
            viol += 1
        rel = diag.errors[-1] / max(1e-300, gauge_norm(limit, norm))
        worst = max(worst, rel)
    return _report(sid, cfg, notes, viol, worst)


def _secondary_ensembles(cfg: ExperimentConfig, ex: EnsembleSpec, ey: EnsembleSpec):
    """Second PD pair of the two-pair suites: Wishart draws on the primary
    seeds at role 5, with the harness's dof rule."""
    shape = TensorShape(cfg.shape)
    dof = _wishart_dof(shape.square_dim)
    return EnsembleSpec(shape, "wishart", ex.seed, dof=dof), EnsembleSpec(shape, "wishart", ey.seed, dof=dof)


_SECONDARY_ROLE = 5


def _suite_t65(sid, cfg):
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    sx, sy = _secondary_ensembles(cfg, ex, ey)
    notes.append("mix weights 0.25, 0.5, 0.75")
    excesses = []
    for t in range(cfg.trials):
        x1, y1 = sample(ex, t), sample(ey, t)
        x2, y2 = sample(sx, t, _SECONDARY_ROLE), sample(sy, t, _SECONDARY_ROLE)
        bad = 0.0
        for lam in (0.25, 0.5, 0.75):
            lhs = mean_pd(lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2, fn)
            rhs = lam * mean_pd(x1, y1, fn) + (1 - lam) * mean_pd(x2, y2, fn)
            bad = max(bad, _ordering_excess(lhs, rhs))
        excesses.append(bad)
    return _ordering_report(sid, cfg, notes, excesses)


def _shifted_convex_probe() -> ConnectionFunction:
    """Convex generator with a finite nonzero 0+ limit (value 2 there),
    exercising the weaker hypothesis regime of the fusion statement."""
    return ConnectionFunction(
        fn=lambda x: 2.0 / (1.0 + x),
        label="inverse_arithmetic",
        tags=frozenset({"TMD", "TC"}),
        normalized=True,
        derivative_at_1=-0.5,
        value_at_0plus=2.0,
    )


def _suite_fusion(sid, cfg):
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    sx, sy = _secondary_ensembles(cfg, ex, ey)
    regimes = ((f"zero-limit generator {fn.label}", fn),
               ("finite nonzero 0+ limit generator inverse_arithmetic", _shifted_convex_probe()))
    viol, worst = 0, 0.0
    for label, gen in regimes:
        regime_viol = 0
        for t in range(cfg.trials):
            x1, y1 = sample(ex, t), sample(ey, t)
            x2, y2 = sample(sx, t, _SECONDARY_ROLE), sample(sy, t, _SECONDARY_ROLE)
            gap, verdict = fusion_gap(DominationPair(x1, y1, "left"), DominationPair(x2, y2, "left"),
                                      gen, cfg.tolerance)
            if not verdict.is_leq:
                regime_viol += 1
            worst = max(worst, -gap)
        viol += regime_viol
        notes.append(f"{label}: {regime_viol}/{cfg.trials} violations")
    empirical = viol / (2 * cfg.trials)
    return _report(sid, cfg, notes, viol, max(0.0, worst),
                   empirical=empirical, stderr=_binom_stderr(empirical, 2 * cfg.trials))


def _suite_transform(sid, cfg):
    notes = []
    fn = _suite_function(cfg, sid, notes)
    ex, ey = _suite_ensembles(cfg, sid)
    shape = TensorShape(cfg.shape)
    d = shape.square_dim
    groups = (tuple(range(d // 2)), tuple(range(d // 2, d)))
    pinch = pinching(groups, shape)
    notes.append(f"maps: random congruence, pinching {groups}, unitary congruence (equality case)")
    viol, worst, worst_unitary = 0, 0.0, 0.0
    for t in range(cfg.trials):
        pair = DominationPair(sample(ex, t), sample(ey, t), "left")
        rng = _trial_rng(ex.seed, t, 6)
        cong = congruence(_complex_gaussian(rng, d, d), shape)
        results = [transform_gap(lmap, pair, fn, cfg.tolerance) for lmap in (cong, pinch)]
        if not all(verdict.is_geq for _, verdict in results):
            viol += 1
        worst = max(worst, *(-gap for gap, _ in results))
        uq, _ = np.linalg.qr(_complex_gaussian(rng, d, d))
        ugap, _ = transform_gap(congruence(uq, shape), pair, fn, cfg.tolerance)
        worst_unitary = max(worst_unitary, abs(ugap))
    notes.append(f"max |gap| for unitary congruence: {worst_unitary:.3e}")
    return _report(sid, cfg, notes, viol, max(0.0, worst))


_SUITE_RUNNERS = {
    SuiteId.L1_PowerMonotone: _suite_l1,
    SuiteId.L2_Kantorovich: _suite_l2,
    SuiteId.L3_MarkovChebyshev: _suite_l3,
    SuiteId.T1_AndoHiaiGeneralized: partial(_suite_ando_hiai, direction="leq"),
    SuiteId.C1_AndoHiaiDual: partial(_suite_ando_hiai, direction="geq"),
    SuiteId.T2_LieTrotterLimit: _suite_t2,
    SuiteId.T3_LieTrotterTail: _suite_t3,
    SuiteId.T7_Psi: partial(_suite_dyadic_tail, direction="geq"),
    SuiteId.T8_Phi: partial(_suite_dyadic_tail, direction="leq"),
    SuiteId.T9_TC: _suite_t9,
    SuiteId.C2_MajorizationTMI: partial(_suite_majorization_dyadic, direction="geq"),
    SuiteId.C3_MajorizationTMD: partial(_suite_majorization_dyadic, direction="leq"),
    SuiteId.C4_MajorizationTC: _suite_c4,
    SuiteId.T63_PsdLimit: _suite_t63,
    SuiteId.T65_JointConvexity: _suite_t65,
    SuiteId.APP_Fusion: _suite_fusion,
    SuiteId.APP_LinearTransform: _suite_transform,
}


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
