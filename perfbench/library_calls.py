"""The ``library_calls`` workload: single calls on fresh operands, one caller.

The call mix is a fixed round-robin over ``mean_pd`` (four generators),
``mean_psd`` on a dominated rank-deficient pair and ``loewner_compare``, at
D = 4, 16 and 64.  Call ``i`` draws its raw matrices from its own seeded
stream before the clock starts, builds the operands with the public
validating constructor and makes one library call; only that is timed.
Every result is then checked against an independent scipy computation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import tmlab

SHAPES = {4: (2, 2), 16: (4, 4), 64: (8, 8)}
MEAN_PD_GENERATORS = ("geometric", "harmonic_like", "power:-0.5", "square")
PSD_GENERATOR = "geometric"
PLAN = tuple(
    kind
    for d in SHAPES
    for kind in [("mean_pd", d, g) for g in MEAN_PD_GENERATORS]
    + [("mean_psd", d, PSD_GENERATOR), ("loewner_compare", d, None)]
)
CELLS = tuple(dict.fromkeys((op, d) for op, d, _ in PLAN))

# Independent scalar forms of the generators, for the reference means.
REFERENCE_G = {
    "geometric": np.sqrt,
    "harmonic_like": lambda x: 2.0 * x / (1.0 + x),
    "power:-0.5": lambda x: x**-0.5,
    "square": np.square,
}
RTOL = 1e-8
LOEWNER_TOL = 1e-8  # loewner_compare's default relative tolerance
RANK_CUT = 1e-10  # relative eigenvalue cutoff of the PSD range


def _gauss(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _wishart(rng, d):
    g = _gauss(rng, 2 * d, d)
    return g.conj().T @ g / (2 * d)


def _spectrum(rng, d):
    q, _ = np.linalg.qr(_gauss(rng, d, d))
    return (q * rng.uniform(0.3, 2.0, size=d)) @ q.conj().T


def draw(seed: int, i: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Kind and raw operand matrices of call ``i``; a pure function of (seed, i)."""
    op, d, g = kind = PLAN[i % len(PLAN)]
    rng = np.random.default_rng([seed % 2**63, i])
    if op == "mean_psd":
        r = d // 2
        h = _gauss(rng, r, d)
        c = _gauss(rng, 2 * r, r)
        inner = c.conj().T @ c / (2 * r)
        return kind, h.conj().T @ inner @ h / r, h.conj().T @ h / r
    return kind, _wishart(rng, d), _spectrum(rng, d)


def call(kind, x_raw, y_raw, generators):
    op, d, g = kind
    shape = SHAPES[d]
    x = tmlab.HermitianTensor(x_raw.reshape(shape + shape), shape)
    y = tmlab.HermitianTensor(y_raw.reshape(shape + shape), shape)
    if op == "mean_pd":
        return tmlab.mean_pd(x, y, generators[g])
    if op == "mean_psd":
        return tmlab.mean_psd(x, y, generators[g])
    return tmlab.loewner_compare(x, y)


def run_calls(seed: int, indices, generators, clock=time.perf_counter_ns) -> list[tuple[int, object, int]]:
    """Make the calls; returns (index, result or exception, nanoseconds by ``clock``)."""
    out = []
    for i in indices:
        kind, x_raw, y_raw = draw(seed, i)
        t0 = clock()
        try:
            res = call(kind, x_raw, y_raw, generators)
        except Exception as exc:  # a raising call is a counted failure
            res = exc
        out.append((i, res, clock() - t0))
    return out


def _sym(m):
    return (m + m.conj().T) / 2.0


def _reference_mean(x, y, g):
    """``y^(1/2) g(y^(-1/2) x y^(-1/2)) y^(1/2)``, y^(-1/2) on the range of y."""
    import scipy.linalg

    w, u = scipy.linalg.eigh(y, driver="evr")
    keep = w > RANK_CUT * w.max()
    u, root = u[:, keep], np.sqrt(w[keep])
    y_half = (u * root) @ u.conj().T
    y_ihalf = (u / root) @ u.conj().T
    qw, qv = scipy.linalg.eigh(_sym(y_ihalf @ x @ y_ihalf), driver="evr")
    core = (qv * REFERENCE_G[g](np.maximum(qw, 0.0))) @ qv.conj().T
    return y_half @ core @ y_half


def check(seed: int, i: int, res) -> str:
    """"ok", "raised", or "mismatch" against the scipy reference, for call ``i``."""
    # scipy is imported in the checks, not at module level, so that it stays
    # out of the peak RSS of workers that only need this module's names.
    import scipy.linalg

    if isinstance(res, Exception):
        return "raised"
    (op, d, g), x_raw, y_raw = draw(seed, i)
    x, y = _sym(x_raw), _sym(y_raw)
    if op != "loewner_compare":
        got = res.unfold()
        ref = _reference_mean(x, y, g)
        ok = np.all(np.isfinite(got)) and np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref)
        return "ok" if ok else "mismatch"
    ev = scipy.linalg.eigvalsh(y - x, driver="evr")
    scale = max(1.0, *(np.abs(scipy.linalg.eigvalsh(m, driver="evr")).max() for m in (x, y)))
    leq, geq = ev[0] >= -LOEWNER_TOL * scale, ev[-1] <= LOEWNER_TOL * scale
    expected = "EQ" if leq and geq else "LEQ" if leq else "GEQ" if geq else "INCOMPARABLE"
    close = abs(res.lam_min - ev[0]) <= RTOL * scale and abs(res.lam_max - ev[-1]) <= RTOL * scale
    return "ok" if res.relation.value == expected and close else "mismatch"


def check_all(seed: int, results) -> tuple[int, int]:
    """Numbers of calls that raised and that disagree with the reference."""
    outcomes = [check(seed, i, res) for i, res, _ in results]
    return outcomes.count("raised"), outcomes.count("mismatch")


def end_to_end(results) -> dict:
    """Throughput and latency of the call mix, from calibrated CPU times.

    The times are scaled by the calibration chunks (calibrate.py).  The rate is one round of the mix divided by the sum of each call kind's
    median time, so a burst of load during a few calls does not move it.
    """
    by_kind = {kind: [] for kind in PLAN}
    for i, _, ns in results:
        by_kind[PLAN[i % len(PLAN)]].append(ns / 1e3)
    calls_per_s = len(PLAN) / (sum(statistics.median(v) for v in by_kind.values()) / 1e6)
    us = sorted(ns / 1e3 for _, _, ns in results)
    return {
        # Each library call counts as one trial of the call mix.
        "suite_trials_per_s": calls_per_s,
        "calls_per_s": calls_per_s,
        "call_p50_us": statistics.median(us),
        "call_p99_us": statistics.quantiles(us, n=100, method="inclusive")[98],
    }


def cell_p50_us(results) -> dict:
    """Median call time per (op, D) cell, ``mean_pd`` pooled over generators."""
    times = {cell: [] for cell in CELLS}
    for i, _, ns in results:
        op, d, _ = PLAN[i % len(PLAN)]
        times[(op, d)].append(ns / 1e3)
    return {f"library_calls.{op}.D{d}.p50_us": statistics.median(v) for (op, d), v in times.items()}
