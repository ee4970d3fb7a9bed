"""The ``verify_d4`` and ``verify_d64`` workloads: all 17 suites, one config.

Each suite runs through its own ``run_suite`` call, so a suite that raises
counts as failed and the others still report.  The report text of every
pass is kept so that passes on the same seed can be compared byte for byte.
"""

from __future__ import annotations

import json
import math
import statistics
import time

from tmlab import harness

# Violation counts at the default seed 20260809, printed beside each run's
# counts to show drift; they do not gate the run.  "raises" marks a suite
# that raised at that seed.
SEED_COUNTS = {
    "verify_d4": {"T8_Phi": 2, "C2_MajorizationTMI": 40, "C3_MajorizationTMD": 40},
    "verify_d64": {
        "T8_Phi": 1,
        "C2_MajorizationTMI": 10,
        "C3_MajorizationTMD": 10,
        "C4_MajorizationTC": "raises",
        "APP_Fusion": 10,
    },
}


def run_pass(cfg, clock=time.perf_counter, chunk=None) -> dict:
    """One all-suite pass: per-suite times, reports, errors, report text.

    ``times`` holds each suite's time and the report's (``"report"``) by
    ``clock``, and ``time`` their sum, without calibration.  Given a
    calibration chunk, it runs before the first suite and after each suite
    and the report, and ``scaled`` holds those times scaled by the chunks on
    either side.
    """
    times, reports, errors, chunks = {}, [], {}, []
    if chunk is not None:
        chunks.append(chunk.time())
    for name in cfg.suites:
        t0 = clock()
        try:
            reports.append(harness.run_suite(name, cfg))
        except Exception as exc:  # a raising suite is a counted failure; the pass goes on
            errors[name] = f"{type(exc).__name__}: {exc}"
        times[name] = clock() - t0
        if chunk is not None:
            chunks.append(chunk.time())
    t0 = clock()
    text = harness.reports_to_json(reports)
    times["report"] = clock() - t0
    out = {"time": sum(times.values()), "times": times, "text": text, "errors": errors}
    if chunk is not None:
        chunks.append(chunk.time())
        out["chunks"] = chunks
        out["scaled"] = {
            name: t * chunk.scale(chunks[k], chunks[k + 1]) for k, (name, t) in enumerate(times.items())
        }
    return out


def warm_up(cfg) -> None:
    """Run every suite once at one trial so lazy imports and caches settle."""
    tiny = harness.ExperimentConfig(seed=cfg.seed, trials=1, shape=cfg.shape)
    for name in tiny.suites:
        try:
            harness.run_suite(name, tiny)
        except Exception:  # failures are counted in the measured passes
            pass


def _nonfinite_fields(report: dict) -> list[str]:
    return [k for k, v in report.items() if isinstance(v, float) and not math.isfinite(v)]


def check_passes(passes: list[dict]) -> dict:
    """Output checks, run after timing: determinism and finiteness."""
    texts = {p["text"] for p in passes}
    errors = {json.dumps(p["errors"], sort_keys=True) for p in passes}
    identical = len(texts) == 1 and len(errors) == 1
    reports = json.loads(passes[0]["text"])
    nonfinite = {r["suite"]: bad for r in reports if (bad := _nonfinite_fields(r))}
    failed = sum(len(p["errors"]) for p in passes) + len(nonfinite) * len(passes)
    return {
        "identical": identical,
        "nonfinite": nonfinite,
        "failed": failed,
        "violations": {r["suite"]: r["violations"] for r in reports},
        "errors": passes[0]["errors"],
    }


def violation_table(workload: str, check: dict, suites, seed: int) -> list[str]:
    ref = SEED_COUNTS[workload]
    lines = [f"{'violations':<24} {'seed ' + str(seed):>14} {'at seed 20260809':>18}"]
    for name in suites:
        now = "raises" if name in check["errors"] else check["violations"].get(name, "?")
        lines.append(f"{name:<24} {now!s:>14} {ref.get(name, 0)!s:>18}")
    return lines


def end_to_end(passes: list[dict], cfg) -> dict:
    """suite_trials_per_s, calls_per_s and per-call latency over the passes.

    A call here is one verify request: a whole pass.  All times are CPU
    times scaled by the calibration chunks (calibrate.py).  For the rates, each suite's
    time and the report's are their medians across passes, so that a burst
    of load during one pass moves them less; the pass time is their sum.
    """
    pass_s = sum(statistics.median(p["scaled"][name] for p in passes) for name in passes[0]["scaled"])
    us = sorted(sum(p["scaled"].values()) * 1e6 for p in passes)
    return {
        "suite_trials_per_s": len(cfg.suites) * cfg.trials / pass_s,
        "calls_per_s": 1.0 / pass_s,
        "call_p50_us": statistics.median(us),
        "call_p99_us": statistics.quantiles(us, n=100, method="inclusive")[98],
    }
