"""Benchmark worker: one workload in one process, BLAS pinned to one thread.

``run.py`` starts this script with the BLAS thread variables set, so they
are in place before numpy is imported.  The worker times its own set-up
(import ``tmlab``, validate the config, build the generators), runs the
workload, checks the outputs and prints one JSON object as the last line of
its standard output.  Nothing else goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Per workload: tensor shape and trials per suite (full run, tiny self-test).
WORKLOADS = {
    "verify_d4": {"shape": (2, 2), "trials": 200, "tiny_trials": 2},
    "verify_d64": {"shape": (8, 8), "trials": 10, "tiny_trials": 1},
    "library_calls": {"shape": (2, 2), "trials": 200, "tiny_trials": 2},
}
# The suites' default generators plus those of the library call mix.
GENERATOR_IDS = ("geometric", "harmonic_like", "power:0.5", "power:-0.5", "square")
MIN_PASSES = 3  # verify passes per untraced run, so per-suite medians exist
MIN_CALLS = 1000
TRACE_CALLS = 1080  # 60 rounds of the call mix
TINY_CALLS = 36
HOLDOUT_SEED = 20261101  # not used while tuning; reserved for confirming claims


def setup(workload: str, seed: int, tiny: bool):
    """Import tmlab from this checkout, validate the config, build generators.

    Returns the CPU time this took, with the config and the generators.
    """
    t0 = time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import tmlab
    from tmlab import harness

    if not Path(tmlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported tmlab from {tmlab.__file__}, not from this checkout's src/")
    spec = WORKLOADS[workload]
    trials = spec["tiny_trials"] if tiny else spec["trials"]
    cfg = harness.ExperimentConfig(seed=seed, trials=trials, shape=spec["shape"])
    generators = {fid: tmlab.from_id(fid) for fid in GENERATOR_IDS}
    m = cfg.exponents["m"]
    tmlab.power_lift(generators["power:0.5"], m)
    tmlab.ando_hiai_g(generators["power:0.5"], m)
    return time.process_time() - t0, cfg, generators


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_verify(workload: str, cfg, seconds: float, trace: bool) -> dict:
    import verify

    verify.warm_up(cfg)
    if not trace:
        import calibrate

        chunk = calibrate.Chunk(workload)
        chunk.time()  # warm-up
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(verify.run_pass(cfg, time.process_time, chunk))
        metrics = verify.end_to_end(passes, cfg)
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        import library_calls
        import spans

        base = verify.run_pass(cfg)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = verify.run_pass(cfg)
        finally:
            tracer.uninstall()
        passes = [base, traced]
        metrics = tracer.layer_metrics(len(cfg.suites) * cfg.trials)
        metrics.update({f"harness.suite.{name}.wall_s": base["times"][name] for name in cfg.suites})
        metrics["trace.overhead_share"] = traced["time"] / base["time"] - 1.0
        # This workload makes no single library calls.
        metrics.update({f"library_calls.{op}.D{d}.p50_us": 0.0 for op, d in library_calls.CELLS})
        tracer.write(OUT / f"trace-{workload}.npz")
    check = verify.check_passes(passes)
    return {
        "correct": check["identical"] and not check["nonfinite"],
        "attempted": len(cfg.suites) * len(passes),
        "failed": check["failed"],
        "metrics": metrics,
        "latency_samples": len(passes),
        "pass_times": [p["time"] for p in passes],
        "pass_scaled": [sum(p["scaled"].values()) for p in passes if "scaled" in p],
        "chunks": [p["chunks"] for p in passes if "chunks" in p],
        "errors": check["errors"],
        "nonfinite": check["nonfinite"],
        "violation_table": verify.violation_table(workload, check, cfg.suites, cfg.seed),
    }


def run_library(cfg, generators, seconds: float, trace: bool, tiny: bool) -> dict:
    import library_calls as lc

    seed, rnd = cfg.seed, len(lc.PLAN)
    lc.run_calls(seed, range(rnd), generators)  # warm-up round, not measured
    if not trace:
        import calibrate

        chunk = calibrate.Chunk("library_calls")
        chunk.time()  # warm-up
        min_calls = TINY_CALLS if tiny else MIN_CALLS
        results, raw_ns, raised, mismatched = [], [], 0, 0
        i, start = rnd, time.perf_counter()
        while len(results) < min_calls or time.perf_counter() - start < seconds:
            before = chunk.time()
            batch = lc.run_calls(seed, range(i, i + rnd), generators, time.process_time_ns)
            scale = chunk.scale(before, chunk.time())
            r, m = lc.check_all(seed, batch)
            raised, mismatched = raised + r, mismatched + m
            results.extend((j, None, ns * scale) for j, _, ns in batch)
            raw_ns.extend(ns for *_, ns in batch)
            i += rnd
        metrics = lc.end_to_end(results)
        raw_p50_us = statistics.median(raw_ns) / 1e3
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        from tmlab import harness

        import spans

        indices = range(rnd, rnd + (TINY_CALLS if tiny else TRACE_CALLS))
        base = lc.run_calls(seed, indices, generators)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = lc.run_calls(seed, indices, generators)
        finally:
            tracer.uninstall()
        raised, mismatched = map(sum, zip(lc.check_all(seed, base), lc.check_all(seed, traced)))
        results = base + traced
        metrics = tracer.layer_metrics(len(traced))
        metrics.update(lc.cell_p50_us(base))
        metrics["trace.overhead_share"] = sum(ns for *_, ns in traced) / sum(ns for *_, ns in base) - 1.0
        # This workload runs no suites.
        metrics.update({f"harness.suite.{s.value}.wall_s": 0.0 for s in harness.SUITE_ORDER})
        tracer.write(OUT / "trace-library_calls.npz")
        raw_p50_us = None
    return {
        "correct": mismatched == 0,
        "attempted": len(results),
        "failed": raised + mismatched,
        "metrics": metrics,
        "latency_samples": len(results),
        "raw_call_p50_us": raw_p50_us,
        "raised": raised,
        "mismatched": mismatched,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_s, cfg, generators = setup(args.workload, args.seed, args.tiny)
    if args.setup_only:
        import calibrate

        chunk = calibrate.Chunk("setup")
        chunk.time()  # warm-up
        scale = chunk.scale(chunk.time(), chunk.time())
        print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s}))
        return 0
    env = environment(args.seed)
    if env["blas_threads"] not in (None, 1):
        raise SystemExit(f"BLAS runs {env['blas_threads']} threads; the benchmark needs it pinned to 1")
    OUT.mkdir(exist_ok=True)
    if args.workload == "library_calls":
        result = run_library(cfg, generators, args.seconds, bool(args.trace), args.tiny)
    else:
        result = run_verify(args.workload, cfg, args.seconds, bool(args.trace))
    result["env"] = env
    result["config"] = {"shape": list(cfg.shape), "trials": cfg.trials}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
