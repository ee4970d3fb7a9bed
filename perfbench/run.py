"""Run one tmlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify_d4 --seed 20260809 --seconds 10 --trace 0

Set-up is timed in several fresh workers and reported as their median.  The
workload then runs in one more worker.  Every process started here runs
with BLAS pinned to one thread and is waited for.  Rates and call times are
scaled to a reference host speed (see calibrate.py).  The metrics are printed
by name with their units; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the environment, goes to ``perfbench/out/``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 20260809  # ExperimentConfig's default seed
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
PINNED_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    env = {**os.environ, **PINNED_ENV}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_specs(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one tmlab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tmlab" / "__init__.py").is_file():
        print(f"no tmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        samples = [run_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
        result = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setup = [s["setup_s"] for s in samples]
    raw = dict(result["metrics"], setup_s=statistics.median(setup))
    specs = metric_specs(bool(args.trace))
    missing = [s["name"] for s in specs if s["name"] not in raw]
    if missing:
        print(f"benchmark failed: workload did not report {missing}", file=sys.stderr)
        return 1
    metrics = {s["name"]: {"value": raw[s["name"]], "unit": s["unit"]} for s in specs}

    result.update(setup_s_samples=setup, raw_setup_s_samples=[s["raw_setup_s"] for s in samples], workload=args.workload, trace=args.trace)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print("env " + json.dumps(result["env"]))
    for line in result.get("violation_table", []):
        print(line)
    for name, spec in metrics.items():
        print(f"{name:<48} {spec['value']:>16.6g} {spec['unit']}")
    if not args.trace:
        print(f"{'call latency samples':<48} {result['latency_samples']:>16d}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<48} {share:>16.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
