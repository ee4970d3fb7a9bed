"""Paired benchmark runs of one perfbench workload: git ``REF`` against this checkout.

    python tools/ab_bench.py REF --workload verify_d4 [--pairs 10] [--seed S]

REF's ``src/`` and ``perfbench/``, with the ``BENCHMARK.json`` that
``run.py`` reads its metric list from, are extracted by ``git archive`` into
a temporary directory.  Each pair runs ``perfbench/run.py --trace 0`` once
on each side, one run at a time, and the side that runs first alternates
from pair to pair, so a drift of the host's speed within the batch falls on
both sides alike.  For each end-to-end metric the summary prints the two
medians, the pairs this checkout wins and loses (``W-L/pairs``, by the
metric's ``better`` in BENCHMARK.json; a tie counts for neither side), the
interquartile range of REF's runs and the median of the per-pair ratios
this checkout / REF.
``correct`` and ``failed`` are printed for every run; a pair with a failed
run is left out of the summary.  Every run's result line, in pair order,
goes to ``perfbench/out/ab-<workload>-<seed>.json``, with ``default`` as
the seed when no ``--seed`` is given; a batch never overwrites an earlier
one, but takes the first free name ``…-2.json``, ``…-3.json``, … and prints
it.  Nothing else is written into the
checkout beyond what ``run.py`` writes to ``perfbench/out/``, and Python
writes no bytecode.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
PARTS = ("src", "perfbench", "BENCHMARK.json")


def extract(ref: str, dest: Path) -> None:
    """REF's :data:`PARTS`, written under ``dest`` by ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref, *PARTS], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def record_path(workload: str, seed: int | None) -> Path:
    """The record of a batch, one per workload and seed, with ``default``
    for run.py's own seed, so that a batch at another seed keeps its own."""
    return OUT / f"ab-{workload}-{'default' if seed is None else seed}.json"


def write_record(record: dict, out: Path = OUT) -> Path:
    """Write a batch's ``record`` under ``out`` by :func:`record_path`'s
    name, or the first free one of ``<name>-2.json``, ``<name>-3.json``, …
    when an earlier batch holds it, and return the path written."""
    out.mkdir(parents=True, exist_ok=True)
    stem = record_path(record["workload"], record["seed"]).stem
    for n in itertools.count(1):
        path = out / (f"{stem}.json" if n == 1 else f"{stem}-{n}.json")
        try:
            with path.open("x", encoding="utf-8") as f:
                f.write(json.dumps(record, indent=1))
            return path
        except FileExistsError:
            continue


def run_once(checkout: Path, workload: str, seed: int | None) -> dict | None:
    """The result line of one ``run.py --trace 0`` run on ``checkout``, as
    JSON, at ``run.py``'s own run length; None where the run fails."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--trace", "0", *(["--seed", str(seed)] if seed is not None else [])]
    proc = subprocess.run(cmd, cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def quartiles(values) -> tuple[float, float]:
    """``(Q1, Q3)`` by the inclusive method; a single value is both."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(specs: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per metric of ``specs`` (BENCHMARK.json's ``end_to_end``
    entries) that both results of some pair ``(ref, new)`` report: the
    medians, this checkout's wins and losses, REF's interquartile range and
    the median per-pair ratio new / ref (NaN where every ref value is 0)."""
    rows = []
    for spec in specs:
        name = spec["name"]
        both = [(r["metrics"][name]["value"], n["metrics"][name]["value"]) for r, n in pairs
                if name in r["metrics"] and name in n["metrics"]]
        if not both:
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        q1, q3 = quartiles(a for a, _ in both)
        ratios = [b / a for a, b in both if a != 0]
        rows.append({
            "metric": name, "unit": spec["unit"], "better": spec["better"], "pairs": len(both),
            "ref_median": statistics.median(a for a, _ in both),
            "new_median": statistics.median(b for _, b in both),
            "wins": sum(sign * (b - a) > 0 for a, b in both),
            "losses": sum(sign * (b - a) < 0 for a, b in both),
            "ref_iqr": q3 - q1,
            "median_ratio": statistics.median(ratios) if ratios else math.nan,
        })
    return rows


def _pairs(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"--pairs must be >= 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Paired perfbench runs: a git ref against this checkout.")
    ap.add_argument("ref")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=_pairs, default=10)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            extract(args.ref, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {args.ref!r}: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        sides = {"ref": Path(tmp), "new": ROOT}
        pairs, runs = [], []
        for i in range(args.pairs):
            order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
            got = {side: run_once(sides[side], args.workload, args.seed) for side in order}
            for side in order:
                r = got[side]
                state = "run failed" if r is None else f"correct={r['correct']} failed={r['failed']}/{r['attempted']}"
                print(f"pair {i} {side}: {state}", flush=True)
            runs.append({"pair": i, "order": order, **got})
            if got["ref"] is not None and got["new"] is not None:
                pairs.append((got["ref"], got["new"]))
    record = {"ref": args.ref, "workload": args.workload, "seed": args.seed, "runs": runs}
    print(f"record: {write_record(record)}")
    print(f"{'metric':<22} {'unit':>5} {'better':>6} {'ref median':>12} {'new median':>12} "
          f"{'W-L/pairs':>9} {'ref IQR':>10} {'new/ref':>8}")
    for row in summarize(specs, pairs):
        print(f"{row['metric']:<22} {row['unit']:>5} {row['better']:>6} {row['ref_median']:>12.6g} "
              f"{row['new_median']:>12.6g} {row['wins']:>3}-{row['losses']}/{row['pairs']:<2} "
              f"{row['ref_iqr']:>10.4g} {row['median_ratio']:>8.4f}")
    return 0 if len(pairs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
