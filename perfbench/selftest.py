"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload it makes one untraced run and two traced runs on the same
seed, at tiny sizes, and checks that:

- every run exits 0 and reports correct outputs;
- the last line carries exactly the metrics BENCHMARK.json names for the mode;
- the two traced runs give identical ``*.calls`` counts.

It also checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.  Takes about a
minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 20260809


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def result_of(workload: str, trace: int) -> dict:
    proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"])
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_run(res: dict, names: set, label: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(res)}"
    assert res["correct"] is True, f"{label}: outputs failed their checks"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{label}: attempted"
    assert isinstance(res["failed"], int), f"{label}: failed"
    assert set(res["metrics"]) == names, f"{label}: metric names differ: {set(res['metrics']) ^ names}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def check_no_sources() -> None:
    """Without src/, the benchmark must fail and print no result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "verify_d4", "--seed", str(SEED), "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "benchmark exited 0 without sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    try:
        for w in (w["name"] for w in bench["workloads"]):
            check_run(result_of(w, 0), e2e, f"{w} untraced")
            first, second = result_of(w, 1), result_of(w, 1)
            check_run(first, layer, f"{w} traced")
            check_run(second, layer, f"{w} traced again")
            counts = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"]) for k in layer if k.endswith(".calls")}
            drift = {k: v for k, v in counts.items() if v[0] != v[1]}
            assert not drift, f"{w}: *.calls differ between two traced runs: {drift}"
            print(f"ok  {w}: {len(e2e)} end-to-end and {len(layer)} per-layer metrics; {len(counts)} counts repeat")
        check_no_sources()
        print("ok  exits non-zero without sources")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
