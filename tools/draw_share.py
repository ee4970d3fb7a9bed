"""Print each suite's CPU time in the draw layer and its share of the suite.

For the ``default`` and ``d64`` configs of ``report_digest.configs()``, a
fresh ``python -B`` process on a checkout's ``src/`` (this repository by
default) runs every suite once at 1 trial, so that module loading and
first-use caches are not timed, and then at the config, with BLAS at one
thread as perfbench runs it, so that CPU time is not summed over idle BLAS
threads.  A suite's draw time is the process CPU time spent under the
harness's three draw entry points, ``_draw``, ``_increments`` and
``_random_maps`` (none calls another), and its share is that time over
the suite's own CPU time.  Nothing is written into the checkout.

    python tools/draw_share.py [CHECKOUT]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_digest import configs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("default", "d64")
ENTRY_POINTS = ("_draw", "_increments", "_random_maps")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

_CHILD = """
import json, sys, time
import tmlab.harness as harness
config, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
cfg, warm = harness.ExperimentConfig.from_dict(config), harness.ExperimentConfig.from_dict({**config, "trials": 1})
spent = [0.0]

def timed(fn):
    def wrapper(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.process_time() - start
    return wrapper

for name in names:
    setattr(harness, name, timed(getattr(harness, name)))
times = {}
for suite in cfg.suites:
    harness.run_suite(suite, warm)
    spent[0], start = 0.0, time.process_time()
    harness.run_suite(suite, cfg)
    times[suite] = (spent[0], time.process_time() - start)
print(json.dumps(times))
"""


def _row(draw: float, total: float) -> dict[str, float]:
    return {"draw_s": draw, "suite_s": total, "share": draw / total if total > 0 else 0.0}


def shares(checkout: Path, config: dict) -> dict[str, dict[str, float]]:
    """``{suite: {"draw_s", "suite_s", "share"}}``: each suite's CPU time
    under the draw entry points and in all, at ``config``, after a 1-trial
    warm run, in a fresh process on ``checkout/src``."""
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", _CHILD, json.dumps(config), json.dumps(ENTRY_POINTS)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"suite run exited {proc.returncode}: {proc.stderr}")
    return {suite: _row(draw, total) for suite, (draw, total) in json.loads(proc.stdout).items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = Path(args[0]) if args else ROOT
    chosen = [(name, config) for name, config, _ in configs() if name in NAMES]
    table = {name: shares(checkout, config) for name, config in chosen}
    for name, _ in chosen:
        rows = table[name]
        rows["all"] = _row(*(sum(row[key] for row in rows.values()) for key in ("draw_s", "suite_s")))
    print(f"{'suite':<24}" + "".join(f"{name + ' draw ms':>18}{'suite ms':>10}{'share':>7}" for name, _ in chosen))
    for suite in table[chosen[0][0]]:
        print(f"{suite:<24}" + "".join(f"{table[name][suite]['draw_s'] * 1e3:>18.1f}"
                                        f"{table[name][suite]['suite_s'] * 1e3:>10.1f}"
                                        f"{table[name][suite]['share']:>7.2f}" for name, _ in chosen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
