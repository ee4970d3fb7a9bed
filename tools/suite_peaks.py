"""Print each suite's peak traced memory at the D = 64 and D = 16 configs.

For the ``d64`` and ``d16-100`` configs of ``report_digest.configs()``, a
fresh ``python -B`` process on a checkout's ``src/`` (this repository by
default) runs every suite once at 1 trial, so that module loading and
first-use caches are not traced, and then at the config under
``tracemalloc``.  A suite's peak is the traced peak over what was traced
at its start, in MiB.  Nothing is written into the checkout.

    python tools/suite_peaks.py [CHECKOUT]
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
NAMES = ("d64", "d16-100")

_CHILD = """
import json, sys, tracemalloc
from tmlab.harness import ExperimentConfig, run_suite
config = json.loads(sys.argv[1])
cfg, warm = ExperimentConfig.from_dict(config), ExperimentConfig.from_dict({**config, "trials": 1})
peaks = {}
tracemalloc.start()
for name in cfg.suites:
    run_suite(name, warm)
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    run_suite(name, cfg)
    peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / 2**20
print(json.dumps(peaks))
"""


def peaks(checkout: Path, config: dict) -> dict[str, float]:
    """``{suite: MiB}``: each suite's traced peak at ``config`` over its
    start, after a 1-trial warm run, in a fresh process on
    ``checkout/src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", _CHILD, json.dumps(config)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"suite run exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = Path(args[0]) if args else ROOT
    chosen = [(name, config) for name, config, _ in configs() if name in NAMES]
    table = {name: peaks(checkout, config) for name, config in chosen}
    print(f"{'suite (MiB)':<24}" + "".join(f"{name:>10}" for name, _ in chosen))
    for suite in table[chosen[0][0]]:
        print(f"{suite:<24}" + "".join(f"{table[name][suite]:>10.2f}" for name, _ in chosen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
