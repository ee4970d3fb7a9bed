"""Digest the reports of ``tmlab verify --suite all`` at ten fixed configs.

Runs the CLI of a checkout's ``src/`` (this repository by default) once per
config and prints the SHA-256 of each report with the config's name, so the
reports of two checkouts compare line by line.  Nothing is written into the
checkout: each config and its report live in a temporary directory, and
Python writes no bytecode.

    python tools/report_digest.py [CHECKOUT]
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def configs() -> list[tuple[str, dict, tuple[str, ...]]]:
    """``(name, config, extra verify arguments)`` of each config: the
    default, another seed, D = 64, D = 16 at 100 trials, the two golden
    configs, the three golden override configs and T3's worst-conditioned
    root (m = 24, q = 0.46)."""
    overrides = json.loads((ROOT / "tests" / "data" / "golden_override.json").read_text(encoding="utf-8"))
    return [
        ("default", {}, ()),
        ("seed-20261101", {}, ("--seed", "20261101")),
        ("d64", {"trials": 10, "shape": [8, 8]}, ()),
        ("d16-100", {"trials": 100, "shape": [4, 4]}, ()),
        ("golden_d4", {"trials": 40, "shape": [2, 2]}, ()),
        ("golden_d16", {"trials": 70, "shape": [4, 4]}, ()),
        *((f"override-{i}", entry["config"], ()) for i, entry in enumerate(overrides)),
        ("t3-m24", {"trials": 20, "shape": [3, 3], "exponents": {"m": 24, "q": 0.46}, "seed": 1}, ()),
    ]


def digest(checkout: Path, config: dict, args=()) -> str:
    """SHA-256 of the report of ``verify --suite all`` at ``config``, run
    on ``checkout/src``.  Raises ``RuntimeError`` unless the run exits 0 or
    1 (a report with violations)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "tmlab.cli", "verify", "--suite", "all", "--config", str(path), *args],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"verify exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return hashlib.sha256(proc.stdout).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = Path(args[0]) if args else ROOT
    for name, config, extra in configs():
        print(f"{digest(checkout, config, extra)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
