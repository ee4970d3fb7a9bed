"""Golden report gate for the verification harness.

``data/golden_d4.json`` is the all-suite report at the default config with
40 trials (D = 4, seed 20260809).  A rewrite of the suite layer must keep
every violation count and regime note, and every numeric field within a
relative 1e-9.  The fixture keeps the by-design failures of T8, C2 and C3.
"""

import json
import math
from pathlib import Path

from tmlab.harness import ExperimentConfig, run_suites

GOLDEN = Path(__file__).parent / "data" / "golden_d4.json"
NUMERIC_FIELDS = ("trials", "max_violation", "empirical_prob", "bound_value", "mc_stderr", "seed", "tolerance")


def test_default_report_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = [r.to_dict() for r in run_suites(ExperimentConfig(trials=40))]
    assert [r["suite"] for r in reports] == [g["suite"] for g in golden]
    mismatches = []
    for got, want in zip(reports, golden):
        for name in ("version", "violations", "regime_notes"):
            if got[name] != want[name]:
                mismatches.append((got["suite"], name, want[name], got[name]))
        for name in NUMERIC_FIELDS:
            a, b = got[name], want[name]
            if (a is None or b is None) and a is not b:
                mismatches.append((got["suite"], name, b, a))
            elif b is not None and not math.isclose(a, b, rel_tol=1e-9):
                mismatches.append((got["suite"], name, b, a))
    assert not mismatches, "\n".join(
        f"{suite}.{name}: golden {want!r}, got {got!r}" for suite, name, want, got in mismatches
    )
