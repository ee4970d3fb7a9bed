"""Golden report gates for the verification harness.

Each default fixture is the all-suite report at the default config except
for its trial count and shape (seed 20260809):

- ``data/golden_d4.json``: shape ``(2, 2)`` (D = 4), 40 trials;
- ``data/golden_d16.json``: shape ``(4, 4)`` (D = 16), 70 trials, enough
  that the harness's trial stacks at D = 16 span two chunks.

``data/golden_override.json`` pins the non-default paths: three configs at
shape ``(3,)`` with q = 3, p = 2 and odd m = 3, a user generator in each
(``harmonic_like``, ``power:-0.5``, ``square``) and a user ``ensembles``
override in the first two.  Together they run all 17 suites.  Each entry
holds its config and the reports it produced.

A rewrite of the suite layer must keep every violation count and regime
note, and every numeric field within a relative 1e-9.  The fixtures keep the
by-design failures of T8, C2 and C3.
"""

import json
import math
from pathlib import Path

from tmlab.harness import STACK_BYTES, ExperimentConfig, SuiteId, _chunks, run_suites

DATA = Path(__file__).parent / "data"
NUMERIC_FIELDS = ("trials", "max_violation", "empirical_prob", "bound_value", "mc_stderr", "seed", "tolerance")
GOLDEN = {"golden_d4.json": ((2, 2), 40), "golden_d16.json": ((4, 4), 70)}


def _load(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _mismatches(name, cfg, golden):
    """Differences between the reports of ``cfg`` and the ``golden`` ones."""
    reports = [r.to_dict() for r in run_suites(cfg)]
    assert [r["suite"] for r in reports] == [g["suite"] for g in golden], name
    out = []
    for got, want in zip(reports, golden):
        where = f"{name}:{got['suite']}"
        for field in ("version", "violations", "regime_notes"):
            if got[field] != want[field]:
                out.append((where, field, want[field], got[field]))
        for field in NUMERIC_FIELDS:
            a, b = got[field], want[field]
            if (a is None or b is None) and a is not b:
                out.append((where, field, b, a))
            elif b is not None and not math.isclose(a, b, rel_tol=1e-9):
                out.append((where, field, b, a))
    return out


def _assert_none(mismatches):
    assert not mismatches, "\n".join(
        f"{where}.{field}: golden {want!r}, got {got!r}" for where, field, want, got in mismatches
    )


def test_d16_fixture_spans_two_stack_chunks():
    shape, trials = GOLDEN["golden_d16.json"]
    d = math.prod(shape)
    assert trials * d * d * 16 > STACK_BYTES
    assert len(_chunks(ExperimentConfig(trials=trials, shape=shape))) >= 2


def test_default_report_matches_golden():
    mismatches = []
    for name, (shape, trials) in GOLDEN.items():
        mismatches += _mismatches(name, ExperimentConfig(trials=trials, shape=shape), _load(name))
    _assert_none(mismatches)


def test_override_fixture_covers_every_suite():
    entries = _load("golden_override.json")
    assert {s for e in entries for s in e["config"]["suites"]} == {s.value for s in SuiteId}
    for entry in entries:
        cfg = ExperimentConfig.from_dict(entry["config"])
        assert cfg.shape == (3,) and cfg.exponents["m"] % 2 == 1 and cfg.function is not None


def test_override_reports_match_golden():
    mismatches = []
    for i, entry in enumerate(_load("golden_override.json")):
        mismatches += _mismatches(f"golden_override.json[{i}]", ExperimentConfig.from_dict(entry["config"]),
                                  entry["reports"])
    _assert_none(mismatches)
