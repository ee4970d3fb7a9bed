"""Driving the Monte Carlo verification harness from Python.

Every suite draws seeded tensor ensembles, enforces the statement's premise
by deterministic rescaling where one is required, and reports violation
counts plus empirical-versus-bound comparisons.  The same machinery backs
the ``tmlab verify`` command.
"""

import json

from tmlab.harness import ExperimentConfig, reports_to_json, run_suite, run_suites

cfg = ExperimentConfig(trials=100, seed=20260809)

print("single suite:")
report = run_suite("T1_AndoHiaiGeneralized", cfg)
print(f"  {report.suite}: violations = {report.violations}, "
      f"mean bound = {report.bound_value:.4f}, max violation = {report.max_violation:.3e}")
for note in report.regime_notes:
    print(f"    note: {note}")

print("\na few more suites:")
for sid in ("L1_PowerMonotone", "T2_LieTrotterLimit", "T63_PsdLimit", "APP_Fusion"):
    r = run_suite(sid, cfg)
    print(f"  {r.suite:24s} violations = {r.violations:3d}  empirical = {r.empirical_prob:.4f}")

# Suites whose underlying orderings genuinely fail for noncommuting draws
# report that honestly in the notes rather than hiding it.
r = run_suite("T3_LieTrotterTail", ExperimentConfig(trials=60))
print(f"\n{r.suite}: violations of the tail rule = {r.violations}")
for note in r.regime_notes:
    if "chain" in note or "top-eigenvalue" in note:
        print(f"  {note}")

# Reports serialize as a stable JSON array (same bytes for same config).
text = reports_to_json(run_suites(ExperimentConfig(trials=30, suites=("L3_MarkovChebyshev",))))
payload = json.loads(text)
print(f"\nreport version: {payload[0]['version']}, fields: {list(payload[0])}")
