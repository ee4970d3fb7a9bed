"""What the tail rule can see: every tail bound shrunk by scaling
``harness._tail_summary``'s mean and stderr, at shape (2, 2) with 40 trials.

The pinned counts are those of the unmutated rule, then under each scale.
A fivefold smaller bound moves L3, T3 and T8; a halved one moves only T8,
whose first check fails by design.  T7 and T9 move under neither: their
sample bounds stay far above the clamp at 1 (T7's smallest row is about 5,
T9's above 10,000), a blind spot the README names.
"""

import pytest

from tmlab import harness

TAIL_SUITES = ("L3_MarkovChebyshev", "T3_LieTrotterTail", "T7_Psi", "T8_Phi", "T9_TC")

COUNTS = {
    1.0: {"L3_MarkovChebyshev": 0, "T3_LieTrotterTail": 0, "T7_Psi": 0, "T8_Phi": 1, "T9_TC": 0},
    0.5: {"L3_MarkovChebyshev": 0, "T3_LieTrotterTail": 0, "T7_Psi": 0, "T8_Phi": 2, "T9_TC": 0},
    0.2: {"L3_MarkovChebyshev": 1, "T3_LieTrotterTail": 1, "T7_Psi": 0, "T8_Phi": 3, "T9_TC": 0},
}


@pytest.mark.parametrize("scale", sorted(COUNTS))
def test_tail_counts_under_a_scaled_bound(monkeypatch, scale):
    summarize, calls = harness._tail_summary, []

    def scaled(stats):
        calls.append(len(stats))
        return tuple(scale * v for v in summarize(stats))

    monkeypatch.setattr(harness, "_tail_summary", scaled)
    cfg = harness.ExperimentConfig(trials=40, shape=(2, 2))
    assert {sid: harness.run_suite(sid, cfg).violations for sid in TAIL_SUITES} == COUNTS[scale]
    # One summary per check, two checks per suite, each over every trial:
    # the rows of a check divide it by each threshold c.
    assert calls == [40] * 10
