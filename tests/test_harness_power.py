"""What ``verify`` can see: defects made by scaling one function of the
library, at shape (2, 2) with 40 trials.

The tail rule: every tail bound shrunk by scaling ``harness._tail_summary``'s
mean and stderr.  The pinned counts are those of the unmutated rule, then
under each scale.  A fivefold smaller bound moves L3, T3 and T8; a halved
one moves only T8, whose first check fails by design.  T7 and T9 move under
neither: their sample bounds stay far above the clamp at 1 (T7's smallest
row is about 5, T9's above 10,000), a blind spot the README names.

The mean body and L2's constant: every mean scaled in ``means._finish_mean``,
where each mean is born, and the Kantorovich constant scaled where the
harness reads it.  Each mutant is pinned by the suites whose count moves,
from what to what, over all 17.  A mean 2% too small also moves C3 from 36
to 35: a defect hides part of a by-design finding.  L2 misses its constant
cut by 10%, since its worst trial uses 78-83% of it (the README names that
blind spot); halved, it moves.
"""

import pytest

from tmlab import harness, means

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


BODY_MUTANTS = {
    (means, "_finish_mean", 1.02): {"T2_LieTrotterLimit": (0, 40)},
    (means, "_finish_mean", 0.98): {"T2_LieTrotterLimit": (0, 40), "C3_MajorizationTMD": (36, 35)},
    (harness, "kantorovich", 0.9): {},
    (harness, "kantorovich", 0.5): {"L2_Kantorovich": (0, 32)},
}


def _all_counts():
    cfg = harness.ExperimentConfig(trials=40, shape=(2, 2))
    return {sid: harness.run_suite(sid, cfg).violations for sid in cfg.suites}


@pytest.fixture(scope="module")
def unmutated():
    return _all_counts()


@pytest.mark.parametrize("module, name, scale", list(BODY_MUTANTS), ids=lambda v: getattr(v, "__name__", str(v)))
def test_suites_moved_by_a_scaled_function(monkeypatch, unmutated, module, name, scale):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: scale * real(*args))
    counts = _all_counts()
    assert len(counts) == 17
    moved = {sid: (unmutated[sid], n) for sid, n in counts.items() if n != unmutated[sid]}
    assert moved == BODY_MUTANTS[module, name, scale]
