"""Decomposition budget of the verification suites.

Each suite runs at shape ``(2, 2)`` with 3 trials under counting wrappers of
``np.linalg.eigh``, ``np.linalg.eigvalsh`` and ``np.linalg.svd``, which add up
the matrices of every (stacked) call.  The pinned counts are the budget: a
value read that falls back to a full ``eigh``, a tensor decomposed twice, or
work moved from an eigensolver into SVDs changes them, so the change fails
here instead of only slowing the benchmark.  A change that lowers a count on
purpose updates the table.
"""

import math

import numpy as np
import pytest

from tmlab.harness import ExperimentConfig, SuiteId, run_suite

# suite: matrices decomposed by (eigh, eigvalsh, svd)
BUDGET = {
    "L1_PowerMonotone": (6, 3, 0),
    "L2_Kantorovich": (6, 18, 0),
    "L3_MarkovChebyshev": (6, 6, 0),
    "T1_AndoHiaiGeneralized": (9, 3, 9),
    "C1_AndoHiaiDual": (9, 3, 9),
    "T2_LieTrotterLimit": (57, 0, 0),
    "T3_LieTrotterTail": (21, 9, 9),
    "T7_Psi": (9, 18, 12),
    "T8_Phi": (9, 18, 12),
    "T9_TC": (9, 9, 21),
    "C2_MajorizationTMI": (9, 12, 12),
    "C3_MajorizationTMD": (9, 12, 12),
    "C4_MajorizationTC": (9, 9, 21),
    "T63_PsdLimit": (30, 15, 0),
    "T65_JointConvexity": (30, 33, 9),
    "APP_Fusion": (18, 21, 6),
    "APP_LinearTransform": (24, 30, 9),
}


@pytest.fixture
def matrices(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            counts[_name] += math.prod(np.shape(a)[:-2])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_budget_covers_every_suite():
    assert set(BUDGET) == {sid.value for sid in SuiteId}


@pytest.mark.parametrize("suite", list(BUDGET))
def test_suite_decomposition_budget(matrices, suite):
    run_suite(suite, ExperimentConfig(trials=3, shape=(2, 2)))
    assert (matrices["eigh"], matrices["eigvalsh"], matrices["svd"]) == BUDGET[suite]
