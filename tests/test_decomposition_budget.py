"""Decomposition budget of the verification suites.

Each suite runs at shape ``(2, 2)`` with 3 trials under counting wrappers of
``np.linalg.eigh`` and ``np.linalg.eigvalsh``, which add up the matrices of
every (stacked) call.  The pinned counts are the budget: a value read that
falls back to a full ``eigh``, or a tensor decomposed twice, changes them, so
the change fails here instead of only slowing the benchmark.  A change that
lowers a count on purpose updates the table.
"""

import math

import numpy as np
import pytest

from tmlab.harness import ExperimentConfig, SuiteId, run_suite

# suite: (matrices decomposed by eigh, matrices decomposed by eigvalsh)
BUDGET = {
    "L1_PowerMonotone": (6, 9),
    "L2_Kantorovich": (6, 21),
    "L3_MarkovChebyshev": (6, 6),
    "T1_AndoHiaiGeneralized": (18, 15),
    "C1_AndoHiaiDual": (18, 15),
    "T2_LieTrotterLimit": (123, 51),
    "T3_LieTrotterTail": (42, 30),
    "T7_Psi": (21, 39),
    "T8_Phi": (21, 39),
    "T9_TC": (36, 48),
    "C2_MajorizationTMI": (21, 33),
    "C3_MajorizationTMD": (21, 33),
    "C4_MajorizationTC": (36, 48),
    "T63_PsdLimit": (30, 33),
    "T65_JointConvexity": (30, 42),
    "APP_Fusion": (18, 36),
    "APP_LinearTransform": (24, 51),
}


@pytest.fixture
def matrices(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0}
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
    assert (matrices["eigh"], matrices["eigvalsh"]) == BUDGET[suite]
