"""Decomposition budget of the verification suites.

Each suite runs at shape ``(2, 2)`` with 3 trials under counting wrappers of
``np.linalg.eigh``, ``np.linalg.eigvalsh``, ``np.linalg.svd`` and
``np.linalg.cholesky``, which add up the matrices of every (stacked) call;
a Cholesky factorization that raises counts too.  The pinned counts are the budget: a
value read that falls back to a full ``eigh``, a tensor decomposed twice, or
work moved from an eigensolver into SVDs changes them, so the change fails
here instead of only slowing the benchmark.  A change that lowers a count on
purpose updates the table.
"""

import math

import numpy as np
import pytest

from tmlab.harness import ExperimentConfig, SuiteId, run_suite

# suite: matrices decomposed by (eigh, eigvalsh, svd, cholesky)
BUDGET = {
    "L1_PowerMonotone": (3, 0, 0, 3),
    "L2_Kantorovich": (3, 0, 0, 6),
    "L3_MarkovChebyshev": (6, 0, 0, 0),
    "T1_AndoHiaiGeneralized": (6, 0, 9, 0),
    "C1_AndoHiaiDual": (6, 0, 9, 0),
    "T2_LieTrotterLimit": (51, 0, 0, 0),
    "T3_LieTrotterTail": (18, 6, 9, 6),
    "T7_Psi": (6, 12, 12, 6),
    "T8_Phi": (6, 12, 12, 6),
    "T9_TC": (6, 0, 21, 0),
    "C2_MajorizationTMI": (6, 6, 12, 0),
    "C3_MajorizationTMD": (6, 6, 12, 0),
    "C4_MajorizationTC": (6, 0, 21, 0),
    "T63_PsdLimit": (18, 3, 0, 0),
    "T65_JointConvexity": (27, 0, 0, 24),
    "APP_Fusion": (15, 0, 0, 15),
    "APP_LinearTransform": (21, 12, 6, 21),
}


@pytest.fixture
def matrices(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0, "cholesky": 0}
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
    assert tuple(matrices.values()) == BUDGET[suite]
