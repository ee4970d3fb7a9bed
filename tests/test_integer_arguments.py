"""Library integer arguments follow one rule (``core._integer``): a
``numbers.Integral`` that is not a bool, at or above a lower bound.  A
float or a bool raises ``ValueError`` naming the argument instead of being
truncated; numpy integers pass."""

import numpy as np
import pytest

import tmlab as tm
from tmlab.harness import EnsembleSpec, sample

from conftest import SHAPE22, rand_pd

X = rand_pd(np.random.default_rng(5))
Y = rand_pd(np.random.default_rng(6))
SPEC = EnsembleSpec(SHAPE22, "wishart", 1)

# Every site: a call with the bad value, and the argument name its error carries.
SITES = {
    "power_lift": (lambda v: tm.power_lift(tm.geometric(), v), "lift exponent n"),
    "mean_recursive": (lambda v: tm.mean_recursive(X, Y, tm.geometric(), v), "lift exponent n"),
    "ando_hiai_g": (lambda v: tm.ando_hiai_g(tm.geometric(), v), "m"),
    "kk_factors": (lambda v: tm.kk_factors(X, tm.geometric(), v, 2.0), "m"),
    "kyfan_stats": (lambda v: tm.kyfan_stats(X, v), "k"),
    "ky_fan": (lambda v: tm.ky_fan(v), "Ky Fan k"),
    "pinching": (lambda v: tm.pinching([(0, v)], (2,)), "partition index"),
    "sample": (lambda v: sample(SPEC, v), "trial"),
    "lt_ordering_check": (lambda v: tm.lt_ordering_check(X, Y, tm.geometric(), v, 0.25, "pmi"), "m"),
    "EnsembleSpec seed": (lambda v: EnsembleSpec(SHAPE22, "wishart", v), "seed"),
}

# Floats that ``int()`` would truncate to a valid value.
TRUNCATED = {
    "power_lift": 2.5,
    "mean_recursive": 2.5,
    "ando_hiai_g": 2.9,
    "kk_factors": 2.7,
    "kyfan_stats": 1.9,
    "ky_fan": 2.5,
    "pinching": 1.7,
    "sample": 2.5,
    "lt_ordering_check": 2.5,
    "EnsembleSpec seed": 2.5,
}


@pytest.mark.parametrize("value", ["float", True], ids=["float", "bool"])
@pytest.mark.parametrize("site", list(SITES))
def test_non_integers_raise_naming_the_argument(site, value):
    call, name = SITES[site]
    bad = TRUNCATED[site] if value == "float" else value
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}"):
        call(bad)


def test_values_below_the_bound_raise():
    with pytest.raises(ValueError, match="^m must be >= 2, got 1"):
        tm.ando_hiai_g(tm.geometric(), 1)
    with pytest.raises(ValueError, match="^lift exponent n must be >= 0, got -1"):
        tm.power_lift(tm.geometric(), -1)
    with pytest.raises(ValueError, match="^Ky Fan k must be >= 1, got 0"):
        tm.ky_fan(0)


def test_numpy_integers_pass():
    assert tm.power_lift(tm.geometric(), np.int64(2)).label == "liftn:2:geometric"
    assert str(tm.ky_fan(np.int32(2))) == "kyfan:2"
    h = tm.HermitianTensor(np.array([[2.0, 1.0], [1.0, 3.0]]), (2,))
    numpy_built, int_built = tm.pinching([(np.int64(0),), (np.uint8(1),)], (2,)), tm.pinching([(0,), (1,)], (2,))
    assert np.array_equal(tm.apply_map(numpy_built, h).unfold(), tm.apply_map(int_built, h).unfold())
    assert np.array_equal(sample(SPEC, np.int64(3)).unfold(), sample(SPEC, 3).unfold())
    assert EnsembleSpec(SHAPE22, "wishart", np.int64(7)).seed == 7
    assert tm.kyfan_stats(X, np.int64(2)) == tm.kyfan_stats(X, 2)
