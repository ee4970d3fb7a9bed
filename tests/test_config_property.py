"""Property test of the config contract.

Inside the supported band (the default p, and either q in [0.05, 32] at the
default m = 2 or m in [2, 40] at q in [0.05, 2], at any shape from D = 1 to
D = 64) every suite yields a report whose numeric fields are all finite.
Anywhere else a valid config, with the suite's default generator or any
builtin generator id, yields such a report or raises
``ValueError``/``ConfigError`` (both exit 2 from the CLI).  Beyond the band
the exits are double-range overflows, such as T9's ``cap**p``,
``K(m, M, 2q)`` at large q and m together (C1 at q = 2 from m = 44 on some
seeds) and the lift ``x**m f`` on its probe grid from m = 51.  A bad
scalar anywhere in ``seed``, ``trials``, ``shape``, ``exponents``,
``ensembles`` or ``tolerance`` (a bool, a string, a non-integer where an
integer goes, a non-finite number or an integer past double range), and a
field of the wrong kind, raise ``ConfigError``.
"""

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmlab.harness import ConfigError, ExperimentConfig, SuiteId, run_suites

# One shape per unfolding dimension D in {1, 2, 4, 9, 16, 64}.
SHAPES = ((1,), (2,), (2, 2), (3, 3), (4, 4), (8, 8))

positive = st.one_of(
    st.floats(min_value=0.05, max_value=8.0),
    st.floats(min_value=1e-300, max_value=1e300, exclude_min=True),
)
exponents = st.fixed_dictionaries({}, optional={"q": positive, "p": positive, "m": st.integers(2, 64)})
# Builtin generator ids, including lifted, transposed and psi chains; a
# suite whose generator rule rejects one raises ConfigError.
FUNCTIONS = (
    "identity", "square", "geometric", "harmonic_like", "power:0.5", "power:2", "power:-0.5",
    "psi:0.5", "psi:2", "liftn:1:geometric", "liftn:2:power:0.5", "liftn:3:harmonic_like",
    "transpose:geometric", "transpose:power:0.5", "transpose:psi:1", "liftn:2:transpose:power:0.5",
)
band = st.one_of(
    st.fixed_dictionaries({"q": st.floats(min_value=0.05, max_value=32.0)}),
    st.fixed_dictionaries({"q": st.floats(min_value=0.05, max_value=2.0), "m": st.integers(2, 40)}),
)


def finite_fields(report) -> bool:
    return all(math.isfinite(v) for v in report.to_dict().values() if isinstance(v, float))


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    trials=st.integers(1, 3),
    suite=st.sampled_from([s.value for s in SuiteId]),
    exps=exponents,
    function=st.one_of(st.none(), st.sampled_from(FUNCTIONS)),
)
# Per-sample trace statistics near 1e155, whose squared deviations exceed double range.
@example(shape=(4, 4), trials=2, suite="T9_TC", exps={"q": 6.0, "p": 5.0}, function=None)
# r / q overflows to an infinite power, which once crashed the integer test of spectral_power.
@example(shape=(1,), trials=1, suite="T3_LieTrotterTail", exps={"q": 1e-14, "p": 1.797693134862316e294}, function=None)
# The scalar cap's p-th power overflows while the mean's spectrum stays at or below 1.
@example(shape=(1,), trials=2, suite="T9_TC", exps={"q": 2.0, "p": 1e300}, function=None)
# Rounding leaves the powered means with negative eigenvalues, whose logs were NaN.
@example(shape=(4, 4), trials=1, suite="C4_MajorizationTC", exps={"q": 6.0}, function=None)
# The cap/floor ratio overflows before any tensor fails a gate.
@example(shape=(1,), trials=1, suite="T9_TC", exps={"q": 6.06e183}, function=None)
# The lift overflows on its probe grid.
@example(shape=(2, 2), trials=1, suite="C1_AndoHiaiDual", exps={"m": 51}, function=None)
# T9's Kantorovich cap overflows, and at (3, 3) its trace statistic Tr(tail**p) / c.
@example(shape=(2, 2), trials=1, suite="T9_TC", exps={"q": 50.0}, function=None)
@example(shape=(3, 3), trials=1, suite="T9_TC", exps={"q": 57.0}, function=None)
def test_valid_config_reports_finite_or_raises_value_error(shape, trials, suite, exps, function):
    # No warning filter: an overflow must raise ValueError without a
    # RuntimeWarning first (pyproject turns warnings into errors).
    cfg = ExperimentConfig(shape=shape, trials=trials, suites=(suite,), exponents=exps, function=function)
    try:
        (report,) = run_suites(cfg)
    except ValueError:  # ConfigError is a ValueError
        return
    assert finite_fields(report), report


@pytest.mark.parametrize("top", [1e160, 1e200, 1e300, 8e307])
def test_huge_spectra_report_or_raise_value_error(top):
    # T63's Frobenius errors of the regularized means square entries past
    # 1e154; at 8e307 its dominated draw overflows, which raises.
    ensemble = {"kind": "spectrum", "m": top / 2, "M": top}
    cfg = ExperimentConfig(trials=2, suites=("T63_PsdLimit",), ensembles={"x": ensemble, "y": dict(ensemble)})
    try:
        (report,) = run_suites(cfg)
    except ValueError:
        assert top == 8e307
        return
    assert finite_fields(report), report


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    trials=st.integers(1, 3),
    suite=st.sampled_from([s.value for s in SuiteId]),
    exps=band,
)
# The dyadic levels and powered means of the largest q at the largest D.
@example(shape=(8, 8), trials=3, suite="T7_Psi", exps={"q": 32.0})
@example(shape=(8, 8), trials=3, suite="C4_MajorizationTC", exps={"q": 32.0})
@example(shape=(2, 2), trials=3, suite="C3_MajorizationTMD", exps={"q": 9.0})
# The lifted premise means of the largest m, whose bottom eigenvalues the geq premise divides by.
@example(shape=(8, 8), trials=3, suite="C1_AndoHiaiDual", exps={"q": 2.0, "m": 40})
@example(shape=(3, 3), trials=3, suite="T3_LieTrotterTail", exps={"q": 0.46, "m": 40})
def test_supported_band_reports_finite_fields(shape, trials, suite, exps):
    cfg = ExperimentConfig(shape=shape, trials=trials, suites=(suite,), exponents=exps)
    (report,) = run_suites(cfg)
    assert finite_fields(report), report


BAD_SCALARS = [float("nan"), float("inf"), -float("inf"), True, False, "2", 10**400]
BAD_INTEGERS = BAD_SCALARS + [2.5]
VALID = {
    "seed": 7,
    "shape": [2, 2],
    "exponents": {"q": 2.0, "p": 1.0, "m": 2},
    "ensembles": {
        "x": {"kind": "spectrum", "m": 0.3, "M": 2.0},
        "y": {"kind": "rank_deficient", "rank": 2, "dof": 8},
    },
    "tolerance": 1e-8,
    "trials": 3,
}
# Where a bad scalar may go: a path into VALID and the bad values there.
PLACES = [
    (("exponents", "q"), BAD_SCALARS),
    (("exponents", "p"), BAD_SCALARS),
    (("exponents", "m"), BAD_INTEGERS),
    (("ensembles", "x", "m"), BAD_SCALARS),
    (("ensembles", "x", "M"), BAD_SCALARS),
    (("ensembles", "y", "rank"), BAD_INTEGERS),
    (("ensembles", "y", "dof"), BAD_INTEGERS),
    (("tolerance",), BAD_SCALARS),
    (("trials",), BAD_INTEGERS),
    (("seed",), BAD_INTEGERS),
    (("shape", 0), [2.7, True, "2", 0, 10**400]),
]


def test_bad_scalar_raises_config_error():
    # Every bad value at every place, not a sample: each pins one hole.
    accepted = []
    for path, bad in PLACES:
        for value in bad:
            payload = copy.deepcopy(VALID)
            node = payload
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                ExperimentConfig.from_dict(payload)
            except ConfigError:
                continue
            accepted.append((path, value))
    assert not accepted


def test_valid_base_payload_accepted():
    ExperimentConfig.from_dict(VALID)


@pytest.mark.parametrize("field, value", [("shape", 4), ("shape", "22"), ("norm", 5), ("function", 5), ("suites", 5)])
def test_field_of_wrong_kind_raises_config_error(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**VALID, field: value})
