"""Property test of the config contract.

Every valid config yields a report whose numeric fields are all finite, or
raises ``ValueError``/``ConfigError`` (both exit 2 from the CLI); a bad
scalar anywhere in ``exponents``, ``ensembles``, ``tolerance`` or
``trials`` raises ``ConfigError``.
"""

import math
import warnings

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
exponents = st.fixed_dictionaries({}, optional={"q": positive, "p": positive, "m": st.integers(2, 12)})


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    trials=st.integers(1, 3),
    suite=st.sampled_from([s.value for s in SuiteId]),
    exps=exponents,
)
# Per-sample trace statistics near 1e155, whose squared deviations exceed double range.
@example(shape=(4, 4), trials=2, suite="T9_TC", exps={"q": 6.0, "p": 5.0})
# r / q overflows to an infinite power, which once crashed the integer test of spectral_power.
@example(shape=(1,), trials=1, suite="T3_LieTrotterTail", exps={"q": 1e-14, "p": 1.797693134862316e294})
# The scalar cap's p-th power overflows while the mean's spectrum stays at or below 1.
@example(shape=(1,), trials=2, suite="T9_TC", exps={"q": 2.0, "p": 1e300})
def test_valid_config_reports_finite_or_raises_value_error(shape, trials, suite, exps):
    cfg = ExperimentConfig(shape=shape, trials=trials, suites=(suite,), exponents=exps)
    try:
        with warnings.catch_warnings():
            # Extreme exponents overflow on the way to a ValueError.
            warnings.simplefilter("ignore", RuntimeWarning)
            (report,) = run_suites(cfg)
    except ValueError:  # ConfigError is a ValueError
        return
    numbers = [v for v in report.to_dict().values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in numbers), report


BAD_SCALARS = [float("nan"), float("inf"), -float("inf"), True, False, "2"]
BAD_INTEGERS = BAD_SCALARS + [2.5]
VALID = {
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
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bad_scalar_raises_config_error(data):
    path, bad = data.draw(st.sampled_from(PLACES))
    value = data.draw(st.sampled_from(bad))
    payload = {**VALID, "exponents": dict(VALID["exponents"]),
               "ensembles": {k: dict(v) for k, v in VALID["ensembles"].items()}}
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)


def test_valid_base_payload_accepted():
    ExperimentConfig.from_dict(VALID)
