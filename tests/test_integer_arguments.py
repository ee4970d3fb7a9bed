"""Every numeric argument of the library and the config follows one rule,
``core._number``: an integer where one goes (a ``numbers.Integral``, numpy
integers too), else a real (a ``numbers.Real``); never a bool; finite as a
double and inside the argument's range.  Anything else raises
``ValueError`` naming the argument, instead of being truncated, read as 1,
or carried into a silent result; numpy scalars pass with the bits of
Python numbers.  The config turns the error into ``ConfigError``."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import tmlab as tm
from tmlab.core import loewner_extremes
from tmlab.harness import ConfigError, EnsembleSpec, ExperimentConfig, sample

from conftest import SHAPE2, SHAPE22, rand_pd

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
    "kk_factors k_start": (lambda v: tm.kk_factors(X, tm.geometric(), 2, 2.0, k_start=v), "k_start"),
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
    "kk_factors k_start": 1.5,
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


PINCH = tm.pinching([(0, 1), (2, 3)], SHAPE22)

# Every real site: a call with the bad value, and the argument name its error carries.
REAL_SITES = {
    "spectral_power": (lambda v: tm.spectral_power(X, v), "p"),
    "trace_tail_bound": (lambda v: tm.trace_tail_bound([X, Y], v, tm.HermitianTensor.identity(SHAPE22)), "q"),
    "loewner_extremes": (lambda v: loewner_extremes(X, Y, v), "tol"),
    "loewner_compare": (lambda v: tm.loewner_compare(X, Y, v), "tol"),
    "is_pd": (lambda v: X.is_pd(v), "tol"),
    "power": (lambda v: tm.power(v), "alpha"),
    "psi": (lambda v: tm.psi(v), "s"),
    "dyadic_decompose": (lambda v: tm.dyadic_decompose(v), "q"),
    "psi_factors": (lambda v: tm.psi_factors(v, tm.geometric(), X, Y), "q"),
    "prop310_factors": (lambda v: tm.prop310_factors(X, v), "q"),
    "kk_factors": (lambda v: tm.kk_factors(X, tm.geometric(), 2, v), "q"),
    "lt_expression": (lambda v: tm.lt_expression(v, X, Y, tm.geometric()), "q"),
    "lt_ordering_check q": (lambda v: tm.lt_ordering_check(X, Y, tm.geometric(), 2, v, "pmi"), "q"),
    "lt_ordering_check tol": (lambda v: tm.lt_ordering_check(X, Y, tm.geometric(), 2, 0.25, "pmi", v), "tol"),
    "convergence_study": (lambda v: tm.convergence_study(X, Y, tm.geometric(), (v, 0.25)), "q grid entry"),
    "epsilon_mean_limit": (lambda v: tm.epsilon_mean_limit(X, Y, tm.geometric(), (v, 1e-4)), "epsilon grid entry"),
    "convex_combination": (lambda v: tm.convex_combination([PINCH, PINCH], [v, 0.5]), "weight"),
    "EnsembleSpec m": (lambda v: EnsembleSpec(SHAPE22, "spectrum", 1, m=v, M=2.0), "m"),
    "EnsembleSpec M": (lambda v: EnsembleSpec(SHAPE22, "spectrum", 1, m=0.5, M=v), "M"),
    "config tolerance": (lambda v: ExperimentConfig(tolerance=v), "tolerance"),
    "config q": (lambda v: ExperimentConfig(exponents={"q": v}), "exponent q"),
    "config p": (lambda v: ExperimentConfig(exponents={"p": v}), "exponent p"),
    "config ensemble m": (lambda v: ExperimentConfig(ensembles={"x": {"kind": "spectrum", "m": v, "M": 2.0},
                                                                "y": {"kind": "spectrum"}}), "m"),
}


@pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf], ids=["bool", "nan", "inf", "-inf"])
@pytest.mark.parametrize("site", list(REAL_SITES))
def test_real_sites_refuse_bools_and_non_finite_values(site, value):
    call, name = REAL_SITES[site]
    what = "a real number" if value is True else "finite"
    with pytest.raises(ValueError, match=f"^{name} must be {what}") as info:
        call(value)
    assert info.value.args[0].endswith(f"got {value!r}")


@pytest.mark.parametrize("site", [s for s in REAL_SITES if s.startswith("config")])
def test_a_config_number_raises_config_error(site):
    call, _ = REAL_SITES[site]
    with pytest.raises(ConfigError):
        call(math.nan)


def test_message_forms():
    for call, message in [
        (lambda: tm.psi(0.0), "s must be finite and > 0, got 0.0"),
        (lambda: tm.prop310_factors(X, 0.5), "q must be finite and >= 1, got 0.5"),
        (lambda: tm.lt_ordering_check(X, Y, tm.geometric(), 2, 0.75), "q must be finite and in (0, 0.5], got 0.75"),
        (lambda: tm.convex_combination([PINCH], [1.5]), "weight must be finite and in [0, 1], got 1.5"),
        (lambda: tm.kyfan_stats(X, 5), "k must be in [1, 4], got 5"),
        (lambda: tm.loewner_compare(X, Y, -0.001), "tol must be finite and >= 0, got -0.001"),
        (lambda: ExperimentConfig(trials=0), "trials must be in [1, 4294967295], got 0"),
        (lambda: ExperimentConfig(seed=10**400), f"seed must be finite as a double, got {10**400!r}"),
        (lambda: tm.psi("1"), "s must be a real number, got '1'"),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


# Each of these once returned a result, or blamed the spectrum, instead of naming the argument.
SILENT = {
    "infinite power is the zero tensor":
        (lambda: tm.spectral_power(tm.HermitianTensor.diag([0.5, 0.25], SHAPE2), math.inf), "p"),
    "infinite tail exponent reads (0.0, 0.0)":
        (lambda: tm.trace_tail_bound([0.5 * tm.HermitianTensor.identity(SHAPE2)] * 2, math.inf,
                                     tm.HermitianTensor.identity(SHAPE2)), "q"),
    "tol=True reads EQ":
        (lambda: tm.loewner_compare(tm.HermitianTensor.diag([1.0, 2.0], SHAPE2),
                                    tm.HermitianTensor.diag([1.5, 1.0], SHAPE2), tol=True), "tol"),
    "is_pd tol=True": (lambda: X.is_pd(tol=True), "tol"),
    "power(True) is power:1": (lambda: tm.power(True), "alpha"),
    "psi(True)": (lambda: tm.psi(True), "s"),
    "dyadic_decompose(True)": (lambda: tm.dyadic_decompose(True), "q"),
    "prop310_factors q=True": (lambda: tm.prop310_factors(X, True), "q"),
    "kk_factors q=True": (lambda: tm.kk_factors(X, tm.geometric(), 2, q=True), "q"),
    "convex_combination weight True": (lambda: tm.convex_combination([PINCH], [True]), "weight"),
    "epsilon grid entry True":
        (lambda: tm.epsilon_mean_limit(X, Y, tm.geometric(), (True, 0.5)), "epsilon grid entry"),
    "NaN exponent blamed the spectrum": (lambda: tm.spectral_power(X, math.nan), "p"),
}


@pytest.mark.parametrize("case", list(SILENT))
def test_silent_results_are_refused(case):
    call, name = SILENT[case]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def _same(a, b):
    """Equal bits: tensors entry by entry, tuples item by item, numbers by value and type."""
    if isinstance(a, tm.HermitianTensor):
        return np.array_equal(a.unfold(), b.unfold())
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, tm.BoundFactors):
        return a.kk_list == b.kk_list
    return type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("call, plain, numpy", [
    (lambda v: tm.spectral_power(X, v), 0.37, np.float64(0.37)),
    (lambda v: tm.spectral_power(X, v), 3, np.int64(3)),
    (lambda v: tm.trace_tail_bound([X, Y], v, tm.HermitianTensor.identity(SHAPE22)), 1.5, np.float64(1.5)),
    (lambda v: tm.power(v).fn(np.linspace(0.1, 3.0, 7)).tolist(), 0.3, np.float64(0.3)),
    (lambda v: tm.psi(v).fn(np.linspace(0.1, 3.0, 7)).tolist(), 0.7, np.float64(0.7)),
    (lambda v: tm.dyadic_decompose(v), 5.5, np.float64(5.5)),
    (lambda v: tm.prop310_factors(X, v), 1.5, np.float64(1.5)),
    (lambda v: tm.kk_factors(X, tm.geometric(), 3, v), 1.5, np.float64(1.5)),
    (lambda v: tm.lt_expression(v, X, Y, tm.geometric()), 0.125, np.float64(0.125)),
    (lambda v: tm.lt_ordering_check(X, Y, tm.geometric(), 0, v, "pmi", 1e9).lam_min, 0.25, np.float64(0.25)),
    (lambda v: tm.loewner_compare(X, Y, v), 1e-8, np.float64(1e-8)),
    (lambda v: tm.apply_map(tm.convex_combination([PINCH, PINCH], [v, 1.0 - v]), X), 0.3, np.float64(0.3)),
    (lambda v: tm.epsilon_mean_limit(X, Y, tm.geometric(), (v, 1e-4))[1].errors, 1e-2, np.float64(1e-2)),
], ids=["spectral_power", "spectral_power-int", "trace_tail_bound", "power", "psi", "dyadic_decompose",
        "prop310_factors", "kk_factors", "lt_expression", "lt_ordering_check", "loewner_compare",
        "convex_combination", "epsilon_mean_limit"])
def test_numpy_scalars_give_the_bits_of_python_numbers(call, plain, numpy):
    assert _same(call(numpy), call(plain))


def test_only_core_imports_numbers():
    # The rule is core._number; no other module decides what a number is.
    package = Path(tm.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.add(path.name)
    assert importers == {"core.py"}
