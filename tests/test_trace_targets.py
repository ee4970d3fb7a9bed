"""The benchmark's span tracer finds every function it traces.

``perfbench/spans.py`` wraps the ``tmlab`` functions in its ``TARGETS`` by
module and attribute name, so a renamed or removed function would drop out
of ``run.py --trace`` without an error.  These tests load the tracer by path,
resolve each target against ``tmlab``, and check that a traced run of T2 and
T63 records spans under the public kernels those suites call.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from tmlab.harness import ExperimentConfig, run_suite

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("prefix, module, attribute", _spans().TARGETS)
def test_trace_target_resolves(prefix, module, attribute):
    assert module.startswith("tmlab.")
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert inspect.isfunction(obj), f"{prefix}: {module}.{attribute} is {obj!r}"


def test_tracer_sees_t2_and_t63():
    tracer = _spans().Tracer()
    tracer.install()
    try:
        cfg = ExperimentConfig(trials=2, suites=("T2_LieTrotterLimit", "T63_PsdLimit"))
        for suite in cfg.suites:
            run_suite(suite, cfg)
    finally:
        tracer.uninstall()
    calls, _ = tracer.per_name()
    assert calls.get("lie_trotter.convergence_study", 0) >= 1
    assert calls.get("means.epsilon_mean_limit", 0) >= 1
