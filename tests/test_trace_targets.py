"""The benchmark's span tracer finds every function it traces.

``perfbench/spans.py`` wraps the ``tmlab`` functions in its ``TARGETS`` by
module and attribute name, so a renamed or removed function would drop out
of ``run.py --trace`` without an error.  This test loads the tracer by path
and resolves each target against ``tmlab``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("prefix, module, attribute", _targets())
def test_trace_target_resolves(prefix, module, attribute):
    assert module.startswith("tmlab.")
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert inspect.isfunction(obj), f"{prefix}: {module}.{attribute} is {obj!r}"
