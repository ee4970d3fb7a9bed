"""The line counter of ``tools/count_lines.py`` gives every line one kind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _counter():
    spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "tmlab").glob("*.py")), ids=lambda p: p.name)
def test_the_four_counts_sum_to_the_line_count(path):
    source = path.read_text(encoding="utf-8")
    counts = _counter().count(source)
    assert set(counts) == {"code", "docstring", "comment", "blank"}
    assert sum(counts.values()) == len(source.splitlines())


def test_each_kind_is_seen():
    source = ('"""Module.\n\nMore."""\n\n# A comment.\ndef f():  # trailing\n'
              '    """One line."""\n    return (1,\n            2)\n')
    assert _counter().count(source) == {"code": 3, "docstring": 4, "comment": 1, "blank": 1}
