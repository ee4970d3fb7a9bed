"""The line counter of ``tools/count_lines.py`` gives every line one kind."""

import importlib.util
import subprocess
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


def test_a_source_counted_against_itself_has_no_deltas(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text('"""Doc."""\n\n# c\nx = 1\n', encoding="utf-8")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True)
    counter = _counter()
    counter.main([str(package), "--against", "HEAD"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split() for row in rows] == [[name] + ["+0"] * 5 for name in ("a.py", "total")]
    (package / "b.py").write_text("y = 2\n", encoding="utf-8")
    counter.main([str(package), "--against", "HEAD"])
    assert capsys.readouterr().out.splitlines()[2].split() == ["b.py", "+1", "+1", "+0", "+0", "+0"]
