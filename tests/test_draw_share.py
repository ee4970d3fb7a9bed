"""Smoke tests of ``tools/draw_share.py``."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("draw_share", ROOT / "tools" / "draw_share.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_two_configs_are_report_digest_configs():
    tool = _tool()
    assert [name for name, _, _ in tool.configs() if name in tool.NAMES] == list(tool.NAMES)


def test_a_tiny_config_prints_a_share_per_suite_and_writes_nothing(tmp_path):
    shutil.copytree(ROOT / "src" / "tmlab", tmp_path / "src" / "tmlab", ignore=shutil.ignore_patterns("__pycache__"))
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    suites = ["L1_PowerMonotone", "APP_LinearTransform"]
    shares = _tool().shares(tmp_path, {"trials": 2, "suites": suites})
    assert list(shares) == suites
    for row in shares.values():
        assert 0.0 <= row["draw_s"] <= row["suite_s"] and 0.0 <= row["share"] <= 1.0
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
