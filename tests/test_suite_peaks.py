"""Smoke tests of ``tools/suite_peaks.py``."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("suite_peaks", ROOT / "tools" / "suite_peaks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_two_configs_are_report_digest_configs():
    tool = _tool()
    assert [name for name, _, _ in tool.configs() if name in tool.NAMES] == list(tool.NAMES)


def test_a_tiny_config_prints_a_peak_per_suite_and_writes_nothing(tmp_path):
    shutil.copytree(ROOT / "src" / "tmlab", tmp_path / "src" / "tmlab", ignore=shutil.ignore_patterns("__pycache__"))
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    suites = ["L1_PowerMonotone", "APP_Fusion"]
    peaks = _tool().peaks(tmp_path, {"trials": 2, "suites": suites})
    assert list(peaks) == suites and all(0.0 < mib < 64.0 for mib in peaks.values())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
