"""Smoke tests of ``tools/report_digest.py``."""

import importlib.util
import shutil
from pathlib import Path

from tmlab.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ten_configs_are_valid():
    configs = _tool().configs()
    assert len(configs) == 10 and len({name for name, _, _ in configs}) == 10
    for _, config, _ in configs:
        ExperimentConfig.from_dict(config)


def test_a_tiny_config_digests_the_same_twice_and_writes_nothing(tmp_path):
    shutil.copytree(ROOT / "src" / "tmlab", tmp_path / "src" / "tmlab", ignore=shutil.ignore_patterns("__pycache__"))
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    tool, config = _tool(), {"trials": 2, "suites": ["L1_PowerMonotone", "T3_LieTrotterTail"]}
    first = tool.digest(tmp_path, config)
    assert len(first) == 64 and tool.digest(tmp_path, config) == first
    assert tool.digest(tmp_path, config, ("--seed", "1")) != first
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
