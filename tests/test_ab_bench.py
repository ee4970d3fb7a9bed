"""The summary statistics of ``tools/ab_bench.py`` on fixed inputs; no
test runs the benchmark."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": v, "unit": "1/s"} for name, v in values.items()}}


SPECS = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "p50", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_summary_of_fixed_pairs():
    pairs = [
        (_result(rate=100.0, p50=10.0), _result(rate=110.0, p50=9.0)),
        (_result(rate=104.0, p50=10.0), _result(rate=104.0, p50=11.0)),
        (_result(rate=96.0, p50=12.0), _result(rate=120.0, p50=12.0)),
        (_result(rate=108.0, p50=8.0), _result(rate=99.0, p50=6.0)),
    ]
    rate, p50 = _tool().summarize(SPECS, pairs)
    # Ratios 1.1, 1.0, 1.25, 0.9166..; quartiles of 96, 100, 104, 108 (inclusive) are 99 and 105.
    assert rate == {"metric": "rate", "unit": "1/s", "better": "higher", "pairs": 4, "ref_median": 102.0,
                    "new_median": 107.0, "wins": 2, "losses": 1, "ref_iqr": 6.0,
                    "median_ratio": pytest.approx((1.1 + 1.0) / 2)}
    # Lower is better: 9 < 10 and 6 < 8 win, 11 > 10 loses, 12 = 12 is a tie.
    assert (p50["wins"], p50["losses"], p50["ref_median"], p50["new_median"]) == (2, 1, 10.0, 10.0)
    assert p50["ref_iqr"] == pytest.approx(10.5 - 9.5)


def test_a_single_pair_and_a_zero_reference():
    [row] = _tool().summarize(SPECS[:1], [(_result(rate=0.0), _result(rate=3.0))])
    assert (row["ref_iqr"], row["wins"]) == (0.0, 1)
    assert math.isnan(row["median_ratio"])


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_pairs_below_one_are_refused_before_any_run(pairs, capsys):
    with pytest.raises(SystemExit) as info:
        _tool().main(["HEAD", "--workload", "verify_d4", "--pairs", pairs])
    assert info.value.code == 2
    assert f"--pairs must be >= 1, got {pairs}" in capsys.readouterr().err
