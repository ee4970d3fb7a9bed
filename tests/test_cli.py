import json
import subprocess
import sys

import numpy as np
import pytest

import tmlab as tm
from tmlab.cli import main, resolve_suite
from tmlab.harness import ConfigError, ExperimentConfig, reports_to_json, run_suites


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "tmlab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestBoundsCommand:
    def test_kantorovich_value(self):
        code, out, _ = run_cli(["bounds", "--kantorovich", "1", "2", "2"])
        assert code == 0
        assert out.strip() == "1.125"

    def test_second_value(self):
        code, out, _ = run_cli(["bounds", "--kantorovich", "1", "4", "2"])
        assert code == 0
        assert out.strip() == "1.5625"


class TestVerifyCommand:
    def test_l3_exit_zero(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(
            ["verify", "--suite", "L3", "--config", "default", "--trials", "60", "--out", str(out_file)]
        )
        assert code == 0, err
        payload = json.loads(out_file.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["version"] == "tmlab-report/1"
        assert payload[0]["suite"] == "L3_MarkovChebyshev"
        assert payload[0]["violations"] == 0

    def test_full_suite_alias(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(
            ["verify", "--suite", "T65", "--trials", "40", "--out", str(out_file)]
        )
        assert code == 0, err

    def test_suite_lines_carry_wall_time_and_report_stays_identical(self, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            code, _, err = run_cli(["verify", "--suite", "T65", "--trials", "20", "--out", str(out_file)])
            assert code == 0, err
            line = next(ln for ln in err.splitlines() if ln.startswith("T65_JointConvexity:"))
            assert float(line.rsplit("wall_s=", 1)[1]) >= 0.0
            reports.append(out_file.read_bytes())
        assert reports[0] == reports[1]
        cfg = ExperimentConfig(trials=20, suites=("T65_JointConvexity",))
        assert reports[0].decode() == reports_to_json(run_suites(cfg)) + "\n"

    def test_unknown_suite_exits_two(self):
        code, _, err = run_cli(["verify", "--suite", "T99"])
        assert code == 2
        assert "unknown suite" in err
        assert "usage" in err.lower()

    def test_unreadable_config_exits_two(self):
        code, _, err = run_cli(["verify", "--suite", "L3", "--config", "/nonexistent/cfg.json"])
        assert code == 2
        assert "cannot read config" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"tolerance": float("inf")},
            {"tolerance": float("nan")},
            {"tolerance": "1e-8"},
            {"trials": True},
            {"seed": 1.5},
            {"exponents": {"n": 4}},
            {"ensembles": {"x": {"kind": "wishart", "dof": 4.5}, "y": {"kind": "spectrum"}}},
            {"exponents": {"m": 2.5}},
            {"exponents": {"q": True}},
            {"exponents": {"q": "2"}},
            {"exponents": {"q": float("nan")}},
            {"exponents": {"p": float("inf")}},
            {"ensembles": {"x": {"kind": "spectrum", "m": float("nan"), "M": 1.0}, "y": {"kind": "spectrum"}}},
            {"ensembles": {"x": {"kind": "spectrum", "m": 0.1, "M": float("inf")}, "y": {"kind": "spectrum"}}},
        ],
        ids=["tolerance-inf", "tolerance-nan", "tolerance-str", "trials-bool", "seed-float", "exponent-n", "dof-float",
             "m-float", "q-bool", "q-str", "q-nan", "p-inf", "ensemble-m-nan", "ensemble-M-inf"],
    )
    def test_bad_config_value_exits_two(self, payload, tmp_path, capsys):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(cfg_path), "--suite", "L1"]) == 2

    @pytest.mark.parametrize(
        "suite, ensembles, message",
        [
            ("L1_PowerMonotone",
             {"x": {"kind": "spectrum", "m": -1.0, "M": 1.0}, "y": {"kind": "spectrum", "m": -1.0, "M": 1.0}},
             "needs PSD ensembles"),
            ("L3_MarkovChebyshev", {"x": {"kind": "spectrum", "m": 0.1, "M": 0.5}, "y": {"kind": "wishart", "dof": 8}},
             "y must be a spectrum ensemble"),
        ],
        ids=["L1-indefinite", "L3-wishart-y"],
    )
    def test_suite_rejects_ensemble_it_cannot_use(self, suite, ensembles, message, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 5, "ensembles": ensembles, "suites": [suite]}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path)])
        assert code == 2
        assert message in err

    def test_infinite_power_exits_two(self, tmp_path):
        # T3 powers its tail by r / q, here past double range.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shape": [1], "trials": 1, "suites": ["T3_LieTrotterTail"],
                                        "exponents": {"q": 1e-14, "p": 1.797693134862316e294}}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path)])
        assert code == 2, err
        assert "spectrum outside function domain" in err

    def test_config_file_and_overrides(self, tmp_path):
        cfg = {"trials": 500, "seed": 3, "suites": ["APP_Fusion"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(
            ["verify", "--config", str(cfg_path), "--suite", "APP_Fusion", "--trials", "30", "--out", str(out_file)]
        )
        assert code == 0, err
        payload = json.loads(out_file.read_text())
        assert payload[0]["trials"] == 30
        assert payload[0]["seed"] == 3


class TestMeanCommand:
    def test_matches_library(self, tmp_path):
        sh = tm.TensorShape((2,))
        x = tm.fold(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex), sh)
        y = tm.fold(np.array([[1.0, 0.0], [0.0, 4.0]], dtype=complex), sh)
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        tm.save_tensor(x, xp)
        tm.save_tensor(y, yp)
        code, out, err = run_cli(["mean", "--x", str(xp), "--y", str(yp), "--fn", "geometric"])
        assert code == 0, err
        result = tm.HermitianTensor.from_json_dict(json.loads(out))
        expected = tm.mean_pd(x, y, tm.geometric())
        assert np.max(np.abs(result.unfold() - expected.unfold())) <= 1e-15

    def test_psd_route(self, tmp_path):
        sh = tm.TensorShape((2,))
        x = tm.HermitianTensor.diag([0.5, 0.0], sh)
        y = tm.HermitianTensor.diag([1.0, 0.0], sh)
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        tm.save_tensor(x, xp)
        tm.save_tensor(y, yp)
        code, out, err = run_cli(["mean", "--x", str(xp), "--y", str(yp), "--fn", "geometric"])
        assert code == 0, err
        result = tm.HermitianTensor.from_json_dict(json.loads(out))
        assert np.allclose(result.unfold(), np.diag([np.sqrt(0.5), 0.0]))

    def test_missing_file_exits_two(self):
        code, _, err = run_cli(["mean", "--x", "/no/x.json", "--y", "/no/y.json", "--fn", "geometric"])
        assert code == 2
        assert "cannot read tensor" in err


class TestLieTrotterCommand:
    def test_study_runs(self):
        code, out, _ = run_cli(["lie-trotter", "--study", "--pairs", "1"])
        assert code == 0
        assert "monotone=True" in out
        assert "commuting pair" in out

    def test_requires_study_flag(self):
        code, _, _ = run_cli(["lie-trotter"])
        assert code == 2


class TestResolveSuite:
    def test_aliases(self):
        assert resolve_suite("L3") == "L3_MarkovChebyshev"
        assert resolve_suite("T63") == "T63_PsdLimit"
        assert resolve_suite("C1") == "C1_AndoHiaiDual"
        assert resolve_suite("APP_Fusion") == "APP_Fusion"

    def test_in_process_entry_point(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        code = main(["verify", "--suite", "L1", "--trials", "20", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
