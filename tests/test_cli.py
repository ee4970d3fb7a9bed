import json
import math
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

    @pytest.mark.parametrize("args", [["nan", "nan", "0.5"], ["inf", "inf", "2"], ["1", "inf", "0.5"]],
                             ids=["nan-unit-p", "inf-degenerate", "M-inf-unit-p"])
    def test_non_finite_arguments_exit_two(self, args, capsys):
        assert main(["bounds", "--kantorovich", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "need finite m, M and p" in err


class TestVerifyCommand:
    def test_l3_exit_zero(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(
            ["verify", "--suite", "L3", "--config", "default", "--trials", "60", "--out", str(out_file)]
        )
        assert code == 0, err
        payload = json.loads(out_file.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["version"] == "tmlab-report/2"
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

    def test_invalid_json_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"trials": 10,', encoding="utf-8")
        assert main(["verify", "--suite", "L1", "--config", str(cfg_path)]) == 2
        assert f"config {str(cfg_path)!r} is not valid JSON" in capsys.readouterr().err

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
            {"ensembles": {"x": {"kind": "spectrum", "m": 0.1, "M": 10**400}, "y": {"kind": "spectrum"}}},
            {"shape": [2.7, 2]},
            {"norm": 5},
            {"ensembles": {"x": {"kind": "wishart", "dof": 0}, "y": {"kind": "spectrum"}}},
            {"ensembles": {"x": {"dof": 4}, "y": {"kind": "spectrum"}}},
            {"ensembles": {"x": {"kind": "wishart", "dof": 4, "nu": 1}, "y": {"kind": "spectrum"}}},
            {"function": "nope"},
            {"function": "psi:inf"},
            {"function": "power:abc"},
            {"function": "liftn:2.5:geometric"},
            {"function": "psi:"},
        ],
        ids=["tolerance-inf", "tolerance-nan", "tolerance-str", "trials-bool", "seed-float", "exponent-n", "dof-float",
             "m-float", "q-bool", "q-str", "q-nan", "p-inf", "ensemble-m-nan", "ensemble-M-inf", "ensemble-M-past-double",
             "shape-float", "norm-int", "dof-zero", "ensemble-no-kind",
             "ensemble-unknown-field", "function-unknown", "function-psi-inf", "function-power-abc",
             "function-liftn-float", "function-psi-empty"],
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

    def test_spectrum_range_past_double_range_exits_two(self, tmp_path):
        # Both bounds are finite, but M - m is not, so no uniform on [m, M] exists.
        spectrum = {"kind": "spectrum", "m": -1e308, "M": 1e308}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 2, "ensembles": {"x": spectrum, "y": spectrum}}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path)])
        assert code == 2, err
        assert "finite range M - m, got [-1e+308, 1e+308]" in err
        assert "Traceback" not in err

    def test_infinite_power_exits_two(self, tmp_path):
        # T3 powers its tail by r / q, here past double range.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shape": [1], "trials": 1, "suites": ["T3_LieTrotterTail"],
                                        "exponents": {"q": 1e-14, "p": 1.797693134862316e294}}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path)])
        assert code == 2, err
        assert "T3_LieTrotterTail: exponents.p / exponents.q must be finite, got inf" in err

    def test_integer_power_past_double_range_exits_two(self, tmp_path):
        # T3's root (mean_q)**(1/q) at q = 2**-60 is 60 squarings, past double range.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 3, "suites": ["T3_LieTrotterTail"], "exponents": {"q": 2.0**-60}}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path)])
        assert code == 2, err
        assert "power input ** 1.15292e+18 leaves the double range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite", ["C1_AndoHiaiDual", "T3_LieTrotterTail"])
    def test_lifted_premise_reports_at_m_12(self, suite, tmp_path):
        # The geq premise divides by the bottom eigenvalue of the lifted mean
        # mean_pd(x, y, x**12 f), whose condition number passes 1 / eps: read
        # from the mean's graded factor, it stays positive, and the suite reports.
        cfg_path = tmp_path / "cfg.json"
        out_file = tmp_path / "report.json"
        cfg_path.write_text(json.dumps({"trials": 20, "shape": [3, 3], "exponents": {"m": 12}, "suites": [suite]}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path), "--out", str(out_file)])
        assert code == 0, err
        (report,) = json.loads(out_file.read_text())
        assert report["suite"] == suite
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float)), report

    def test_t3_reports_at_m_24_with_fractional_root(self, tmp_path):
        # The 1 / q = 2.17 root of the powered mean meets eigenvalues like
        # -1e-18 against lambda_max near 1e17: noise the PSD gate admits and
        # the root maps as 0.
        cfg_path = tmp_path / "cfg.json"
        out_file = tmp_path / "report.json"
        cfg_path.write_text(json.dumps({"seed": 1, "trials": 20, "shape": [2, 2], "suites": ["T3_LieTrotterTail"],
                                        "exponents": {"m": 24, "q": 0.46}}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(out_file)])
        assert code == 0
        (report,) = json.loads(out_file.read_text())
        assert report["suite"] == "T3_LieTrotterTail"

    def test_c4_reports_at_q_8(self, tmp_path):
        # The powered means of q = 8 have condition numbers near 1e16: their
        # spectra, read from the graded factor and not from eigvalsh of the
        # formed matrix, stay positive, and C4 reports.
        cfg_path = tmp_path / "cfg.json"
        out_file = tmp_path / "report.json"
        cfg_path.write_text(json.dumps({"suites": ["C4_MajorizationTC"], "exponents": {"q": 8}}))
        code, _, err = run_cli(["verify", "--config", str(cfg_path), "--out", str(out_file)])
        assert code == 0, err
        (report,) = json.loads(out_file.read_text())
        assert report["suite"] == "C4_MajorizationTC" and report["violations"] == 0

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

    @pytest.mark.parametrize("y_diag, fn", [([1.0, 1e-9], "power:-0.5"), ([1.0, 1e-12], "geometric")])
    def test_pd_pairs_take_mean_pd(self, y_diag, fn, tmp_path, counts):
        # Strictly PD, though y fails HermitianTensor.is_pd's relative test.
        sh = tm.TensorShape((2,))
        x = tm.fold(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex), sh)
        y = tm.HermitianTensor.diag(y_diag, sh)
        xp, yp, out = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "m.json"
        tm.save_tensor(x, xp)
        tm.save_tensor(y, yp)
        assert main(["mean", "--x", str(xp), "--y", str(yp), "--fn", fn, "--out", str(out)]) == 0
        # y's condition (1e9, 1e12) leaves the quotient's values inside the margin,
        # so the certificate gates x; eigh serves y and the quotient.
        assert counts.calls == {"eigh": 2, "eigvalsh": 0, "svd": 0, "cholesky": 1}
        assert np.array_equal(tm.load_tensor(out).unfold(), tm.mean_pd(x, y, tm.from_id(fn)).unfold())

    @pytest.mark.parametrize(
        "payload",
        [{"re": [1.0], "im": [0.0]}, [1.0, 0.0], {"dims": [2.5], "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}],
        ids=["no-dims", "list", "float-dims"],
    )
    def test_malformed_tensor_file_exits_two(self, payload, tmp_path, capsys):
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        xp.write_text(json.dumps(payload))
        tm.save_tensor(tm.HermitianTensor.identity(tm.TensorShape((2,))), yp)
        assert main(["mean", "--x", str(xp), "--y", str(yp), "--fn", "geometric"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        code, _, err = run_cli(["mean", "--x", "/no/x.json", "--y", "/no/y.json", "--fn", "geometric"])
        assert code == 2
        assert "cannot read tensor" in err


def test_psi_at_infinite_s_exits_two_from_verify_and_mean(tmp_path, capsys):
    # psi:inf would be the zero function: a zero mean, and no T63 violation.
    cfg_path, xp, out = tmp_path / "cfg.json", tmp_path / "x.json", tmp_path / "m.json"
    cfg_path.write_text(json.dumps({"function": "psi:inf", "suites": ["T63_PsdLimit"]}))
    tm.save_tensor(tm.HermitianTensor.identity(tm.TensorShape((2,))), xp)
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert main(["mean", "--x", str(xp), "--y", str(xp), "--fn", "psi:inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("s must be finite and > 0, got inf") == 2
    assert not out.exists()


class TestLieTrotterCommand:
    def test_study_runs(self):
        code, out, _ = run_cli(["lie-trotter", "--study", "--pairs", "1"])
        assert code == 0
        assert "monotone=True" in out
        assert "commuting pair" in out

    def test_requires_study_flag(self):
        code, _, _ = run_cli(["lie-trotter"])
        assert code == 2

    def test_negative_pairs_are_refused(self):
        code, out, err = run_cli(["lie-trotter", "--study", "--pairs", "-3"])
        assert code == 2 and out == ""
        assert "--pairs must be >= 0, got -3" in err


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


@pytest.mark.parametrize("entry", [{"re": ["2.5"], "im": [0.0]}, {"re": [2.5], "im": [False]}], ids=["string", "bool"])
def test_mean_rejects_entries_that_are_not_json_numbers(entry, tmp_path, capsys):
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    for path in (xp, yp):
        path.write_text(json.dumps({"dims": [1], **entry}))
    assert main(["mean", "--x", str(xp), "--y", str(yp), "--fn", "geometric"]) == 2
    assert "entries must be JSON numbers" in capsys.readouterr().err


def test_t9_cap_trace_past_double_range_exits_two(tmp_path):
    # At q = 3 the caps reach 1e10, so d cap**34 overflows, while Tr(mean**34) of both
    # premises stays finite: the trace rule of the tail columns refuses it.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"shape": [2, 2], "trials": 5, "suites": ["T9_TC"],
                                    "exponents": {"q": 3.0, "p": 34.0}}))
    code, _, err = run_cli(["verify", "--config", str(cfg_path)])
    assert code == 2, err
    assert "T9_TC: a trace statistic Tr(tail**power) / c leaves double range" in err
