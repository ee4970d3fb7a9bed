import math

import numpy as np
import pytest

import tmlab as tm
from tmlab.harness import (
    _SUITES,
    ConfigError,
    EnsembleSpec,
    ExperimentConfig,
    SuiteId,
    dominated_sample,
    enforce_premise,
    reports_to_json,
    run_suite,
    run_suites,
    sample,
)

from conftest import SHAPE22, rand_pd

SHAPE = tm.TensorShape((2, 2))


class TestSample:
    def test_determinism_bitwise(self):
        spec = EnsembleSpec(SHAPE, "wishart", seed=99, dof=6)
        a = sample(spec, 17)
        b = sample(spec, 17)
        assert np.array_equal(a.unfold(), b.unfold())
        c = sample(spec, 18)
        assert not np.array_equal(a.unfold(), c.unfold())

    def test_degenerate_spectrum_is_exact_identity(self):
        spec = EnsembleSpec(SHAPE, "spectrum", seed=1, m=1.0, M=1.0)
        t = sample(spec, 0)
        assert np.array_equal(t.unfold(), np.eye(4, dtype=complex))

    def test_spectrum_bounds_hold_exactly(self):
        spec = EnsembleSpec(SHAPE, "spectrum", seed=5, m=0.25, M=2.0)
        for trial in range(200):
            ev = sample(spec, trial).eigenvalues()
            assert ev.min() >= 0.25
            assert ev.max() <= 2.0

    def test_wishart_law_of_large_numbers(self):
        spec = EnsembleSpec(SHAPE, "wishart", seed=7, dof=8)
        n = 10_000
        diag = np.zeros((n, 4))
        off01 = np.zeros(n, dtype=complex)
        for trial in range(n):
            m = sample(spec, trial).unfold()
            diag[trial] = np.diag(m).real
            off01[trial] = m[0, 1]
        means = diag.mean(axis=0)
        stderrs = diag.std(axis=0, ddof=1) / math.sqrt(n)
        for mu, se in zip(means, stderrs):
            assert abs(mu - (1.0 + 1e-6)) <= 3.0 * se
        se_off = off01.real.std(ddof=1) / math.sqrt(n)
        assert abs(off01.mean().real) <= 3.0 * se_off
        assert abs(off01.mean().imag) <= 3.0 * off01.imag.std(ddof=1) / math.sqrt(n)

    def test_rank_deficient_rank(self):
        spec = EnsembleSpec(SHAPE, "rank_deficient", seed=3, rank=2)
        for trial in range(20):
            t = sample(spec, trial)
            assert tm.spectral_decompose(t).rank == 2
            assert t.lambda_min() >= -1e-10

    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(SHAPE, "poisson", seed=0)
        with pytest.raises(ConfigError):
            EnsembleSpec(SHAPE, "spectrum", seed=0, m=2.0, M=1.0)
        with pytest.raises(ConfigError):
            EnsembleSpec(SHAPE, "rank_deficient", seed=0, rank=9)

    def test_dominated_sample_in_range(self):
        yspec = EnsembleSpec(SHAPE, "rank_deficient", seed=11, rank=3)
        wspec = EnsembleSpec(SHAPE, "wishart", seed=12, dof=8)
        for trial in range(10):
            y = sample(yspec, trial)
            x = dominated_sample(y, wspec, trial)
            res = tm.eta(x, y)
            assert res.range_ok


class TestEnforcePremise:
    def test_scalar_case(self):
        x = 4.0 * tm.HermitianTensor.identity(SHAPE)
        xp, yp = enforce_premise(x, x, tm.geometric(), "leq")
        assert np.max(np.abs(xp.unfold() - np.eye(4))) <= 1e-12
        assert np.max(np.abs(yp.unfold() - np.eye(4))) <= 1e-12

    def test_extreme_eigenvalue_lands_on_one(self, rng):
        f = tm.power_lift(tm.geometric(), 2)
        for _ in range(20):
            x, y = rand_pd(rng), rand_pd(rng)
            xp, yp = enforce_premise(x, y, f, "leq")
            assert tm.mean_pd(xp, yp, f).lambda_max() == pytest.approx(1.0, abs=1e-10)
            xp, yp = enforce_premise(x, y, f, "geq")
            assert tm.mean_pd(xp, yp, f).lambda_min() == pytest.approx(1.0, abs=1e-10)

    def test_direction_validation(self, rng):
        with pytest.raises(ValueError):
            enforce_premise(rand_pd(rng), rand_pd(rng), tm.geometric(), "both")


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.trials == 200
        assert len(cfg.suites) == 17

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config"):
            ExperimentConfig.from_dict({"seeds": 3})

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="unknown suites"):
            ExperimentConfig.from_dict({"suites": ["T99"]})

    def test_exponent_merge(self):
        cfg = ExperimentConfig.from_dict({"exponents": {"q": 1.5}})
        assert cfg.exponents["q"] == 1.5
        assert cfg.exponents["m"] == 2

    def test_exponent_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"exponents": {"q": -1.0}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"exponents": {"zzz": 1.0}})

    def test_ensemble_validation(self):
        with pytest.raises(ConfigError, match="ensembles"):
            ExperimentConfig.from_dict({"ensembles": {"x": {"kind": "wishart"}}})
        cfg = ExperimentConfig.from_dict(
            {"ensembles": {"x": {"kind": "wishart", "dof": 4}, "y": {"kind": "spectrum", "m": 0.5, "M": 2.0}}}
        )
        assert cfg.ensembles["x"]["dof"] == 4

    def test_bad_function_id(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"function": "sinh:1"})

    def test_round_trip(self):
        cfg = ExperimentConfig(trials=17, seed=5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


ORDERING_SUITES = [
    "L1_PowerMonotone",
    "L2_Kantorovich",
    "T1_AndoHiaiGeneralized",
    "C1_AndoHiaiDual",
    "T2_LieTrotterLimit",
    "T63_PsdLimit",
    "T65_JointConvexity",
    "APP_Fusion",
    "APP_LinearTransform",
]


class TestSuites:
    def test_every_suite_runs_on_default_config(self):
        cfg = ExperimentConfig(trials=10)
        for sid in SuiteId:
            report = run_suite(sid, cfg)
            assert report.trials == 10
            assert report.suite == sid.value
            assert 0.0 <= report.empirical_prob <= 1.0
            assert report.violations <= max(report.trials, 6 * 17)

    def test_every_suite_runs_at_d1(self):
        cfg = ExperimentConfig(trials=3, shape=(1,))
        for sid in SuiteId:
            assert run_suite(sid, cfg).trials == 3

    @pytest.mark.parametrize("shape", [(1,), (2, 2)])
    def test_default_ensembles_are_config_ensembles(self, shape):
        # A row's default ensembles, passed as the config's own, give the
        # same report: both go through the config's ensemble parser.
        assert list(_SUITES) == list(SuiteId)
        d = math.prod(shape)
        for sid, row in _SUITES.items():
            default = run_suite(sid, ExperimentConfig(trials=3, shape=shape))
            explicit = run_suite(sid, ExperimentConfig(trials=3, shape=shape, ensembles=row.ensembles(d)))
            assert explicit == default, sid

    def test_fusion_has_no_false_failures_at_large_d(self):
        # Means at D = 36 reach scale ~1e7: the verdict's relative rule applies.
        report = run_suite("APP_Fusion", ExperimentConfig(trials=3, shape=(6, 6)))
        assert report.violations == 0, report.regime_notes

    def test_majorization_tc_reports_finite_fields_at_d64(self):
        report = run_suite("C4_MajorizationTC", ExperimentConfig(trials=2, shape=(8, 8))).to_dict()
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))

    @pytest.mark.parametrize("suite", ORDERING_SUITES)
    def test_ordering_suites_zero_violations(self, suite):
        cfg = ExperimentConfig(trials=120)
        report = run_suite(suite, cfg)
        assert report.violations == 0, report.regime_notes

    def test_l3_tail_bound_passes(self):
        report = run_suite("L3_MarkovChebyshev", ExperimentConfig(trials=300))
        assert report.violations == 0

    def test_reports_deterministic(self):
        cfg = ExperimentConfig(trials=25)
        a = reports_to_json(run_suites(cfg))
        b = reports_to_json(run_suites(cfg))
        assert a == b

    def test_seed_changes_reports(self):
        a = reports_to_json(run_suites(ExperimentConfig(trials=25, suites=("APP_Fusion",))))
        b = reports_to_json(run_suites(ExperimentConfig(trials=25, seed=1, suites=("APP_Fusion",))))
        assert a != b

    def test_incompatible_function_raises(self):
        cfg = ExperimentConfig(trials=5, function="psi:1.0")
        with pytest.raises(ConfigError, match="cannot run"):
            run_suite("T1_AndoHiaiGeneralized", cfg)
        cfg = ExperimentConfig(trials=5, function="geometric")
        with pytest.raises(ConfigError, match="cannot run"):
            run_suite("APP_Fusion", cfg)

    def test_explicit_compatible_function_used(self):
        cfg = ExperimentConfig(trials=5, function="power:0.5")
        report = run_suite("T1_AndoHiaiGeneralized", cfg)
        assert any("power:0.5" in note for note in report.regime_notes)
        # T63 alone takes a generator that is not normalized; T2 rejects it.
        cfg = ExperimentConfig(trials=3, function="psi:1.0")
        assert "function=psi:1" in run_suite("T63_PsdLimit", cfg).regime_notes
        with pytest.raises(ConfigError, match="normalized"):
            run_suite("T2_LieTrotterLimit", cfg)

    def test_unknown_suite_name(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            run_suite("T99_Nope", ExperimentConfig())

    @pytest.mark.parametrize("suite", ["T1_AndoHiaiGeneralized", "T7_Psi", "T9_TC"])
    def test_premise_suites_reject_singular_ensembles(self, suite):
        cfg = ExperimentConfig.from_dict(
            {
                "trials": 3,
                "ensembles": {
                    "x": {"kind": "wishart", "dof": 8},
                    "y": {"kind": "rank_deficient", "rank": 2},
                },
                "suites": [suite],
            }
        )
        with pytest.raises(ConfigError, match="PD ensembles"):
            run_suite(suite, cfg)

    def test_report_fields_and_version(self):
        report = run_suite("APP_Fusion", ExperimentConfig(trials=5))
        payload = report.to_dict()
        assert payload["version"] == "tmlab-report/1"
        assert list(payload.keys()) == [
            "version",
            "suite",
            "trials",
            "violations",
            "max_violation",
            "empirical_prob",
            "bound_value",
            "mc_stderr",
            "seed",
            "tolerance",
            "regime_notes",
        ]

    def test_ordering_suites_clean_at_larger_shape(self):
        # D = 8: premise rescaling must stay well conditioned (dof scales
        # with the unfolding dimension in the default ensembles)
        cfg = ExperimentConfig(trials=60, shape=(2, 2, 2))
        for suite in ("T1_AndoHiaiGeneralized", "C1_AndoHiaiDual", "T65_JointConvexity", "APP_Fusion"):
            report = run_suite(suite, cfg)
            assert report.violations == 0, (suite, report.regime_notes)

    def test_config_ensemble_override_applies(self):
        cfg = ExperimentConfig.from_dict(
            {
                "trials": 10,
                "ensembles": {
                    "x": {"kind": "spectrum", "m": 0.5, "M": 1.5},
                    "y": {"kind": "spectrum", "m": 0.5, "M": 1.5},
                },
                "suites": ["T65_JointConvexity"],
            }
        )
        report = run_suite("T65_JointConvexity", cfg)
        assert report.violations == 0
