import dataclasses
import math
import pathlib

import numpy as np
import pytest

import tmlab as tm
from tmlab.core import HermitianStack
from tmlab.harness import (
    _SUITES,
    REPORT_VERSION,
    ConfigError,
    EnsembleSpec,
    ExperimentConfig,
    SuiteId,
    _cap_floor_stacks,
    _cdf_dominance,
    _chunks,
    _lie_trotter_sides,
    _rescale,
    dominated_sample,
    enforce_premise,
    reports_to_json,
    run_suite,
    run_suites,
    sample,
)
from tmlab.lie_trotter import _ordering_sides
from tmlab.means import _powered_mean

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
        # Finite bounds whose range M - m overflows, as floats or as integers.
        for bound in (1e308, 10**308):
            with pytest.raises(ConfigError, match=r"finite range M - m"):
                EnsembleSpec(SHAPE, "spectrum", seed=0, m=-bound, M=bound)
        with pytest.raises(ConfigError):
            EnsembleSpec(SHAPE, "rank_deficient", seed=0, rank=9)

    def test_dominated_sample_in_range(self):
        yspec = EnsembleSpec(SHAPE, "rank_deficient", seed=11, rank=3)
        wspec = EnsembleSpec(SHAPE, "wishart", seed=12, dof=8)
        for trial in range(10):
            y = sample(yspec, trial)
            x = dominated_sample(y, wspec, trial)
            res = tm.eta(x, y)
            off_range = np.eye(y.shape.square_dim) - tm.range_projector(y).unfold()
            assert np.linalg.norm(res.eta.unfold() @ off_range) <= 1e-12 * max(1.0, res.domination_constant)


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

    def test_rescaled_pairs_carry_both_caches(self, rng, monkeypatch):
        x, y = (HermitianStack.from_matrices([rand_pd(rng).unfold() for _ in range(3)]) for _ in range(2))
        base = tm.mean_pd(x, y, tm.power_lift(tm.geometric(), 2))
        pairs = [_rescale(x, y, base, direction, "test") for direction in ("leq", "geq")]
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, **k: calls.append(_n))
        for (xp, yp, _), t in zip(pairs, (base._eigenvalues()[:, -1], base._eigenvalues()[:, 0])):
            for scaled, raw in ((xp, x), (yp, y)):
                w, v = scaled._spectrum()
                assert scaled._eigenvalues() is w
                assert np.allclose(scaled.unfold(), (raw / t).unfold(), rtol=0.0, atol=1e-13 / t.min())
                assert np.allclose(scaled.unfold() @ v, v * w[:, None, :], rtol=0.0, atol=1e-12 / t.min())
        assert calls == []

    def test_rescale_bits_do_not_depend_on_earlier_decompositions(self):
        # The rescaled stacks inherit only what _rescale always reads; a
        # caller who has already decomposed x, y and the mean gets the same
        # bits, in the matrices and in both caches.
        def run(warm):
            rng = np.random.default_rng(23)
            x, y = (HermitianStack.from_matrices([rand_pd(rng).unfold() for _ in range(3)]) for _ in range(2))
            base = tm.mean_pd(x, y, tm.power_lift(tm.geometric(), 2))
            if warm:
                for t in (x, y, base):
                    t._spectrum()
                    t._eigenvalues()
            out = []
            for direction in ("leq", "geq"):
                for t in _rescale(x, y, base, direction, "test"):
                    out += [t.unfold(), t._eigenvalues(), *t._spectrum()]
            return out

        fresh, warmed = run(False), run(True)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fresh, warmed, strict=True))

    def test_non_positive_premise_scale_raises_config_error(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        base = tm.HermitianTensor.diag([-1e-9, 1.0, 2.0, 3.0], SHAPE)
        with pytest.raises(ConfigError, match="T3 at m=12: premise scale t = -1.000e-09 is not positive"):
            _rescale(x, y, base, "geq", "T3 at m=12")


class TestPremiseHomogeneity:
    """The geq sides of T3, T9 and C4 are their leq sides scaled by a power
    of rho = t_top / t_bot; they must match the sides built from the geq
    pair (x / t_bot, y / t_bot) itself, for one chunk of trials."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _run(monkeypatch, suite, d):
        """The record that ``suite``'s runner gets at shape ``(d,)``."""
        runs, sid = [], SuiteId[suite]
        monkeypatch.setitem(_SUITES, sid, dataclasses.replace(_SUITES[sid], runner=runs.append))
        run_suite(sid, ExperimentConfig(trials=8, shape=(d,)))
        return runs[0], _chunks(runs[0].cfg)[0]

    @staticmethod
    def _geq_pair(run, trials, big_f):
        x, y = run.pair(trials)
        return _rescale(x, y, tm.mean_pd(x, y, big_f), "geq", "test")[:2]

    @staticmethod
    def _relative_error(got, want):
        diff = got.unfold() - want.unfold()
        return np.max(np.linalg.norm(diff, axis=(-2, -1)) / np.linalg.norm(want.unfold(), axis=(-2, -1)))

    @pytest.mark.parametrize("d", [4, 16])
    def test_t3_pmd_sides_are_the_geq_pair_sides(self, monkeypatch, d):
        run, trials = self._run(monkeypatch, "T3_LieTrotterTail", d)
        m, q = run.cfg.exponents["m"], 0.25
        lifted, w = tm.power_lift(run.fn, m), m + tm.derivative_at_one(run.fn)
        _, _, _, (low, high) = _lie_trotter_sides(run, trials, lifted, w, q)
        log_affine, _, root_mean = _ordering_sides(*self._geq_pair(run, trials, lifted), lifted, w, q)
        # Each path rounds on its own: the root mean is a 4th power of the
        # powered mean, and the log-affine side exponentiates a sum of logs.
        # Measured at most 37 D eps (D = 4) over six seeds.
        assert self._relative_error(low, root_mean) <= 64 * d * self.EPS
        assert self._relative_error(high, log_affine) <= 64 * d * self.EPS

    @pytest.mark.parametrize("suite", ["T9_TC", "C4_MajorizationTC"])
    @pytest.mark.parametrize("d", [4, 16])
    def test_geq_powered_mean_is_the_geq_pair_mean(self, monkeypatch, suite, d):
        run, trials = self._run(monkeypatch, suite, d)
        q = max(1.0, run.cfg.exponents["q"])
        mid_geq = _cap_floor_stacks(run, q, trials)[2]
        want = _powered_mean(*self._geq_pair(run, trials, run.fn), run.fn, q)
        assert self._relative_error(mid_geq, want) <= 16 * d * self.EPS


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


# The suites whose exponent q powers both operands of a mean or a quotient.
EXPONENT_SUITES = (
    "T1_AndoHiaiGeneralized",
    "C1_AndoHiaiDual",
    "T7_Psi",
    "T8_Phi",
    "C2_MajorizationTMI",
    "C3_MajorizationTMD",
    "T9_TC",
    "C4_MajorizationTC",
)


class TestSuites:
    def test_every_suite_runs_on_default_config(self):
        cfg = ExperimentConfig(trials=10)
        for sid in SuiteId:
            report = run_suite(sid, cfg)
            assert report.trials == 10
            assert report.suite == sid.value
            assert 0.0 <= report.empirical_prob <= 1.0
            assert report.violations <= max(report.trials, 6 * 17)

    def test_c2_refuses_a_graded_quotient_past_the_double_range(self, capfd):
        # At q = 1e6 the quotient overflows from level 9 on; LAPACK never sees its NaN.
        cfg = ExperimentConfig.from_dict({"trials": 20, "exponents": {"q": 1e6}})
        with pytest.raises(ConfigError, match=r"^C2_MajorizationTMI: dyadic quotient at level \d+ "
                                              r"\(exponent \d+\) is not finite$"):
            run_suite(SuiteId.C2_MajorizationTMI, cfg)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("suite", [s.value for s in SuiteId])
    def test_max_violation_is_never_negative(self, suite):
        # A violation magnitude floored at 0 in every suite, never a slack.
        assert run_suite(suite, ExperimentConfig(trials=3)).max_violation >= 0.0

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

    def test_majorization_tc_has_no_false_failure_at_d1(self):
        # Every D = 1 draw commutes and its sandwich holds, but the cap ties
        # the mean to rounding: a tie at a kappa point must flip no count.
        report = run_suite("C4_MajorizationTC", ExperimentConfig(trials=20, shape=(1,)))
        assert report.violations == 0, report.regime_notes

    @pytest.mark.parametrize("q", [8.5, 9.0, 10.0, 12.0, 16.0, 32.0])
    def test_exponent_suites_report_at_large_q(self, q):
        # Powered means and dyadic quotients read the eigenpairs of x and y,
        # so the condition numbers cond**q of the powers cost no report.
        for shape, trials in (((2, 2), 200), ((1,), 3), ((8, 8), 3)):
            cfg = ExperimentConfig(trials=trials, shape=shape, exponents={"q": q})
            reports = {s: run_suite(s, cfg).to_dict() for s in EXPONENT_SUITES}
            for suite, report in reports.items():
                assert all(math.isfinite(v) for v in report.values() if isinstance(v, float)), (shape, suite)
            if shape == (2, 2):
                # The by-design failures stay visible.
                assert all(reports[s]["violations"] > 0 for s in ("T8_Phi", "C2_MajorizationTMI", "C3_MajorizationTMD"))

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

    @pytest.mark.parametrize("suite, name", [("T1_AndoHiaiGeneralized", "m1"), ("C1_AndoHiaiDual", "m2")])
    def test_a_transposed_power_runs_as_the_power(self, suite, name):
        # transpose:power:0.5 is x**0.5: the exact constant and the closed-form map.
        power, chain = (run_suite(suite, ExperimentConfig(trials=20, function=fid))
                        for fid in ("power:0.5", "transpose:power:0.5"))
        assert f"{name}=1 exactly (power generator)" in chain.regime_notes
        assert chain.bound_value == power.bound_value

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

    @pytest.mark.parametrize("suite", ["L2_Kantorovich", "T65_JointConvexity", "APP_Fusion", "T1_AndoHiaiGeneralized"])
    def test_refusal_names_its_suite_once(self, suite):
        # Rank-2 draws at D = 4: each suite refuses them at a different step.
        deficient = {"kind": "rank_deficient", "rank": 2}
        cfg = ExperimentConfig(trials=3, ensembles={"x": deficient, "y": dict(deficient)}, suites=(suite,))
        with pytest.raises(ConfigError) as info:
            run_suite(suite, cfg)
        message = str(info.value)
        assert message.startswith(f"{suite}: ") and message.count(suite) == 1, message
        assert isinstance(info.value.__cause__, ValueError)

    def test_report_fields_and_version(self):
        report = run_suite("APP_Fusion", ExperimentConfig(trials=5))
        payload = report.to_dict()
        assert payload["version"] == "tmlab-report/2"
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

    def test_readme_report_schema_names_the_report_version(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Report schema", 1)[1].split("\n### ", 1)[0]
        assert f'`"{REPORT_VERSION}"`' in section

    def test_ordering_suites_clean_at_larger_shape(self):
        # D = 8: premise rescaling must stay well conditioned (dof scales
        # with the unfolding dimension in the default ensembles)
        cfg = ExperimentConfig(trials=60, shape=(2, 2, 2))
        for suite in ("T1_AndoHiaiGeneralized", "C1_AndoHiaiDual", "T65_JointConvexity", "APP_Fusion"):
            report = run_suite(suite, cfg)
            assert report.violations == 0, (suite, report.regime_notes)

    def test_t63_dominating_wishart_dof(self):
        # T63 reads only the seed and, for a Wishart x, the dof of its x
        # ensemble; any other kind takes the default dof of the dimension.
        def report(x):
            cfg = ExperimentConfig.from_dict({
                "trials": 4, "shape": [3, 3], "suites": ["T63_PsdLimit"],
                "ensembles": {"x": x, "y": {"kind": "rank_deficient", "rank": 5}}})
            return run_suite("T63_PsdLimit", cfg)

        default_dof = report({"kind": "wishart", "dof": 18})
        assert report({"kind": "spectrum", "m": 0.5, "M": 1.5}) == default_dof
        assert report({"kind": "rank_deficient", "rank": 2}) == default_dof
        assert report({"kind": "wishart", "dof": 8}) != default_dof

    def test_t3_pmi_tail_reuses_root_mean_at_r_one(self, counts):
        def count(p):
            counts.reset()
            run_suite("T3_LieTrotterTail", ExperimentConfig(trials=3, exponents={"p": p}))
            return counts.calls["eigh"], counts.calls["eigvalsh"]

        # The sides are built once, on the leq pair: one eigh for the
        # quotient of the premise mean, one for x and one for the log-affine
        # exponential.  The root mean mean_q**4 is a product, born with no
        # spectrum; pmi's top-eigenvalue check reads its values by one
        # eigvalsh, and each branch's Loewner excess one more.  pmd's sides
        # are pmi's scaled by rho, born with their values.  At r = 1 the pmi
        # tail is the root mean, whose values its trace gate reuses.  At
        # r = 1.5 it is mean_q**6, a product too, whose trace gate reads one
        # more eigvalsh; the pmd tail, a fractional power of the log-affine
        # side, maps the eigenpairs that side was born with, so it reads no
        # more eigh.
        assert count(1.0) == (3, 3)
        assert count(1.5) == (3, 4)

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


def _cdf_dominance_per_column(low, mid, high, n, levels, tol):
    """The scalar rule of the majorization suites, one column and one kappa
    at a time: the reference of the stacked :func:`_cdf_dominance`."""

    def stderr(p):
        return math.sqrt(max(p * (1.0 - p), 0.0) / n)

    fails, worst = 0, 0.0
    for kappa in np.quantile(mid, levels):
        slack = tol * max(abs(kappa), 1.0)
        p_lo, p_md, p_hi = (float(np.mean(v >= k)) for v, k in ((low, kappa + slack), (mid, kappa),
                                                                 (high, kappa - slack)))
        s = stderr(p_md)
        bad = (p_lo - p_md - 3.0 * (s + stderr(p_lo)), p_md - p_hi - 3.0 * (s + stderr(p_hi)))
        if max(bad) > 0:
            fails += 1
        worst = max(worst, *bad)
    return fails, worst


def test_cdf_dominance_matches_the_scalar_rule_bit_for_bit(rng):
    # 200 column sets of 2 x 3 columns; coarse integer statistics give ties
    # at the kappa points, the shifts put sandwiches on both sides, and the
    # larger tolerance moves the slack across those ties.
    failing = 0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        tol = 1e-8 if rng.random() < 0.5 else 0.25
        levels = (0.1, 0.5, 0.9) if rng.random() < 0.5 else (0.1, 0.3, 0.5, 0.7, 0.9)
        draw = (lambda: rng.integers(0, 4, size=(n, 2, 3)).astype(float)) if rng.random() < 0.5 else (
            lambda: rng.normal(size=(n, 2, 3)))
        mid = draw()
        low, high = mid + rng.choice([-1.0, 0.0, 1.0]) * draw(), mid + rng.choice([-1.0, 0.0, 1.0]) * draw()
        fails, worst = _cdf_dominance(low, mid, high, n, levels, tol)
        for s in range(2):
            for j in range(3):
                want = _cdf_dominance_per_column(low[:, s, j], mid[:, s, j], high[:, s, j], n, levels, tol)
                assert (int(fails[s, j]), float(worst[s, j])) == want
        failing += int(np.count_nonzero(fails))
    assert 0 < failing < 200 * 6
