import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmlab as tm
from tmlab.functions import _CLASS_TOL, _PROBE_POINTS, PROBE_GRID, VALID_TAGS, ConnectionFunction, _class_readings
from tmlab.harness import _SUITES, ConfigError, ExperimentConfig, SuiteId, _shifted_convex_probe, _suite_function

GRID = np.logspace(-3, 3, 41)
SHAPE2 = tm.TensorShape((2,))


class TestBuiltins:
    def test_geometric(self):
        g = tm.geometric()
        assert g(4.0) == 2.0
        assert g.normalized and "TMI" in g.tags
        assert g.value_at_0plus == 0.0

    def test_psi_vanishes_at_one(self):
        p = tm.psi(1.0)
        assert p(1.0) == 0.0
        assert p.tags == frozenset()
        assert not p.positive
        # direct evaluation of x/(1+s) - x/(x+s)
        assert p(3.0) == pytest.approx(3.0 / 2.0 - 3.0 / 4.0, abs=1e-15)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
    def test_psi_needs_a_finite_positive_s(self, s):
        # psi(inf) would be the zero function, with a NaN derivative at 1.
        with pytest.raises(ValueError, match="^s must be finite and > 0, got"):
            tm.psi(s)
        with pytest.raises(ValueError, match="^s must be finite and > 0, got"):
            tm.from_id(f"psi:{s}")

    def test_square_derivative(self):
        assert tm.derivative_at_one(tm.square()) == 2.0
        assert "TC" in tm.square().tags

    def test_harmonic_like(self):
        h = tm.harmonic_like()
        assert h(1.0) == 1.0
        assert h(3.0) == pytest.approx(1.5)
        assert tm.derivative_at_one(h) == 0.5

    def test_power_zero_limit(self):
        assert tm.power(0.5).value_at_0plus == 0.0
        assert tm.power(-1.0).value_at_0plus == math.inf
        assert tm.power(0.0).value_at_0plus == 1.0


class TestPowerLift:
    def test_lift_geometric(self):
        f2 = tm.power_lift(tm.geometric(), 1)
        assert f2(4.0) == 8.0

    def test_lift_zero_is_same_object(self):
        f = tm.geometric()
        assert tm.power_lift(f, 0) is f

    def test_lift_identity_matches_cube(self):
        lifted = tm.power_lift(tm.identity(), 2)
        cube = tm.power(3.0)
        for x in GRID:
            assert lifted(x) == pytest.approx(cube(x), rel=1e-13)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            tm.power_lift(tm.geometric(), -1)

    @pytest.mark.parametrize(
        "fid, limit",
        [("liftn:2:power:-2.5", math.inf), ("liftn:1:power:-0.5", 0.0), ("liftn:1:power:-1", 1.0),
         ("liftn:1:geometric", 0.0)],
    )
    def test_power_lift_takes_the_exact_zero_limit(self, fid, limit):
        # x**n x**a is x**(n + a): 0 for n + a > 0, 1 at n + a = 0, inf below.
        assert tm.from_id(fid).value_at_0plus == limit

    def test_lift_with_no_zero_limit_is_refused_on_psd_input(self):
        # liftn:2:power:-2.5 is x**-0.5, refused as power:-0.5 is.
        x, y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2), tm.HermitianTensor.diag([1.0, 1.0], SHAPE2)
        for fid in ("power:-0.5", "liftn:2:power:-2.5"):
            with pytest.raises(tm.UnsupportedFunctionError):
                tm.mean_psd(x, y, tm.from_id(fid))


class TestTranspose:
    def test_geometric_self_transpose(self):
        g = tm.geometric()
        h = tm.transpose_fn(g)
        for x in GRID:
            assert h(x) == pytest.approx(g(x), rel=1e-12)

    def test_square_transpose_value(self):
        h = tm.transpose_fn(tm.power(2.0))
        assert h(2.0) == pytest.approx(0.5)

    def test_involution_on_psi(self):
        p = tm.psi(1.0)
        back = tm.transpose_fn(tm.transpose_fn(p))
        for x in GRID:
            assert back(x) == pytest.approx(p(x), rel=1e-12, abs=1e-12)

    def test_transpose_derivative(self):
        h = tm.transpose_fn(tm.power(0.3))
        assert tm.derivative_at_one(h) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize(
        "fid, limit",
        [("geometric", 0.0), ("power:0.25", 0.0), ("power:-1", 0.0), ("power:0", 0.0), ("identity", 1.0),
         ("power:1.5", math.inf), ("square", math.inf), ("liftn:1:geometric", math.inf)],
    )
    def test_power_transpose_takes_the_exact_zero_limit(self, fid, limit):
        # x**p transposes to x**(1 - p): 0 for p < 1, 1 at p = 1, inf past it;
        # the lift x * x**0.5 is the power x**1.5.
        assert tm.transpose_fn(tm.from_id(fid)).value_at_0plus == limit

    @pytest.mark.parametrize("fid, limit, fn", [pytest.param(*case, id=case[0]) for case in (
        ("transpose:transpose:power:-0.5", math.inf, lambda x: x * ((1.0 / x) * (1.0 / (1.0 / x)) ** -0.5)),
        ("liftn:1:transpose:power:2.5", math.inf, lambda x: x**1 * (x * (1.0 / x) ** 2.5)),
        ("transpose:liftn:1:power:0.6", math.inf, lambda x: x * ((1.0 / x) ** 1 * (1.0 / x) ** 0.6)),
        ("liftn:1:transpose:power:2", 1.0, lambda x: x**1 * (x * (1.0 / x) ** 2.0)),
        ("liftn:2:transpose:power:0.5", 0.0, lambda x: x**2 * (x * (1.0 / x) ** 0.5)),
    )])
    def test_chains_of_lifts_and_transposes_of_a_power_take_its_exact_zero_limit(self, fid, limit, fn):
        # A lift by n takes x**a to x**(n + a), a transpose to x**(1 - a);
        # the evaluation keeps its arithmetic.
        g = tm.from_id(fid)
        assert g.value_at_0plus == limit and g.label == fid
        assert np.array_equal(g.fn(PROBE_GRID), fn(PROBE_GRID))

    def test_mean_psd_refuses_a_chain_without_a_finite_zero_limit(self):
        # liftn:1:transpose:power:2.5 is x**-0.5; a probe at 1e-12 recorded 1e6.
        x, y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2), tm.HermitianTensor.diag([1.0, 1.0], SHAPE2)
        with pytest.raises(tm.UnsupportedFunctionError, match="no finite limit at 0"):
            tm.mean_psd(x, y, tm.from_id("liftn:1:transpose:power:2.5"))

    @pytest.mark.parametrize("fid", ["harmonic_like", "psi:1", "liftn:1:harmonic_like"])
    def test_other_transposes_probe_the_zero_limit(self, fid):
        # A probe below 1e-10 in magnitude records 0.
        h = tm.transpose_fn(tm.from_id(fid))
        probe = h(1e-12)
        assert h.value_at_0plus == (0.0 if abs(probe) < 1e-10 else probe)

    def test_transposed_harmonic_like_records_a_zero_limit(self):
        # x * g(1/x) for g = 2x / (1 + x) is g again; the probe reads 2e-12.
        assert tm.transpose_fn(tm.harmonic_like()).value_at_0plus == 0.0


class TestEvalExtended:
    def test_a_live_spectrum_maps_through_fn_alone(self):
        g = tm.harmonic_like()
        x = np.array([1e-3, 0.5, 2.0, 40.0])
        assert np.array_equal(g.eval_extended(x, 1e-4), np.where(x > 1e-4, g.fn(x), g.value_at_0plus))

    def test_dead_entries_take_the_zero_limit(self):
        out = tm.power(0.5).eval_extended(np.array([-1e-17, 0.0, 1e-11, 4.0]), 1e-10)
        assert out.tolist() == [0.0, 0.0, 0.0, 2.0]


class TestInvert:
    def test_square_root_of_nine(self):
        assert tm.invert_fn(tm.power(2.0), 9.0) == pytest.approx(3.0, rel=1e-12)

    def test_lifted_geometric(self):
        f = tm.power_lift(tm.geometric(), 1)
        assert tm.invert_fn(f, 8.0) == pytest.approx(4.0, rel=1e-12)
        assert tm.invert_fn(f, 8.0) == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)

    def test_round_trips(self, rng):
        fns = (tm.power(2.0), tm.power_lift(tm.geometric(), 1), tm.harmonic_like(), tm.power(-0.7))
        for f in fns:
            for x0 in rng.uniform(0.2, 5.0, size=8):
                y = f(float(x0))
                x = tm.invert_fn(f, y)
                assert x == pytest.approx(float(x0), rel=1e-10)
                assert f(x) == pytest.approx(y, rel=1e-10)

    def test_range_error(self):
        with pytest.raises(ValueError, match="bracket"):
            tm.invert_fn(tm.harmonic_like(), 5.0)  # range of 2x/(1+x) is (0, 2)


class TestAndoHiaiG:
    def test_sqrt_generator(self):
        g = tm.ando_hiai_g(tm.power(0.5), 2)
        assert g(8.0) == pytest.approx(4.0, rel=1e-12)
        assert g(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_identity_generator_closed_form(self):
        # F(x) = x * x = x^2, so the auxiliary map is x^(1/2).
        g = tm.ando_hiai_g(tm.identity(), 2)
        assert g(25.0) == pytest.approx(5.0, rel=1e-12)
        assert g(5.0) == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_power_closed_form(self):
        # power generator alpha with lift m gives exponent 1/(m - 1 + alpha)
        for alpha, m in ((0.3, 3), (0.5, 4), (1.0, 5)):
            g = tm.ando_hiai_g(tm.power(alpha), m)
            expo = 1.0 / (m - 1 + alpha)
            for x in (0.3, 1.7, 9.0):
                assert g(x) == pytest.approx(x**expo, rel=1e-10)

    def test_monotone_positive(self):
        g = tm.ando_hiai_g(tm.harmonic_like(), 2)
        vals = [g(float(x)) for x in GRID]
        assert all(v > 0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestDerivativeAtOne:
    def test_numeric_path_matches_exponent(self):
        for alpha in (-1.0, 0.25, 0.5, 1.0, 2.0):
            f = ConnectionFunction(
                fn=lambda x, a=alpha: x**a,
                label=f"unregistered-power-{alpha}",
                positive=True,
            )
            assert f.derivative_at_1 is None
            assert tm.derivative_at_one(f) == pytest.approx(alpha, abs=1e-8)

    def test_analytic_values(self):
        assert tm.derivative_at_one(tm.geometric()) == 0.5
        assert tm.derivative_at_one(tm.power(0.3)) == 0.3
        assert tm.derivative_at_one(tm.power(2.0)) == 2.0


class TestPmiCertificates:
    def test_power_half_is_exact(self):
        cert = tm.check_pmi(tm.power(0.5))
        assert cert.holds
        assert cert.m1_estimate == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        cert = tm.check_pmi(tm.identity())
        assert cert.m1_estimate == pytest.approx(1.0, abs=1e-12)

    def test_log_like_probe(self):
        f = ConnectionFunction(fn=lambda x: 1.0 + np.log1p(x), label="logish", positive=True)
        q_grid = (1.5, 2.0)
        x_grid = tuple(np.logspace(-2, 2, 21))
        cert = tm.check_pmi(f, q_grid, x_grid)
        expected = max(f(x**q) / f(x) ** q for q in q_grid for x in x_grid)
        assert cert.holds
        assert cert.m1_estimate == pytest.approx(max(1.0, expected), rel=1e-12)
        assert math.isfinite(cert.m1_estimate) and cert.m1_estimate >= 1.0

    def test_pmd_dual(self):
        cert = tm.check_pmd(tm.power(0.5))
        assert cert.direction == "pmd"
        assert cert.m1_estimate == pytest.approx(1.0, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tm.check_pmi(tm.geometric(), q_grid=())


class TestProbeValidation:
    def test_decreasing_with_tmi_tag_rejected(self):
        with pytest.raises(ValueError, match="monotonicity"):
            ConnectionFunction(fn=lambda x: 1.0 / x, label="bad", tags=frozenset({"TMI"}))

    def test_sign_changing_with_positive_flag_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ConnectionFunction(fn=lambda x: x - 1.0, label="bad", positive=True)

    def test_concave_with_tc_tag_rejected(self):
        with pytest.raises(ValueError, match="convexity"):
            ConnectionFunction(fn=np.sqrt, label="bad", tags=frozenset({"TC"}))

    def test_tags_require_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConnectionFunction(fn=lambda x: x, label="bad", positive=False, tags=frozenset({"TMI"}))


def _power_classes(a):
    """The classes of ``x**a`` on (0, inf): operator monotone for a in [0, 1],
    monotone decreasing for a in [-1, 0], convex for a in [-1, 0] or [1, 2]."""
    return {tag for tag, holds in (("TMI", 0 <= a <= 1), ("TMD", -1 <= a <= 0), ("TC", -1 <= a <= 0 or 1 <= a <= 2))
            if holds}


POWERS = [float(a) for a in np.arange(-1.0, 2.01, 0.25)]


def _no_factor(*args, **kwargs):
    raise np.linalg.LinAlgError("no Cholesky factor")


class TestClassProbe:
    """One Loewner-matrix probe decides every tag at construction."""

    @pytest.mark.parametrize("fid, tags", [
        ("identity", {"TMI", "TC"}), ("square", {"TC"}), ("geometric", {"TMI"}), ("harmonic_like", {"TMI"}),
        ("transpose:identity", {"TMI", "TC"}), ("transpose:square", {"TC"}), ("transpose:geometric", {"TMI"}),
        ("transpose:harmonic_like", {"TMI"}), ("liftn:1:geometric", set()), ("transpose:liftn:1:geometric", set()),
        ("psi:1", set()),
    ])
    def test_every_named_id_form_keeps_its_tags(self, fid, tags):
        assert tm.from_id(fid).tags == tags

    @pytest.mark.parametrize("a", POWERS)
    def test_every_power_and_its_transpose_keep_their_tags(self, a):
        # The transpose carries TMI to TMI, and TC or TMD to TC.
        tags = _power_classes(a)
        assert tm.from_id(f"power:{a:g}").tags == tags
        carried = (tags & {"TMI"}) | ({"TC"} if tags & {"TC", "TMD"} else set())
        assert tm.from_id(f"transpose:power:{a:g}").tags == carried

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("fid", ["harmonic_like", "geometric", "power:0.25"])
    def test_ando_hiai_maps_keep_their_tag(self, fid, m):
        assert tm.ando_hiai_g(tm.from_id(fid), m).tags == {"TMI"}

    def test_inverse_arithmetic_keeps_its_tags(self):
        # APP_Fusion's second generator, 2 / (1 + x), built on every default verify.
        g = _shifted_convex_probe()
        assert g.tags == {"TMD", "TC"}
        assert tm.transpose_fn(g).tags == {"TC"}

    @pytest.mark.parametrize("fn, tags", [pytest.param(*case[1:], id=case[0]) for case in (
        ("inverse_arithmetic", lambda x: 2.0 / (1.0 + x), {"TMD", "TC"}),
        ("harmonic_like", lambda x: 2.0 * x / (1.0 + x), {"TMI"}),
        ("identity", lambda x: x, {"TMI", "TC"}),
        ("power:0", lambda x: x**0.0, {"TMI", "TMD", "TC"}),
        ("transpose:identity", lambda x: x * (1.0 / x), {"TMI", "TC"}),
        ("affine", lambda x: (x + 1.0) / 2.0, {"TMI", "TC"}),
    )])
    @pytest.mark.parametrize("exact", [False, True], ids=["certified", "exact"])
    def test_rank_one_and_zero_class_matrices_read_their_rounding_as_noise(self, fn, tags, exact, monkeypatch):
        # Rank one (2 / (1 + x), harmonic_like), zero (identity's Kraus
        # matrices, power:0's Loewner matrix) or pure rounding (x * (1/x)):
        # the smallest eigenvalue lies within the rounding bound, also when
        # no Cholesky factor certifies it and the eigenvalues are read.
        if exact:
            monkeypatch.setattr(np.linalg, "cholesky", _no_factor)
        readings = _class_readings(fn(_PROBE_POINTS), tags)
        assert set(readings) == tags and min(readings.values()) >= 0.0

    @pytest.mark.parametrize("a", POWERS + [-2.0, -1.25, 1.01, 2.5, 3.0])
    def test_the_cholesky_certificate_decides_as_the_eigenvalues_do(self, a, monkeypatch):
        # A tag the factor certifies reads 0; every other reads lambda_min.
        values = _PROBE_POINTS**a
        certified = _class_readings(values, VALID_TAGS)
        monkeypatch.setattr(np.linalg, "cholesky", _no_factor)
        exact = _class_readings(values, VALID_TAGS)
        assert {t for t, r in certified.items() if r >= -_CLASS_TOL} == {t for t, r in exact.items() if r >= -_CLASS_TOL}
        assert all(certified[t] in (0.0, exact[t]) for t in VALID_TAGS)

    @pytest.mark.parametrize("fn, tag", [pytest.param(*case[1:], id=case[0]) for case in (
        ("x**1.5 TMI", lambda x: x**1.5, "TMI"),
        ("x**2 TMI", lambda x: x**2.0, "TMI"),
        ("x**3 TMI", lambda x: x**3.0, "TMI"),
        ("x/sqrt(1+x**2) TMI", lambda x: x / np.sqrt(1.0 + x * x), "TMI"),
        ("x**3 TC", lambda x: x**3.0, "TC"),
        ("x**2.5 TC", lambda x: x**2.5, "TC"),
        ("x**-2 TMD", lambda x: x**-2.0, "TMD"),
        ("x**-2 TC", lambda x: x**-2.0, "TC"),
        ("x**-50 TC", lambda x: x**-50.0, "TC"),
    )])
    def test_mis_tagged_generators_are_refused(self, fn, tag):
        # Monotone or convex as scalar functions, but not as operator functions;
        # x**-50's Kraus matrices overflow and read -inf.
        with pytest.raises(ValueError, match=f"^bad: {tag} tag fails the operator"):
            ConnectionFunction(fn=fn, label="bad", tags=frozenset({tag}))

    @pytest.mark.parametrize("make, label", [(tm.square, "square"), (tm.geometric, "geometric")])
    def test_square_and_geometric_are_constructed_once(self, make, label, monkeypatch):
        runs = []
        real = ConnectionFunction.__post_init__
        monkeypatch.setattr(ConnectionFunction, "__post_init__", lambda self: runs.append(self) or real(self))
        g = make()
        assert runs == [g] and g.label == label

    @pytest.mark.parametrize("fid, matrices", [("square", 3), ("geometric", 1), ("power:-0.5", 4), ("power:0", 5), ("psi:1", 0)])
    def test_a_construction_probes_one_matrix_per_class_and_anchor(self, fid, matrices, counts):
        # TMI and TMD factor one Loewner matrix each, TC one Kraus matrix per
        # anchor; a tag that passes reads no eigenvalues, and no tensor is
        # decomposed.
        tm.from_id(fid)
        assert counts.probed == {"eigh": 0, "eigvalsh": 0, "svd": 0, "cholesky": matrices}
        assert sum(counts.matrices.values()) == 0

    def test_a_refused_tag_reads_its_eigenvalues(self, counts):
        with pytest.raises(ValueError, match="reading -0.98"):
            ConnectionFunction(fn=lambda x: x**1.5, label="bad", tags=frozenset({"TMI"}))
        assert counts.probed == {"eigh": 0, "eigvalsh": 1, "svd": 0, "cholesky": 1}


class TestNormalization:
    """``normalized`` is read from ``fn(1)``, and only ``_admit`` decides
    whether a generator must have it."""

    @pytest.mark.parametrize("fid, normalized", [
        ("identity", True), ("square", True), ("geometric", True), ("harmonic_like", True),
        ("power:-0.5", True), ("power:0", True), ("power:3", True), ("psi:1", False), ("psi:0.25", False),
        ("liftn:2:geometric", True), ("liftn:1:psi:2", False), ("transpose:harmonic_like", True),
        ("transpose:power:2", True), ("transpose:psi:1", False),
    ])
    def test_every_builtin_id_form_reads_fn_at_one(self, fid, normalized):
        g = tm.from_id(fid)
        assert g.normalized is normalized
        assert g.normalized == (abs(g(1.0) - 1.0) <= 1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_ando_hiai_g_reads_its_bisection(self, m):
        # 1 / F^-1(1) by bisection: within ulps of 1, not exactly 1.
        g = tm.ando_hiai_g(tm.harmonic_like(), m)
        assert tm.power_exponent(g) is None
        assert g.normalized and abs(g(1.0) - 1.0) <= 1e-12

    def test_a_user_generator_needs_no_flag(self):
        g = ConnectionFunction(fn=lambda x: 2.0 / (1.0 + x), label="inverse_arithmetic", tags=frozenset({"TMD"}))
        assert g.normalized
        assert not ConnectionFunction(fn=lambda x: 2.0 * x, label="double").normalized

    def test_non_finite_value_at_one_is_not_normalized_and_warns_nothing(self):
        # 0/0 at x = 1 alone, which the probe grid does not contain.
        g = ConnectionFunction(fn=lambda x: (x - 1.0) / (x - 1.0), label="hole")
        assert not g.normalized

    def test_is_not_a_constructor_parameter(self):
        with pytest.raises(TypeError, match="normalized"):
            ConnectionFunction(fn=lambda x: x, label="identity", normalized=True)

    def test_suite_table_and_lt_limit_refuse_with_the_one_message(self):
        message = "psi:1 is not normalized (value 1 at 1)"
        cfg = ExperimentConfig(function="psi:1")
        with pytest.raises(ConfigError) as suite:
            _suite_function(cfg, _SUITES[SuiteId.T2_LieTrotterLimit])
        assert str(suite.value) == f"cannot run: {message}"
        x = tm.HermitianTensor.identity(tm.TensorShape((2,)))
        with pytest.raises(ValueError) as limit:
            tm.lt_limit(x, x, tm.psi(1.0))
        assert str(limit.value) == message


class TestFromId:
    @pytest.mark.parametrize(
        "fid,x,expected",
        [
            ("power:0.5", 4.0, 2.0),
            ("square", 3.0, 9.0),
            ("geometric", 9.0, 3.0),
            ("harmonic_like", 1.0, 1.0),
            ("psi:1.0", 1.0, 0.0),
            ("liftn:2:power:0.5", 4.0, 32.0),
            ("transpose:power:2", 2.0, 0.5),
            ("liftn:1:transpose:power:2", 2.0, 1.0),
        ],
    )
    def test_grammar(self, fid, x, expected):
        assert tm.from_id(fid)(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fid", ["", "nope", "power", "power:1:2", "liftn:2", "psi", "square:1"])
    def test_malformed(self, fid):
        with pytest.raises(ValueError):
            tm.from_id(fid)

    @pytest.mark.parametrize("fid, text", [("power:abc", "abc"), ("liftn:2.5:geometric", "2.5"), ("psi:", ""),
                                           ("transpose:liftn:x:power:0.5", "x")])
    def test_a_number_that_does_not_parse_names_the_id(self, fid, text):
        # Python's own message ("could not convert string to float: 'abc'") named no id.
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not ") + ".* in function id " + re.escape(repr(fid))):
            tm.from_id(fid)

    @pytest.mark.parametrize("m", [51, 52, 64])
    def test_lift_overflow_on_probe_grid_raises_value_error(self, m):
        # x**m f(x) overflows on the probe grid from m = 51: a ValueError, with
        # no RuntimeWarning first (pyproject turns warnings into errors).
        with pytest.raises(ValueError, match="non-finite values on probe grid"):
            tm.from_id(f"liftn:{m}:power:0.5")


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(0.05, 1.0), x=st.floats(0.01, 100.0))
def test_transpose_involution_property(alpha, x):
    f = tm.power(alpha)
    back = tm.transpose_fn(tm.transpose_fn(f))
    assert back(x) == pytest.approx(f(x), rel=1e-10)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(0, 6), x=st.floats(0.01, 50.0))
def test_power_lift_pointwise_property(n, x):
    f = tm.harmonic_like()
    lifted = tm.power_lift(f, n)
    assert lifted(x) == pytest.approx(x**n * f(x), rel=1e-12)


ARRAY_PATH_FNS = {
    **{fid: tm.from_id(fid) for fid in (
        "identity", "square", "geometric", "harmonic_like", "power:0.3", "power:-0.5", "psi:0.5",
        "liftn:2:harmonic_like", "transpose:harmonic_like", "transpose:power:2",
    )},
    "andohiai:3:power:0.5": tm.ando_hiai_g(tm.power(0.5), 3),
    "andohiai:2:harmonic_like": tm.ando_hiai_g(tm.harmonic_like(), 2),
}


@pytest.mark.parametrize("fid", sorted(ARRAY_PATH_FNS))
def test_fn_over_array_matches_scalar_call(fid):
    g = ARRAY_PATH_FNS[fid]
    grid = np.concatenate([PROBE_GRID, GRID])
    np.testing.assert_array_max_ulp(g.fn(grid), np.array([g(float(x)) for x in grid]), maxulp=4)


@pytest.mark.parametrize("alpha, m", [(0.5, 2), (0.3, 3), (1.0, 5), (2.0, 2), (-0.5, 3)])
def test_ando_hiai_closed_form_matches_bisection(alpha, m):
    closed = tm.ando_hiai_g(tm.power(alpha), m).fn(PROBE_GRID)
    bisected = 1.0 / tm.invert_fn(tm.power_lift(tm.power(alpha), m - 1), 1.0 / PROBE_GRID)
    np.testing.assert_allclose(closed, bisected, rtol=1e-12, atol=0.0)


def test_power_exponent_recognises_power_generators():
    assert tm.power_exponent(tm.power(0.3)) == 0.3
    assert tm.power_exponent(tm.identity()) == 1.0
    assert tm.power_exponent(tm.square()) == 2.0
    assert tm.power_exponent(tm.geometric()) == 0.5
    assert tm.power_exponent(tm.harmonic_like()) is None
    assert tm.power_exponent(tm.power_lift(tm.geometric(), 1)) == 1.5
    assert tm.power_exponent(ConnectionFunction(fn=np.sqrt, label="power:0.5")) is None


@pytest.mark.parametrize("fid, alpha", [
    ("transpose:power:0.5", 0.5), ("liftn:1:geometric", 1.5), ("transpose:transpose:power:-0.5", -0.5),
    ("transpose:liftn:1:power:0.6", 1 - 1.6),
])
def test_power_exponent_follows_lifts_and_transposes(fid, alpha):
    # A lift by n takes x**a to x**(n + a), a transpose to x**(1 - a),
    # computed from the innermost power outward.
    assert tm.power_exponent(tm.from_id(fid)) == alpha


@pytest.mark.parametrize("fid", ["transpose:harmonic_like", "liftn:1:harmonic_like"])
def test_power_exponent_names_no_chain_of_another_generator(fid):
    assert tm.power_exponent(tm.from_id(fid)) is None


@pytest.mark.parametrize("fid", ["power:0.5", "transpose:power:0.5"])
def test_ando_hiai_g_of_a_power_chain_is_a_power_with_its_exact_zero_limit(fid):
    # x * x**0.5 = x**1.5 inverts to x**(1 / 1.5); a probe at 1e-12 read 1e-8.
    g = tm.ando_hiai_g(tm.from_id(fid), 2)
    assert tm.power_exponent(g) == 1 / 1.5
    assert g.value_at_0plus == 0.0


def test_ando_hiai_rejects_constant_lift():
    with pytest.raises(ValueError, match="constant"):
        tm.ando_hiai_g(tm.power(-1.0), 2)


@pytest.mark.parametrize("call, match", [
    (lambda: ConnectionFunction(fn=np.sqrt, label="bad", tags=frozenset({"TMI", "OM"})), "unknown tags"),
    (lambda: tm.invert_fn(tm.power(2.0), math.nan), "target must be finite"),
    (lambda: tm.ando_hiai_g(tm.psi(1.0), 2), "needs a positive generator"),
    (lambda: tm.from_id("transpose"), "transpose needs an inner chain"),
    # Passes the class probe, but is NaN at 1 +- 1e-5, where the derivative probes.
    (lambda: tm.derivative_at_one(ConnectionFunction(
        fn=lambda x: np.where((abs(x - 1) > 1e-6) & (abs(x - 1) < 1e-4), np.nan, x), label="gap")),
     "gap: non-finite probes near 1"),
], ids=["unknown-tag", "invert-nan", "ando-hiai-sign-changing", "transpose-alone", "derivative-non-finite"])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
