import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmlab as tm
from tmlab.functions import PROBE_GRID, ConnectionFunction

GRID = np.logspace(-3, 3, 41)


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
         ("power:1.5", math.inf), ("square", math.inf)],
    )
    def test_power_transpose_takes_the_exact_zero_limit(self, fid, limit):
        # x**p transposes to x**(1 - p): 0 for p < 1, 1 at p = 1, inf past it.
        assert tm.transpose_fn(tm.from_id(fid)).value_at_0plus == limit

    @pytest.mark.parametrize("fid", ["harmonic_like", "psi:1", "liftn:1:geometric"])
    def test_other_transposes_probe_the_zero_limit(self, fid):
        h = tm.transpose_fn(tm.from_id(fid))
        assert h.value_at_0plus == h(1e-12)


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

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError, match="normalized"):
            ConnectionFunction(fn=lambda x: 2.0 * x, label="bad", normalized=True)

    def test_concave_with_tc_tag_rejected(self):
        with pytest.raises(ValueError, match="convexity"):
            ConnectionFunction(fn=np.sqrt, label="bad", tags=frozenset({"TC"}))

    def test_tags_require_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConnectionFunction(fn=lambda x: x, label="bad", positive=False, tags=frozenset({"TMI"}))


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
    assert tm.power_exponent(tm.power_lift(tm.geometric(), 1)) is None
    assert tm.power_exponent(ConnectionFunction(fn=np.sqrt, label="power:0.5")) is None


def test_ando_hiai_rejects_constant_lift():
    with pytest.raises(ValueError, match="constant"):
        tm.ando_hiai_g(tm.power(-1.0), 2)
