import math

import numpy as np
import pytest

import tmlab as tm
from tmlab.bounds import BoundFactors

from conftest import SHAPE2, SHAPE22, rand_pd, rand_spectrum


class TestKantorovich:
    def test_reference_values(self):
        assert tm.kantorovich(1, 2, 2) == pytest.approx(1.125, abs=1e-15)
        assert tm.kantorovich(1, 4, 2) == pytest.approx(1.5625, abs=1e-15)

    def test_p_one_and_inside_unit_interval(self):
        assert tm.kantorovich(0.5, 3.0, 1.0) == 1.0
        assert tm.kantorovich(0.5, 3.0, 0.0) == 1.0
        assert tm.kantorovich(0.5, 3.0, 0.7) == 1.0

    def test_degenerate_spectrum(self):
        assert tm.kantorovich(2.0, 2.0, 5.0) == 1.0

    @pytest.mark.parametrize("rel", [2.0**-52, 1e-12, 1e-9, 1e-6, 1e-3, 2.0**-6, 0.05])
    def test_near_degenerate_spectrum(self, rel):
        # K(m, M, 2) = 1 + (M - m)**2 / (4 m M), free of cancellation.
        assert tm.kantorovich(1.0, 1.0 + rel, 2.0) == pytest.approx(1.0 + rel * rel / (4.0 * (1.0 + rel)), rel=1e-15)
        if rel <= 1e-6:  # K(m, M, p) = 1 + p (p - 1) (M / m - 1)**2 / 8 + O((M / m - 1)**3)
            assert tm.kantorovich(1.0, 1.0 + rel, 2.5) == pytest.approx(1.0 + 15.0 * rel * rel / 32.0, rel=1e-14)
        if rel < 2.0**-6:  # the log form is scale-invariant bit for bit, also where m**p overflows
            assert tm.kantorovich(2.0**600, 2.0**600 * (1.0 + rel), 2.0) == tm.kantorovich(1.0, 1.0 + rel, 2.0)

    def test_quadratic_cross_check(self, rng):
        for _ in range(50):
            m = rng.uniform(0.1, 2.0)
            big = m + rng.uniform(1e-3, 3.0)
            expected = (big + m) ** 2 / (4 * m * big)
            assert tm.kantorovich(m, big, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_at_least_one(self, rng):
        for _ in range(100):
            m = rng.uniform(0.05, 2.0)
            big = m + rng.uniform(0.0, 4.0)
            p = rng.uniform(-3.0, 5.0)
            assert tm.kantorovich(m, big, p) >= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tm.kantorovich(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            tm.kantorovich(2.0, 1.0, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_arrays_match_scalar_calls(self, rng):
        m = 10.0 ** rng.uniform(-4, 2, size=(6, 7))
        big = m * 10.0 ** rng.uniform(0, 3, size=(6, 7))
        big[0, :3] = m[0, :3]  # degenerate spectra
        p = rng.uniform(-4.0, 6.0, size=7)
        k = tm.kantorovich(m, big, p)
        assert k.shape == (6, 7)
        scalar = [[tm.kantorovich(float(a), float(b), float(c)) for a, b, c in zip(*row, p)] for row in zip(m, big)]
        assert all(type(v) is float for row in scalar for v in row)
        assert np.array_equal(k, scalar)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "m, big, match",
        [
            ([1.0, 0.0], [2.0, 2.0], "m > 0"),
            ([1.0, -1.0], [2.0, 2.0], "m > 0"),
            ([1.0, 2.0], [2.0, 1.0], "M >= m"),
            ([1.0, 1e-300], [2.0, 1e300], "out of floating-point range"),
        ],
        ids=["m-zero", "m-negative", "M-below-m", "overflow"],
    )
    def test_array_raises_like_scalar(self, m, big, match):
        with pytest.raises(ValueError, match=match):
            tm.kantorovich(m[1], big[1], 3.0)
        with pytest.raises(ValueError, match=match):
            tm.kantorovich(np.array(m), np.array(big), 3.0)


class TestKkFactors:
    def test_identity_tensor_gives_ones(self):
        ident = tm.HermitianTensor.identity(SHAPE22)
        g = tm.ando_hiai_g(tm.power(0.5), 2)
        bf = tm.kk_factors(ident, g, 1, 2.0, 1)
        assert bf.kk_list == (1.0,)
        assert bf.kk_product == 1.0

    def test_small_exponent_regime_is_trivial(self, rng):
        x = rand_pd(rng)
        g = tm.ando_hiai_g(tm.power(0.5), 2)
        for q in (0.1, 0.25, 0.5):
            bf = tm.kk_factors(x, g, 2, q, 1)
            assert all(k == 1.0 for k in bf.kk_list)

    def test_spectral_extremes_against_arithmetic(self):
        # f = power(1/2), m = 2 gives the auxiliary map x^(2/3); on
        # diag(1, 8) the ratios g(lam)^(m-k)/lam are computed by hand.
        g = tm.ando_hiai_g(tm.power(0.5), 2)
        x = tm.HermitianTensor.diag([1.0, 8.0], SHAPE2)
        q = 1.0
        bf = tm.kk_factors(x, g, 2, q, 1)
        assert len(bf.kk_list) == 2
        for idx, expo in ((0, 1), (1, 0)):  # k = 1, 2 -> exponents m - k
            ratios = [g(1.0) ** expo / 1.0, g(8.0) ** expo / 8.0]
            expected = tm.kantorovich(1.0 / max(ratios), 1.0 / min(ratios), 2 * q)
            assert bf.kk_list[idx] == pytest.approx(expected, rel=1e-12)
        assert bf.kk_product == pytest.approx(bf.kk_list[0] * bf.kk_list[1], rel=1e-15)

    def test_requires_pd(self):
        x = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        g = tm.ando_hiai_g(tm.power(0.5), 2)
        with pytest.raises(tm.core.NotPositiveDefiniteError):
            tm.kk_factors(x, g, 2, 1.0, 1)

    def test_bundle_validation(self):
        for bad in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                BoundFactors(kk_list=(1.5, bad))


class TestDyadicDecompose:
    @pytest.mark.parametrize(
        "q,expected",
        [
            (1.0, (0, 1.0)),
            (1.5, (0, 1.5)),
            (2.0, (0, 2.0)),
            (3.0, (1, 1.5)),
            (4.0, (1, 2.0)),
            (8.0, (2, 2.0)),
            (10.0, (3, 1.25)),
        ],
    )
    def test_cases(self, q, expected):
        n, q0 = tm.dyadic_decompose(q)
        assert (n, q0) == (expected[0], pytest.approx(expected[1], rel=1e-15))
        assert q == pytest.approx(2.0**n * q0, rel=1e-15)
        assert 1.0 <= q0 <= 2.0

    def test_tie_prefers_smaller_n(self):
        assert tm.dyadic_decompose(2.0) == (0, 2.0)
        assert tm.dyadic_decompose(4.0) == (1, 2.0)

    def test_sub_one(self):
        assert tm.dyadic_decompose(0.5) == (0, 0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            tm.dyadic_decompose(0.0)


class TestPsiPhiFactors:
    def test_power_collapse(self, rng):
        for q in (1.0, 1.5, 2.0, 4.0):
            x, y = rand_pd(rng), rand_pd(rng)
            lo, up = tm.psi_factors(q, tm.power(0.5), x, y)
            assert lo == pytest.approx(1.0, abs=1e-10)
            assert up == pytest.approx(1.0, abs=1e-10)
            lo, up = tm.phi_factors(q, tm.power(-0.5), x, y)
            assert lo == pytest.approx(1.0, abs=1e-10)
            assert up == pytest.approx(1.0, abs=1e-10)

    def test_single_factor_regime(self, rng):
        # for q in [1, 2] the dyadic product is empty: factors come from
        # the base quotient alone
        f = tm.harmonic_like()
        x, y = rand_pd(rng), rand_pd(rng)
        q = 1.7
        lo, up = tm.psi_factors(q, f, x, y)
        z = tm.eta(y, x).eta
        ratios = [f(v**q) / f(v) ** q for v in z.eigenvalues()]
        assert lo == pytest.approx(min(ratios), rel=1e-10)
        assert up == pytest.approx(max(ratios), rel=1e-10)

    def test_commuting_diagonal_oracle(self):
        f = tm.harmonic_like()
        x = tm.HermitianTensor.diag([0.5, 1.0, 1.5, 2.0], SHAPE22)
        y = tm.HermitianTensor.diag([0.4, 0.9, 1.1, 1.6], SHAPE22)
        q = 3.0
        n, q0 = tm.dyadic_decompose(q)
        assert (n, q0) == (1, 1.5)
        zs = [0.4 / 0.5, 0.9 / 1.0, 1.1 / 1.5, 1.6 / 2.0]
        r_top = [f((z ** (2.0**n)) ** q0) / f(z ** (2.0**n)) ** q0 for z in zs]
        r_lvl = [f(z**2) / f(z) ** 2 for z in zs]
        lo, up = tm.psi_factors(q, f, x, y)
        assert lo == pytest.approx(min(r_top) * min(r_lvl), rel=1e-10)
        assert up == pytest.approx(max(r_top) * max(r_lvl), rel=1e-10)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_null_space_skips_generator(self, q):
        # ando_hiai_g of a non-power f inverts F numerically and raises at 0;
        # the dead eigenvalue of the rank-deficient quotient must count
        # through the 0+ limit without reaching fn
        f = tm.ando_hiai_g(tm.harmonic_like(), 2)
        x = tm.HermitianTensor.diag([0.0, 1.0, 2.0, 3.0], SHAPE22)
        y = tm.HermitianTensor.diag([0.0, 0.5, 1.5, 2.5], SHAPE22)
        n, q0 = tm.dyadic_decompose(q)
        zs = [0.5 / 1.0, 1.5 / 2.0, 2.5 / 3.0]
        f0 = f.value_at_0plus
        r_top = [f((z ** (2.0**n)) ** q0) / f(z ** (2.0**n)) ** q0 for z in zs] + [f0 ** (1.0 - q0)]
        r_lvl = [f(z**2) / f(z) ** 2 for z in zs] + [f0 ** (1.0 - 2.0)] if n else [1.0]
        lo, up = tm.psi_factors(q, f, x, y)
        assert lo == pytest.approx(min(r_top) * min(r_lvl), rel=1e-10)
        assert up == pytest.approx(max(r_top) * max(r_lvl), rel=1e-10)

    def test_domination_required_at_each_level(self):
        x = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        y = tm.HermitianTensor.diag([0.0, 1.0], SHAPE2)
        with pytest.raises(tm.DominationError):
            tm.psi_factors(2.0, tm.harmonic_like(), x, y)


class TestProp310Factors:
    def test_identity(self):
        k1, k2 = tm.prop310_factors(tm.HermitianTensor.identity(SHAPE22), 2.0)
        assert (k1, k2) == (1.0, 1.0)

    def test_q_one(self, rng):
        k1, k2 = tm.prop310_factors(rand_pd(rng), 1.0)
        assert k1 == 1.0
        assert k2 >= 1.0

    def test_two_point_spectrum(self):
        x = tm.HermitianTensor.diag([1.0, 2.0], SHAPE2)
        k1, k2 = tm.prop310_factors(x, 1.5)
        assert k1 == pytest.approx(tm.kantorovich(0.5, 1.0, 0.5), abs=1e-15)  # = 1
        assert k2 == pytest.approx(tm.kantorovich(0.5, 1.0, 2.0), rel=1e-12)
        assert k2 == pytest.approx(1.125, rel=1e-12)

    def test_invalid_q(self, rng):
        with pytest.raises(ValueError):
            tm.prop310_factors(rand_pd(rng), 0.5)


class TestTraceTailBound:
    def test_half_identity(self):
        ident = tm.HermitianTensor.identity(SHAPE2)
        bound, se = tm.trace_tail_bound([0.5 * ident] * 10, 1.0, ident)
        assert bound == pytest.approx(1.0, abs=1e-14)
        assert se == 0.0

    def test_zero_samples(self):
        ident = tm.HermitianTensor.identity(SHAPE2)
        zero = tm.HermitianTensor.zero(SHAPE2)
        bound, se = tm.trace_tail_bound([zero] * 5, 2.0, ident)
        assert bound == 0.0 and se == 0.0

    def test_identity_gives_dimension(self):
        ident = tm.HermitianTensor.identity(SHAPE22)
        for q in (1.0, 2.0, 3.5):
            bound, se = tm.trace_tail_bound([ident] * 3, q, ident)
            assert bound == pytest.approx(4.0, abs=1e-12)
            assert se == 0.0

    def test_requires_pd_threshold(self, rng):
        c = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        with pytest.raises(tm.core.NotPositiveDefiniteError):
            tm.trace_tail_bound([tm.HermitianTensor.identity(SHAPE2)], 1.0, c)

    def test_stderr_of_varying_samples(self, rng):
        ident = tm.HermitianTensor.identity(SHAPE22)
        samples = [rand_pd(rng) for _ in range(40)]
        bound, se = tm.trace_tail_bound(samples, 1.0, ident)
        stats = [s.trace() for s in samples]
        assert bound == pytest.approx(np.mean(stats), rel=1e-12)
        assert se == pytest.approx(np.std(stats, ddof=1) / np.sqrt(40), rel=1e-12)


class TestKyFanStats:
    def test_small_cases(self):
        t = tm.HermitianTensor.diag([3.0, 1.0], SHAPE2)
        assert tm.kyfan_stats(t, 1) == (3.0, 3.0)
        assert tm.kyfan_stats(t, 2) == (4.0, 3.0)

    def test_full_k_is_trace_and_det(self, rng):
        h = rand_pd(rng)
        s, p = tm.kyfan_stats(h, 4)
        assert s == pytest.approx(h.trace(), rel=1e-9)
        assert p == pytest.approx(float(np.linalg.det(h.unfold()).real), rel=1e-9)

    def test_out_of_range(self, rng):
        with pytest.raises(ValueError):
            tm.kyfan_stats(rand_pd(rng), 5)
        with pytest.raises(ValueError):
            tm.kyfan_stats(rand_pd(rng), 0)

    def test_weyl_monotone_sums(self, rng):
        for _ in range(50):
            x = rand_pd(rng)
            y = x + rand_pd(rng, scale=0.5)
            for k in range(1, 5):
                assert tm.kyfan_stats(x, k)[0] <= tm.kyfan_stats(y, k)[0] + 1e-9
