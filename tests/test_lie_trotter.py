import math

import numpy as np
import pytest

import tmlab as tm
from tmlab.lie_trotter import PremiseError

from conftest import SHAPE2, SHAPE22, rand_hermitian, rand_pd, rand_spectrum


class TestExpLog:
    def test_exp_zero_is_identity(self):
        z = tm.HermitianTensor.zero(SHAPE22)
        assert np.array_equal(tm.tensor_exp(z).unfold(), np.eye(4, dtype=complex))

    def test_log_exp_round_trip_diag(self):
        t = tm.HermitianTensor.diag([1.0, -1.0], SHAPE2)
        back = tm.tensor_log(tm.tensor_exp(t))
        assert np.max(np.abs(back.unfold() - t.unfold())) <= 1e-12

    def test_exp_matches_series_oracle(self, rng):
        from scipy.linalg import expm

        for _ in range(5):
            h = rand_hermitian(rng)
            assert np.max(np.abs(tm.tensor_exp(h).unfold() - expm(h.unfold()))) <= 1e-9

    def test_round_trips_bounded_spectrum(self, rng):
        for _ in range(10):
            h = rand_spectrum(rng, -5.0, 5.0)
            back = tm.tensor_log(tm.tensor_exp(h))
            assert np.max(np.abs(back.unfold() - h.unfold())) <= 1e-10 * max(1.0, h.spectral_scale())
            p = rand_spectrum(rng, 0.1, 20.0)
            back2 = tm.tensor_exp(tm.tensor_log(p))
            assert np.max(np.abs(back2.unfold() - p.unfold())) <= 1e-10 * p.spectral_scale()

    def test_log_requires_pd(self):
        with pytest.raises(tm.core.NotPositiveDefiniteError):
            tm.tensor_log(tm.HermitianTensor.diag([1.0, 0.0], SHAPE2))


class TestLtExpression:
    def test_commuting_diagonal_exactness(self):
        x = tm.HermitianTensor.diag([math.log(4.0), 0.0], SHAPE2)
        y = tm.HermitianTensor.diag([0.0, math.log(9.0)], SHAPE2)
        for q in (1.0, 0.25, 0.03125):
            out = tm.lt_expression(q, x, y, tm.geometric())
            assert np.allclose(out.unfold(), np.diag([2.0, 3.0]), atol=1e-9)

    def test_idempotent_on_equal_arguments(self, rng):
        x = rand_spectrum(rng, -1.0, 1.0)
        out = tm.lt_expression(0.5, x, x, tm.geometric())
        assert np.max(np.abs(out.unfold() - tm.tensor_exp(x).unfold())) <= 1e-9

    def test_small_q_near_limit(self, rng):
        x = rand_spectrum(rng, -1.0, 1.0)
        y = rand_spectrum(rng, -1.0, 1.0)
        out = tm.lt_expression(1e-3, x, y, tm.geometric())
        limit = tm.tensor_exp(0.5 * x + 0.5 * y)
        assert np.max(np.abs(out.unfold() - limit.unfold())) <= 1e-2

    def test_zero_q_rejected(self, rng):
        x = rand_hermitian(rng)
        with pytest.raises(ValueError):
            tm.lt_expression(0.0, x, x, tm.geometric())

    def test_q_whose_reciprocal_overflows_rejected(self, rng):
        x = rand_hermitian(rng)
        with pytest.raises(ValueError, match=r"^q must be nonzero with 1/q finite as a double, got 1e-310"):
            tm.lt_expression(1e-310, x, x, tm.geometric())


class TestLtLimit:
    def test_geometric_weight(self, rng):
        x, y = rand_hermitian(rng), rand_hermitian(rng)
        limit = tm.lt_limit(x, y, tm.geometric())
        direct = tm.tensor_exp(0.5 * x + 0.5 * y)
        assert np.max(np.abs(limit.unfold() - direct.unfold())) <= 1e-12

    def test_full_weight(self, rng):
        x, y = rand_hermitian(rng), rand_hermitian(rng)
        limit = tm.lt_limit(x, y, tm.power(1.0))
        assert np.max(np.abs(limit.unfold() - tm.tensor_exp(x).unfold())) <= 1e-12

    def test_transpose_weight(self, rng):
        x, y = rand_hermitian(rng), rand_hermitian(rng)
        limit = tm.lt_limit(x, y, tm.transpose_fn(tm.power(0.3)))
        direct = tm.tensor_exp(0.7 * x + 0.3 * y)
        assert np.max(np.abs(limit.unfold() - direct.unfold())) <= 1e-12

    def test_weights_sum_to_one(self):
        for fid in ("geometric", "power:0.3", "harmonic_like", "transpose:power:0.25"):
            g = tm.from_id(fid)
            w = tm.derivative_at_one(g)
            assert math.isfinite(w)
            assert w + (1.0 - w) == pytest.approx(1.0)

    def test_requires_normalization(self, rng):
        x, y = rand_hermitian(rng), rand_hermitian(rng)
        with pytest.raises(ValueError, match="normalized"):
            tm.lt_limit(x, y, tm.psi(1.0))


class TestConvergenceStudy:
    def test_commuting_pair(self, rng):
        d = np.sort(rng.uniform(-1, 1, size=4))[::-1]
        x = tm.HermitianTensor.diag(d, SHAPE22)
        y = tm.HermitianTensor.diag(rng.uniform(-1, 1, size=4), SHAPE22)
        st = tm.convergence_study(x, y, tm.geometric())
        assert max(st.distances) <= 1e-10
        assert st.monotone

    def test_equal_arguments(self, rng):
        x = rand_spectrum(rng, -1.0, 1.0)
        st = tm.convergence_study(x, x, tm.geometric())
        assert max(st.distances) <= 1e-10
        assert st.monotone

    def test_random_pairs_monotone(self, rng):
        for _ in range(20):
            x = rand_spectrum(rng, -1.0, 1.0)
            y = rand_spectrum(rng, -1.0, 1.0)
            st = tm.convergence_study(x, y, tm.geometric())
            assert st.monotone
            assert st.final_relative_error <= 1e-2

    def test_grid_validation(self, rng):
        x, y = rand_hermitian(rng), rand_hermitian(rng)
        with pytest.raises(ValueError):
            tm.convergence_study(x, y, tm.geometric(), (0.1, 0.2))

    def test_empty_grid_rejected(self, rng):
        x, y = rand_hermitian(rng), rand_hermitian(rng)
        with pytest.raises(ValueError, match="q grid must be positive"):
            tm.convergence_study(x, y, tm.geometric(), ())
        with pytest.raises(ValueError, match="q grid entry must be finite"):
            tm.convergence_study(x, y, tm.geometric(), (0.5, float("nan")))


class TestOrderingCheck:
    def test_commuting_equality_case(self):
        x = math.exp(-1.0) * tm.HermitianTensor.identity(SHAPE22)
        v = tm.lt_ordering_check(x, x, tm.geometric(), 2, 0.25, "pmi")
        assert v.relation in (tm.Relation.EQ, tm.Relation.LEQ)
        assert abs(v.witness) <= 1e-9

    def test_commuting_diagonal_scalar_oracle(self):
        # on commuting diagonals both sides reduce to scalar identities,
        # checked here eigenvalue by eigenvalue
        g = tm.geometric()
        m, q = 2, 0.25
        x = tm.HermitianTensor.diag([0.2, 0.3], SHAPE2)
        y = tm.HermitianTensor.diag([0.4, 0.25], SHAPE2)
        lifted = tm.power_lift(g, m)
        base = tm.mean_pd(x, y, lifted)
        t = base.lambda_max()
        xs, ys = x / t, y / t
        v = tm.lt_ordering_check(xs, ys, g, m, q, "pmi")
        w = m + 0.5
        for xv, yv in zip(np.diag(xs.unfold()).real, np.diag(ys.unfold()).real):
            left = math.exp(w * math.log(xv) + (1 - w) * math.log(yv))
            right = (yv**q * (xv / yv) ** (q * m) * g((xv / yv) ** q)) ** (1 / q)
            assert left <= right * (1 + 1e-12)
        assert v.is_leq

    def test_premise_violation_raises(self, rng):
        x = 3.0 * tm.HermitianTensor.identity(SHAPE22)
        with pytest.raises(PremiseError):
            tm.lt_ordering_check(x, x, tm.geometric(), 2, 0.25, "pmi")
        y = 0.1 * tm.HermitianTensor.identity(SHAPE22)
        with pytest.raises(PremiseError):
            tm.lt_ordering_check(y, y, tm.geometric(), 2, 0.25, "pmd")

    def test_argument_validation(self, rng):
        x = math.exp(-1.0) * tm.HermitianTensor.identity(SHAPE22)
        with pytest.raises(ValueError, match="branch"):
            tm.lt_ordering_check(x, x, tm.geometric(), 2, 0.25, "sideways")
        with pytest.raises(ValueError, match=r"^q must be finite and in \(0, 0.5\], got 0.75"):
            tm.lt_ordering_check(x, x, tm.geometric(), 2, 0.75, "pmi")

    def test_top_eigenvalue_order_on_random_pairs(self, rng):
        # The full Loewner comparison is known to fail for noncommuting
        # pairs (see the harness suite notes); the top-eigenvalue order is
        # what holds robustly and is asserted here.
        from tmlab.harness import enforce_premise

        g = tm.geometric()
        lifted = tm.power_lift(g, 2)
        w = 2 + 0.5
        for _ in range(50):
            x, y = rand_pd(rng), rand_spectrum(rng, 0.3, 2.0)
            xs, ys = enforce_premise(x, y, lifted, "leq")
            left = tm.tensor_exp(w * tm.tensor_log(xs) + (1 - w) * tm.tensor_log(ys))
            right = tm.spectral_power(tm.mean_pd(tm.spectral_power(xs, 0.25), tm.spectral_power(ys, 0.25), lifted), 4.0)
            assert left.lambda_max() <= right.lambda_max() * (1 + 1e-9)
