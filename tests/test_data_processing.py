import dataclasses

import numpy as np
import pytest

import tmlab as tm
from tmlab import harness
from tmlab.core import HermitianStack
from tmlab.harness import ConfigError, ExperimentConfig, SuiteId, run_suite
from tmlab.means import UnsupportedFunctionError

from conftest import SHAPE2, SHAPE22, rand_pd, rand_unitary


def random_congruence(rng, shape=SHAPE22):
    d = shape.square_dim
    k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return tm.congruence(k.reshape(shape.dims + shape.dims), shape), k


class TestApplyMap:
    def test_identity_congruence(self, rng):
        h = rand_pd(rng)
        lmap = tm.congruence(np.eye(4).reshape(2, 2, 2, 2), SHAPE22)
        assert np.max(np.abs(tm.apply_map(lmap, h).unfold() - h.unfold())) <= 1e-14

    def test_singleton_pinching_is_diagonal_part(self, rng):
        h = rand_pd(rng)
        lmap = tm.pinching([(0,), (1,), (2,), (3,)], SHAPE22)
        out = tm.apply_map(lmap, h)
        assert np.allclose(out.unfold(), np.diag(np.diag(h.unfold())))

    def test_congruence_on_identity(self, rng):
        lmap, k = random_congruence(rng)
        out = tm.apply_map(lmap, tm.HermitianTensor.identity(SHAPE22))
        assert np.max(np.abs(out.unfold() - k.conj().T @ k)) <= 1e-12

    def test_psd_preserved_on_probes(self, rng):
        lmap, _ = random_congruence(rng)
        pinch = tm.pinching([(0, 1), (2, 3)], SHAPE22)
        mix = tm.convex_combination([lmap, pinch], [0.3, 0.7])
        for m in (lmap, pinch, mix):
            for _ in range(100):
                p = rand_pd(rng)
                out = tm.apply_map(m, p)
                assert out.lambda_min() >= -1e-9 * max(1.0, out.spectral_scale())

    def test_linearity_on_probes(self, rng):
        lmap, _ = random_congruence(rng)
        for _ in range(20):
            a, b = rand_pd(rng), rand_pd(rng)
            lhs = tm.apply_map(lmap, 2.0 * a + (-0.5) * b)
            rhs = 2.0 * tm.apply_map(lmap, a) + (-0.5) * tm.apply_map(lmap, b)
            assert np.max(np.abs(lhs.unfold() - rhs.unfold())) <= 1e-10 * max(1.0, rhs.spectral_scale())

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="partition"):
            tm.pinching([(0, 1), (1, 2, 3)], SHAPE22)
        with pytest.raises(ValueError, match="partition"):
            tm.pinching([(0, 1)], SHAPE22)

    def test_weights_validation(self, rng):
        lmap, _ = random_congruence(rng)
        with pytest.raises(ValueError, match="convex"):
            tm.convex_combination([lmap, lmap], [0.5, 0.6])

    def test_shape_mismatch(self, rng):
        lmap, _ = random_congruence(rng)
        with pytest.raises(ValueError, match="shape"):
            tm.apply_map(lmap, rand_pd(rng, SHAPE2))

    @pytest.mark.parametrize("call, match", [
        (lambda pinch: tm.congruence(np.eye(3), SHAPE22), "congruence needs a 4 x 4 tensor unfolding"),
        (lambda pinch: tm.congruence(np.full((4, 4), np.nan), SHAPE22), "congruence needs a finite tensor"),
        (lambda pinch: tm.congruence(np.stack([np.eye(4), np.full((4, 4), np.inf)]), SHAPE22),
         "congruence needs a finite tensor"),
        (lambda pinch: tm.pinching([], SHAPE22), "pinching needs a partition"),
        (lambda pinch: tm.convex_combination([pinch], [0.5, 0.5]), "mix needs matching components and weights"),
        (lambda pinch: tm.convex_combination([pinch, tm.congruence(np.eye(4), (4,))], [0.5, 0.5]),
         "component shape mismatch"),
        (lambda pinch: tm.convex_combination([], []), "need at least one component map"),
        (lambda pinch: tm.convex_combination([pinch, pinch], [np.nan, 1.0]), r"^weight must be finite and in \[0, 1\]"),
        (lambda pinch: tm.apply_map(pinch, HermitianStack.from_matrices(np.stack([np.eye(2)] * 3))),
         "size mismatch: map on D = 4, matrices of size 2"),
        (lambda pinch: tm.apply_map(tm.congruence(np.stack([np.eye(4)] * 3), SHAPE22),
                                    HermitianStack.from_matrices(np.stack([np.eye(4)] * 2), SHAPE22)),
         "congruence of 3 matrices applied to a stack of 2"),
    ], ids=["congruence-size", "congruence-nan", "congruence-stack-inf", "pinching-no-partition", "mix-unmatched",
            "mix-shapes", "mix-empty", "weight-nan", "shapeless-stack-of-other-d", "congruence-stack-of-other-size"])
    def test_refusals(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(tm.pinching([(0, 1), (2, 3)], SHAPE22))

    @pytest.mark.parametrize("lmap", [tm.pinching([(0, 1), (2, 3)], SHAPE22), tm.congruence(np.eye(4), SHAPE22)],
                             ids=["pinching", "congruence"])
    def test_stack_dims_checked_like_its_members(self, lmap):
        # Same D = 4, other dims: the stack is refused as its member 0 is.
        stack = HermitianStack.from_matrices(np.stack([np.eye(4), 2.0 * np.eye(4)]), tm.TensorShape((4,)))
        for h in (stack, stack._member(0)):
            with pytest.raises(ValueError, match=r"shape mismatch: map on \(2, 2\), tensor \(4,\)"):
                tm.apply_map(lmap, h)
        assert tm.apply_map(lmap, HermitianStack.from_matrices(stack.unfold(), SHAPE22)).unfold().shape == (2, 4, 4)

    def test_a_stack_congruence_maps_a_tensor_to_one_image_per_matrix(self, rng):
        k = np.stack([rand_unitary(rng, 4) for _ in range(3)])
        h = rand_pd(rng)
        images = tm.apply_map(tm.congruence(k, SHAPE22), h)
        for i in range(3):
            want = tm.apply_map(tm.congruence(k[i], SHAPE22), h)
            assert np.allclose(images._member(i).unfold(), want.unfold(), rtol=0.0, atol=1e-12)


class TestDominationPair:
    def test_constant_is_not_a_constructor_argument(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        with pytest.raises(TypeError):
            tm.DominationPair(x, y, "left", constant=5.0)
        pair = tm.DominationPair(x, y, "left")
        assert pair.constant == pair.quotient.domination_constant

    def test_left_pair_constant(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        pair = tm.DominationPair(x, y, "left")
        assert pair.constant > 0
        assert tm.loewner_compare(x, (pair.constant + 1e-9) * y, 1e-9).is_leq

    def test_right_pair(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        pair = tm.DominationPair(x, y, "right")
        assert pair.constant > 0

    def test_violation_raises(self):
        x = tm.HermitianTensor.diag([0.0, 1.0], SHAPE2)
        y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        with pytest.raises(tm.DominationError):
            tm.DominationPair(x, y, "left")

    def test_side_validation(self, rng):
        with pytest.raises(ValueError, match="side"):
            tm.DominationPair(rand_pd(rng), rand_pd(rng), "up")


class TestFusionGap:
    def test_identity_equality_case(self):
        ident = tm.HermitianTensor.identity(SHAPE22)
        p = tm.DominationPair(ident, ident, "left")
        gap, verdict = tm.fusion_gap(p, p, tm.square())
        assert abs(gap) <= 1e-12
        assert verdict.is_leq

    def test_scalar_closed_form(self):
        ident = tm.HermitianTensor.identity(SHAPE2)
        for x1, y1, x2, y2 in ((1.0, 2.0, 3.0, 1.5), (0.3, 0.7, 2.0, 5.0)):
            p1 = tm.DominationPair(x1 * ident, y1 * ident, "left")
            p2 = tm.DominationPair(x2 * ident, y2 * ident, "left")
            gap, _ = tm.fusion_gap(p1, p2, tm.square())
            closed = x1**2 / y1 + x2**2 / y2 - (x1 + x2) ** 2 / (y1 + y2)
            assert gap == pytest.approx(closed, abs=1e-10)
            assert gap >= 0.0

    def test_monte_carlo_nonnegative(self, rng):
        g = tm.square()
        for _ in range(100):
            p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            gap, verdict = tm.fusion_gap(p1, p2, g)
            assert gap >= -1e-8
            assert verdict.is_leq

    def test_pair_order_symmetry(self, rng):
        g = tm.square()
        p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        g12, _ = tm.fusion_gap(p1, p2, g)
        g21, _ = tm.fusion_gap(p2, p1, g)
        assert abs(g12 - g21) <= 1e-10 * max(1.0, abs(g12))

    def test_side_mismatch(self, rng):
        p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
        with pytest.raises(ValueError, match="side"):
            tm.fusion_gap(p1, p2, tm.square())

    def test_right_side_pairs_need_finite_derivative_at_infinity(self, rng):
        # right-dominated pairs route through the transposed generator;
        # square transposes to 1/x whose 0+ limit is infinite
        p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
        p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
        with pytest.raises(UnsupportedFunctionError, match="infinity"):
            tm.fusion_gap(p1, p2, tm.square())

    def test_right_side_pairs_build_the_transpose_once_per_generator(self, rng, monkeypatch):
        # Right-dominated pairs evaluate the transposed generator; its
        # construction (and class probe) is paid once per generator, not on
        # every admission and mean of every call.
        g, runs = tm.power(-1.0), []
        real = tm.ConnectionFunction.__post_init__
        monkeypatch.setattr(tm.ConnectionFunction, "__post_init__", lambda self: runs.append(self.label) or real(self))
        p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
        p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
        for _ in range(2):
            tm.fusion_gap(p1, p2, g)
            tm.transform_gap(tm.pinching([(0, 1), (2, 3)], SHAPE22), p1, g)
            tm.mean_on_pair(p1, g)
        assert runs == ["transpose:power:-1"] and tm.transpose_fn(g) is tm.transpose_fn(g)

    def test_right_side_pairs_hold_for_reciprocal(self, rng):
        # 1/x is convex with zero derivative at infinity: admissible on
        # the right-dominated side (and only there)
        g = tm.power(-1.0)
        for _ in range(50):
            p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
            p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "right")
            gap, verdict = tm.fusion_gap(p1, p2, g)
            assert gap >= -1e-8
            assert verdict.is_leq
        left = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        with pytest.raises(UnsupportedFunctionError, match="0\\+"):
            tm.fusion_gap(left, left, g)

    def test_finite_nonzero_zero_limit_regime(self, rng):
        # convex generator with g(0+) = 2: the constant shift cancels in
        # the fusion gap, so subadditivity persists
        from tmlab.functions import ConnectionFunction

        g = ConnectionFunction(
            fn=lambda x: 2.0 / (1.0 + x),
            label="inverse_arithmetic",
            tags=frozenset({"TMD", "TC"}),
            derivative_at_1=-0.5,
            value_at_0plus=2.0,
        )
        for _ in range(50):
            p1 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            p2 = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            gap, _ = tm.fusion_gap(p1, p2, g)
            assert gap >= -1e-8
            pair = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            tgap, _ = tm.transform_gap(tm.pinching([(0, 1), (2, 3)], SHAPE22), pair, g)
            assert tgap >= -1e-8

    def test_requires_convex_tag(self, rng):
        p = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        with pytest.raises(ValueError, match="convex"):
            tm.fusion_gap(p, p, tm.geometric())


# Built-in generator ids of every form the README lists.
GENERATOR_IDS = ["geometric", "square", "harmonic_like", "identity", "power:-1", "power:-0.5", "power:0",
                 "power:0.5", "power:1.5", "power:2", "power:3", "psi:1", "liftn:1:geometric", "liftn:2:square",
                 "transpose:geometric", "transpose:square", "transpose:power:-1", "transpose:harmonic_like"]


@pytest.mark.parametrize("fid", GENERATOR_IDS)
def test_fusion_suite_and_fusion_gap_admit_the_same_generators(rng, fid, monkeypatch):
    """One admissibility rule: APP_Fusion, with its normalization
    requirement lifted, runs a generator exactly when fusion_gap on left
    pairs accepts it."""
    row = harness._SUITES[SuiteId.APP_Fusion]
    monkeypatch.setitem(harness._SUITES, SuiteId.APP_Fusion, dataclasses.replace(row, normalized=False))
    try:
        run_suite("APP_Fusion", ExperimentConfig(trials=2, function=fid))
        suite_runs = True
    except ConfigError as exc:
        assert "cannot run" in str(exc)
        suite_runs = False
    p = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
    try:
        tm.fusion_gap(p, p, tm.from_id(fid))
        gap_runs = True
    except ValueError:
        gap_runs = False
    assert suite_runs == gap_runs


class TestTransformGap:
    def test_identity_congruence_zero_gap(self, rng):
        pair = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
        lmap = tm.congruence(np.eye(4).reshape(2, 2, 2, 2), SHAPE22)
        gap, verdict = tm.transform_gap(lmap, pair, tm.square())
        assert abs(gap) <= 1e-10
        assert verdict.is_geq

    def test_pinching_on_diagonals_zero_gap(self, rng):
        x = tm.HermitianTensor.diag(rng.uniform(0.5, 2.0, size=4), SHAPE22)
        y = tm.HermitianTensor.diag(rng.uniform(0.5, 2.0, size=4), SHAPE22)
        pair = tm.DominationPair(x, y, "left")
        lmap = tm.pinching([(0, 1), (2, 3)], SHAPE22)
        gap, _ = tm.transform_gap(lmap, pair, tm.square())
        assert abs(gap) <= 1e-10

    def test_monte_carlo_nonnegative(self, rng):
        g = tm.square()
        pinch = tm.pinching([(0, 1), (2, 3)], SHAPE22)
        for _ in range(100):
            pair = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            lmap, _ = random_congruence(rng)
            for m in (lmap, pinch):
                gap, verdict = tm.transform_gap(m, pair, g)
                assert gap >= -1e-8
                assert verdict.is_geq

    def test_unitary_congruence_equality(self, rng):
        # Kubo-Ando means are congruence-invariant: for an invertible K,
        # K^H (x # y) K = (K^H x K) # (K^H y K).  So the gap of a unitary or
        # a random invertible congruence is rounding noise, within
        # C eps cond(K)^2 of the mapped mean's scale (C = 512; at most 53
        # measured over 200 draws).
        g = tm.square()
        eps = np.finfo(float).eps
        for _ in range(50):
            pair = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            u = rand_unitary(rng, 4)
            k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for m in (u, k):
                lmap = tm.congruence(m.reshape(2, 2, 2, 2), SHAPE22)
                gap, _ = tm.transform_gap(lmap, pair, g)
                scale = max(1.0, tm.apply_map(lmap, tm.mean_on_pair(pair, g)).spectral_scale())
                assert abs(gap) <= 512 * eps * np.linalg.cond(m) ** 2 * scale

    def test_convex_combination_gap_bounded_by_components(self, rng):
        g = tm.square()
        pinch = tm.pinching([(0, 1), (2, 3)], SHAPE22)
        for _ in range(25):
            pair = tm.DominationPair(rand_pd(rng), rand_pd(rng), "left")
            cong, _ = random_congruence(rng)
            mix = tm.convex_combination([cong, pinch], [0.5, 0.5])
            gap_mix, _ = tm.transform_gap(mix, pair, g)
            gaps = [tm.transform_gap(m, pair, g)[0] for m in (cong, pinch)]
            assert gap_mix >= min(gaps) - 1e-9
