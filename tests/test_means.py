import numpy as np
import pytest

import tmlab as tm
from tmlab.core import HermitianStack
from tmlab.means import DominationError, UnsupportedFunctionError, _congruence_mean

from conftest import SHAPE2, SHAPE22, rand_pd, rand_psd_rank

# Reference for mean(fold([[2,1],[1,2]]), fold([[1,0],[0,4]]), geometric),
# frozen from a 50-digit eigendecomposition (mpmath): the quotient is
# [[2, 0.5], [0.5, 0.5]] and the mean conjugates its square root by diag(1, 2).
GEOMETRIC_MEAN_REF = np.array(
    [
        [1.39317155626922198, 0.48609881630135267938],
        [0.48609881630135267938, 2.6560933272687718438],
    ]
)


def truncated_root(y):
    dec = tm.spectral_decompose(y)
    lam = np.maximum(dec.eigenvalues, 0.0)
    lam[lam <= 1e-10 * max(float(lam[0]), 0.0)] = 0.0
    return (dec.eigenvectors * np.sqrt(lam)) @ dec.eigenvectors.conj().T


def dominated_pair(rng, rank=3, shape=SHAPE22):
    y = rand_psd_rank(rng, rank, shape)
    w = rand_pd(rng, shape)
    root = truncated_root(y)
    m = root @ w.unfold() @ root
    return tm.fold((m + m.conj().T) / 2.0, shape), y


class TestMeanPd:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_pd_tensors_pass_the_certified_gate(self, rng, monkeypatch):
        # Entries near 1e200 square past the double range; the gate's margin
        # reads their scaled Frobenius norm and certifies x without eigvalsh.
        x, y = rand_pd(rng), rand_pd(rng)
        big = [tm.fold(t.unfold() * 1e200, SHAPE22) for t in (x, y)]
        real, g = np.linalg.eigvalsh, tm.geometric()
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("x's values were read"))
        m = tm.mean_pd(*big, g)
        monkeypatch.setattr(np.linalg, "eigvalsh", real)
        ref = tm.mean_pd(x, y, tm.geometric()).unfold()
        assert np.linalg.norm(m.unfold() / 1e200 - ref) <= 1e-12 * np.linalg.norm(ref)
        with pytest.raises(tm.core.NotPositiveDefiniteError):
            tm.mean_pd(-1.0 * big[0], big[1], tm.geometric())

    def test_quotient_past_half_the_double_range_gives_the_finite_mean(self):
        # The quotient's entry 1.5e308 is finite, and so is its Hermitian part.
        x, y = tm.HermitianTensor.diag([1.5e308, 1e308], SHAPE2), tm.HermitianTensor.diag([1.0, 2.0], SHAPE2)
        want = np.diag([np.sqrt(1.5e308), np.sqrt(1e308) * np.sqrt(2.0)])
        for mean in (tm.mean_pd, tm.mean_psd):
            got = mean(x, y, tm.geometric()).unfold()
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want), mean.__name__

    @pytest.mark.parametrize("x, y", [([1.7e308, 1e308], [0.5, 2.0]), ([1.7e308, 1.7e308], [0.25, 0.25])],
                             ids=["one_entry", "both_entries"])
    def test_quotient_past_the_double_range_raises(self, x, y):
        # The true means are finite, but the quotient x / y is not: its
        # spectrum may not map to g(0+) as if it were dead.
        x, y = tm.HermitianTensor.diag(x, SHAPE2), tm.HermitianTensor.diag(y, SHAPE2)
        for mean in (tm.mean_pd, tm.mean_psd):
            with pytest.raises(ValueError):
                mean(x, y, tm.geometric())

    @pytest.mark.parametrize("x, y", [([1.7e308, 1e308], [0.5, 2.0]), ([1.7e308, 1.7e308], [0.25, 0.25])],
                             ids=["one_entry", "both_entries"])
    def test_quotient_past_the_double_range_is_refused_before_its_eigh(self, x, y):
        # The quotient x / y overflows: both PD means refuse it as non-finite
        # entries, whether x's values are known or x's gate waits for the quotient.
        pairs = [(tm.HermitianTensor.diag(x, SHAPE2), tm.HermitianTensor.diag(y, SHAPE2)),
                 (tm.fold(np.diag(x).astype(complex), SHAPE2), tm.fold(np.diag(y).astype(complex), SHAPE2))]
        for a, b in pairs:
            for mean, lift in ((tm.mean_pd, ()), (tm.mean_recursive, (2,)), (tm.mean_recursive, (3,))):
                with pytest.raises(ValueError, match="entries must be finite"):
                    mean(a, b, tm.geometric(), *lift)

    def test_commuting_scalar_case(self):
        x = tm.HermitianTensor.diag([4.0] * 4, SHAPE22)
        ident = tm.HermitianTensor.identity(SHAPE22)
        m = tm.mean_pd(x, ident, tm.geometric())
        assert np.max(np.abs(m.unfold() - 2 * np.eye(4))) <= 1e-12

    def test_idempotence(self, rng):
        x = rand_pd(rng)
        m = tm.mean_pd(x, x, tm.geometric())
        assert np.max(np.abs(m.unfold() - x.unfold())) <= 1e-9 * max(1.0, x.spectral_scale())

    def test_frozen_reference_value(self):
        x = tm.fold(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex), SHAPE2)
        y = tm.fold(np.array([[1.0, 0.0], [0.0, 4.0]], dtype=complex), SHAPE2)
        m = tm.mean_pd(x, y, tm.geometric())
        assert np.max(np.abs(m.unfold() - GEOMETRIC_MEAN_REF)) <= 1e-9

    def test_rejects_indefinite(self, rng):
        x = tm.HermitianTensor.diag([1.0, -1.0, 1.0, 1.0], SHAPE22)
        with pytest.raises(tm.core.NotPositiveDefiniteError):
            tm.mean_pd(x, rand_pd(rng), tm.geometric())

    def test_rejects_numerically_singular_second_slot(self, rng):
        # float-zero eigenvalues (order 1e-17 of either sign) must never
        # reach the inverse square root, whatever the LAPACK driver says
        import warnings

        y = rand_psd_rank(rng, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tm.core.NotPositiveDefiniteError):
                tm.mean_pd(rand_pd(rng), y, tm.geometric())
            with pytest.raises(tm.core.NotPositiveDefiniteError):
                tm.mean_recursive(rand_pd(rng), y, tm.geometric(), 2)

    def test_domain_violation(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        with pytest.raises(UnsupportedFunctionError):
            tm.mean_psd(x, y, tm.power(-1.0))

    @pytest.mark.parametrize("fid", ["geometric", "square", "harmonic_like"])
    def test_algebra_properties(self, rng, fid):
        g = tm.from_id(fid)
        gt = tm.transpose_fn(g)
        for _ in range(50):
            x, y = rand_pd(rng), rand_pd(rng)
            m = tm.mean_pd(x, y, g)
            scale = max(1.0, m.spectral_scale())
            idem = tm.mean_pd(x, x, g)
            assert np.max(np.abs(idem.unfold() - x.unfold())) <= 1e-9 * max(1.0, x.spectral_scale())
            for c in (0.1, 3.0):
                scaled = tm.mean_pd(c * x, c * y, g)
                assert np.max(np.abs(scaled.unfold() - c * m.unfold())) <= 1e-9 * c * scale
            swapped = tm.mean_pd(y, x, gt)
            assert np.max(np.abs(swapped.unfold() - m.unfold())) <= 1e-9 * scale


class TestMeanRecursive:
    def test_scalar_formula(self):
        # commuting multiples of the identity follow y * (x/y)^n * f(x/y)
        x = tm.HermitianTensor.diag([4.0, 4.0], SHAPE2)
        y = tm.HermitianTensor.identity(SHAPE2)
        m = tm.mean_recursive(x, y, tm.geometric(), 2)
        assert np.max(np.abs(m.unfold() - 32.0 * np.eye(2))) <= 1e-10

    def test_base_case_matches_mean_pd(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        a = tm.mean_recursive(x, y, tm.geometric(), 0)
        b = tm.mean_pd(x, y, tm.geometric())
        assert np.array_equal(a.unfold(), b.unfold())

    def test_matches_direct_lift(self, rng):
        f = tm.geometric()
        for _ in range(20):
            x, y = rand_pd(rng), rand_pd(rng)
            for n in range(2, 7):
                a = tm.mean_recursive(x, y, f, n)
                b = tm.mean_pd(x, y, tm.power_lift(f, n))
                rel = np.linalg.norm(a.unfold() - b.unfold()) / np.linalg.norm(b.unfold())
                assert rel <= 1e-8


class TestEta:
    def test_identity_second_slot(self, rng):
        x = rand_pd(rng)
        res = tm.eta(x, tm.HermitianTensor.identity(SHAPE22))
        assert np.max(np.abs(res.eta.unfold() - x.unfold())) <= 1e-10

    def test_diagonal_fixture(self):
        y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        x = tm.HermitianTensor.diag([0.5, 0.0], SHAPE2)
        res = tm.eta(x, y)
        assert np.allclose(res.eta.unfold(), np.diag([0.5, 0.0]))
        assert res.domination_constant == pytest.approx(0.5)
        assert np.abs(res.eta.unfold()[:, 1]).max() <= 1e-12

    def test_range_violation(self):
        y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        x = tm.HermitianTensor.diag([0.0, 1.0], SHAPE2)
        with pytest.raises(DominationError):
            tm.eta(x, y)

    def test_defining_equations(self, rng):
        for _ in range(20):
            x, y = dominated_pair(rng)
            res = tm.eta(x, y)
            root = truncated_root(y)
            recon = root @ res.eta.unfold() @ root
            assert np.max(np.abs(recon - x.unfold())) <= 1e-8 * max(1.0, x.spectral_scale())
            complement = np.eye(4) - tm.range_projector(y).unfold()
            assert np.max(np.abs(res.eta.unfold() @ complement)) <= 1e-10
            # least domination constant: x <= c y holds at c, fails below
            c = res.domination_constant
            assert tm.loewner_compare(x, (c + 1e-6) * y, 1e-9).is_leq

    def test_pd_reduction(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        res = tm.eta(x, y)
        yi = tm.apply_spectral(y, lambda v: v**-0.5).unfold()
        direct = yi @ x.unfold() @ yi
        assert np.max(np.abs(res.eta.unfold() - direct)) <= 1e-9


class TestMeanPsd:
    def test_rank_deficient_fixture(self):
        y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        x = tm.HermitianTensor.diag([0.5, 0.0], SHAPE2)
        m = tm.mean_psd(x, y, tm.geometric())
        assert np.allclose(m.unfold(), np.diag([np.sqrt(0.5), 0.0]), atol=1e-12)

    def test_pd_reduction(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        a = tm.mean_psd(x, y, tm.geometric())
        b = tm.mean_pd(x, y, tm.geometric())
        assert np.max(np.abs(a.unfold() - b.unfold())) <= 1e-10

    def test_zero_numerator(self):
        zero = tm.HermitianTensor.zero(SHAPE2)
        y = tm.HermitianTensor.diag([1.0, 2.0], SHAPE2)
        m = tm.mean_psd(zero, y, tm.geometric())
        assert np.max(np.abs(m.unfold())) <= 1e-12

    def test_zero_denominator(self):
        zero = tm.HermitianTensor.zero(SHAPE2)
        assert np.max(np.abs(tm.mean_psd(zero, zero, tm.geometric()).unfold())) == 0.0
        x = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        with pytest.raises(DominationError):
            tm.mean_psd(x, zero, tm.geometric())

    @pytest.mark.parametrize("scales", [(1e300, 1e-10), (1e307, 1e-2), (1e307, 1e-1)],
                             ids=["inf_quotient", "eta_past_max", "finite_quotient"])
    def test_quotient_past_double_range_raises_as_eta(self, rng, scales):
        # mean_psd does not keep eta's matrix, but where that matrix leaves the
        # double range it raises eta's error rather than return a mean of it.
        # eta is (a / b) P on range(h) for x = a h, y = b h: past the double
        # range at a / b = 1e309, inside it at 1e308, where the mean sqrt(a b) h
        # is finite too.
        h = rand_psd_rank(rng, 2).unfold()
        x, y = (tm.fold(s * h, SHAPE22) for s in scales)
        if scales[0] / scales[1] < np.finfo(float).max:
            assert np.all(np.isfinite(tm.eta(x, y).eta.unfold()))
            want = np.sqrt(scales[0] * scales[1]) * h
            got = tm.mean_psd(x, y, tm.geometric()).unfold()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            return
        for call in (lambda: tm.eta(x, y), lambda: tm.mean_psd(x, y, tm.geometric())):
            with pytest.raises(ValueError, match="entries must be finite"):
                call()

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_overflowing_quotient_is_refused_before_its_eigh(self, seed):
        # eta = 1e309 P on range(h): the quotient overflows to inf, which LAPACK
        # must not see (its eigh may raise "Eigenvalues did not converge").
        h = rand_psd_rank(np.random.default_rng(seed), 2).unfold()
        x, y = tm.fold(1e308 * h, SHAPE22), tm.fold(1e-1 * h, SHAPE22)
        for call in (lambda: tm.eta(x, y), lambda: tm.mean_psd(x, y, tm.geometric())):
            with pytest.raises(ValueError, match="entries must be finite"):
                call()

    def test_no_extended_mean_forms_y_root(self, rng, monkeypatch):
        """mean_psd and mean_on_pair finish over y's eigenpairs, with no
        formed root of y."""
        monkeypatch.setattr(tm.means, "_psd_root", lambda y: pytest.fail("y's root was formed"))
        x, y = dominated_pair(rng)
        tm.mean_psd(x, y, tm.geometric())
        for pair in (tm.DominationPair(x, y, "left"), tm.DominationPair(y, x, "right")):
            tm.mean_on_pair(pair, tm.geometric())

    def test_infinite_zero_limit_rejected(self, rng):
        with pytest.raises(UnsupportedFunctionError):
            tm.mean_psd(rand_pd(rng), rand_pd(rng), tm.power(-0.5))

    def test_transposed_geometric_maps_the_dead_quotient_to_zero(self, rng):
        # sqrt is its own transpose; the dead eigenvalues of a rank-2 x under a
        # PD y map to the exact 0+ limit, not to a value probed near 0.
        x, y = rand_psd_rank(rng, 2), rand_pd(rng)
        want = tm.mean_psd(x, y, tm.geometric()).unfold()
        got = tm.mean_psd(x, y, tm.transpose_fn(tm.geometric())).unfold()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_operands_checked_once(self, rng, monkeypatch):
        """mean_psd checks its operands once; mean_on_pair none, its pair
        having been checked when the pair's eta was built."""
        real, calls = HermitianStack._check_same_shape, []

        def spy(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(HermitianStack, "_check_same_shape", spy)
        x, y = dominated_pair(rng)
        tm.mean_psd(x, y, tm.geometric())
        assert len(calls) == 1
        pairs = [tm.DominationPair(x, y, "left"), tm.DominationPair(y, x, "right")]
        calls.clear()
        for pair in pairs:
            tm.mean_on_pair(pair, tm.geometric())
        assert calls == []

    @pytest.mark.parametrize("shapes", [(SHAPE22, tm.TensorShape((4,))), (tm.TensorShape((3,)), SHAPE22)],
                             ids=["dims", "size"])
    def test_mismatched_operands_raise(self, rng, shapes):
        x, y = (rand_pd(rng, shape) for shape in shapes)
        with pytest.raises(ValueError, match="shape mismatch|size mismatch"):
            tm.mean_psd(x, y, tm.geometric())

    def test_mismatch_is_found_before_the_zero_y_test(self):
        with pytest.raises(ValueError, match="shape mismatch|size mismatch"):
            tm.mean_psd(tm.HermitianTensor.identity((4,)), tm.HermitianTensor.zero((3,)), tm.geometric())

    def test_infinite_zero_limit_really_diverges(self):
        # the other side of the 0+ dichotomy: with an infinite 0+ limit the
        # regularized means blow up (like eps^-1/2 here) instead of
        # converging, which is why mean_psd refuses such generators
        y = tm.HermitianTensor.diag([1.0, 0.0], SHAPE2)
        x = tm.HermitianTensor.zero(SHAPE2)
        ident = tm.HermitianTensor.identity(SHAPE2)
        g = tm.power(-0.5)
        norms = [
            tm.mean_pd(x + eps * ident, y + eps * ident, g).spectral_scale()
            for eps in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert all(b > 9.0 * a for a, b in zip(norms, norms[1:]))


class TestEpsilonMeanLimit:
    def test_pd_pair_errors_linear_in_eps(self, rng):
        # On PD pairs the regularized mean is within O(eps) of the plain
        # mean; the coefficient is the Frobenius norm of the eps-derivative
        # (about 2.2 for unit-scale spectra at D=4).
        from conftest import rand_spectrum

        for _ in range(10):
            x = rand_spectrum(rng, 0.5, 2.0)
            y = rand_spectrum(rng, 0.5, 2.0)
            _, diag = tm.epsilon_mean_limit(x, y, tm.geometric())
            assert diag.converged
            for eps, err in zip(diag.epsilon_grid, diag.errors):
                assert err <= 4.0 * eps
            assert diag.errors[-1] <= 1e-7

    def test_rank_deficient_decreasing(self, rng):
        for gfun in (tm.geometric(), tm.square()):
            x, y = dominated_pair(rng)
            limit, diag = tm.epsilon_mean_limit(x, y, gfun)
            assert all(b < a for a, b in zip(diag.errors, diag.errors[1:]))
            assert diag.errors[-1] <= 1e-3 * max(1.0, tm.gauge_norm(limit))
            assert diag.converged

    def test_sequence_perturbation_same_limit(self, rng):
        x, y = dominated_pair(rng)
        grid = tuple(1.0 / n for n in (4, 16, 64, 256, 1024))
        limit, diag = tm.epsilon_mean_limit(x, y, tm.geometric(), grid, mode="right")
        assert diag.errors[-1] <= 1e-3 * max(1.0, tm.gauge_norm(limit))

    @pytest.mark.parametrize("mode", ["joint", "right"])
    def test_bits_do_not_depend_on_earlier_decompositions(self, mode, monkeypatch):
        # The shifted operands are born from the spectra of x and y; a caller
        # who has already decomposed x and y gets the same bits, in the
        # result and in the caches of every shifted operand.
        def run(warm):
            x, y = dominated_pair(np.random.default_rng(17))
            if warm:
                for t in (x, y):
                    t._spectrum()
                    t._eigenvalues()
            seen, name = [], "mean_pd" if mode == "joint" else "_congruence_mean"
            real = getattr(tm.means, name)

            def spy(a, b, g):
                out = real(a, b, g)
                seen.extend([a._eigenvalues(), b._eigenvalues(), *b._spectrum()])
                return out

            monkeypatch.setattr(tm.means, name, spy)
            limit, diag = tm.epsilon_mean_limit(x, y, tm.geometric(), mode=mode)
            monkeypatch.undo()
            return [limit.unfold(), np.array(diag.errors), *seen]

        fresh, warmed = run(False), run(True)
        assert len(fresh) == 2 + 4 * 4
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fresh, warmed))

    def test_bad_grid_rejected(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        with pytest.raises(ValueError):
            tm.epsilon_mean_limit(x, y, tm.geometric(), (1e-4, 1e-2))

    def test_empty_grid_rejected(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        with pytest.raises(ValueError, match="epsilon grid must be positive"):
            tm.epsilon_mean_limit(x, y, tm.geometric(), ())
        with pytest.raises(ValueError, match="epsilon grid entry must be finite"):
            tm.epsilon_mean_limit(x, y, tm.geometric(), (1e-2, float("nan")))

    def test_bad_mode(self, rng):
        x, y = rand_pd(rng), rand_pd(rng)
        with pytest.raises(ValueError, match="mode"):
            tm.epsilon_mean_limit(x, y, tm.geometric(), mode="nope")


class TestConvexityAndMonotonicity:
    def test_right_monotone_decreasing_square(self, rng):
        g = tm.square()
        for _ in range(500):
            x = rand_pd(rng)
            y1 = rand_pd(rng)
            y2 = y1 + rand_pd(rng, scale=0.5)
            a = tm.mean_pd(x, y1, g)
            b = tm.mean_pd(x, y2, g)
            scale = max(1.0, a.spectral_scale())
            assert np.linalg.eigvalsh(a.unfold() - b.unfold())[0] >= -1e-8 * scale

    def test_left_monotone_decreasing_transpose(self, rng):
        h = tm.transpose_fn(tm.square())  # 1/x: left slot decreasing
        for _ in range(100):
            x1 = rand_pd(rng)
            x2 = x1 + rand_pd(rng, scale=0.5)
            y = rand_pd(rng)
            a = tm.mean_pd(x1, y, h)
            b = tm.mean_pd(x2, y, h)
            scale = max(1.0, a.spectral_scale())
            assert np.linalg.eigvalsh(a.unfold() - b.unfold())[0] >= -1e-8 * scale

    def test_joint_convexity_square(self, rng):
        g = tm.square()
        for _ in range(100):
            x1, y1, x2, y2 = (rand_pd(rng) for _ in range(4))
            for lam in (0.25, 0.5, 0.75):
                lhs = tm.mean_pd(lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2, g)
                rhs = lam * tm.mean_pd(x1, y1, g) + (1 - lam) * tm.mean_pd(x2, y2, g)
                scale = max(1.0, rhs.spectral_scale())
                assert np.linalg.eigvalsh(rhs.unfold() - lhs.unfold())[0] >= -1e-8 * scale


def test_mean_psd_left_helper_matches_joint_on_pd(rng):
    # The congruence body serves mean_pd and the right-slot limit, whose
    # first slot is only PSD: on a PD pair it is mean_pd, on a PSD first
    # slot it agrees with the PSD extension (for a generator with a finite
    # slope at 0+, which does not magnify rounding noise in the null space).
    x, y = rand_pd(rng), rand_pd(rng)
    a = _congruence_mean(x, y, tm.geometric())
    b = tm.mean_pd(x, y, tm.geometric())
    assert np.max(np.abs(a.unfold() - b.unfold())) <= 1e-12
    x_psd = tm.HermitianTensor.diag([2.0, 1.0, 0.5, 0.0], x.shape)
    c = _congruence_mean(x_psd, y, tm.harmonic_like())
    d = tm.mean_psd(x_psd, y, tm.harmonic_like())
    assert np.max(np.abs(c.unfold() - d.unfold())) <= 1e-10 * max(1.0, d.spectral_scale())
