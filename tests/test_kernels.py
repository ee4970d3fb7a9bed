"""Stacked kernels against their batch of one.

Every numerical body runs over ``(..., D, D)`` stacks, and the per-tensor
API is the same kernel applied to a single matrix.  A kernel applied to a
stack must give, bit for bit, what it gives on each slice alone, and on a
stack split at a trial-chunk boundary.
"""

import numpy as np
import pytest

import tmlab as tm
from tmlab import harness
from tmlab.bounds import _kk_lists, _ratio_extremes
from tmlab.core import HermitianStack, loewner_extremes
from tmlab.data_processing import _congruence
from tmlab.harness import EnsembleSpec, ExperimentConfig, SuiteId, _chunks, _draw, run_suite, sample
from tmlab.means import _psd_root

DIMS = [1, 2, 4, 16, 64]
N = 5
SPLIT = 3  # a chunk boundary inside the stack


def shape_of(d):
    return tm.TensorShape((d,))


def gaussian(rng, n, rows, cols):
    return (rng.normal(size=(n, rows, cols)) + 1j * rng.normal(size=(n, rows, cols))) / np.sqrt(2.0)


def pd_stack(rng, d, n=N):
    g = gaussian(rng, n, 2 * d, d)
    return HermitianStack.from_matrices(g.conj().swapaxes(-1, -2) @ g / (2 * d) + 1e-6 * np.eye(d))


def psd_stack(rng, d, ranks):
    """PSD stack whose matrices have the given ranks (mixed kept counts)."""
    mats = []
    for r in ranks:
        g = gaussian(rng, 1, r, d)[0]
        mats.append(g.conj().T @ g / r)
    return HermitianStack.from_matrices(np.stack(mats))


def tensors(stack, d):
    return [tm.HermitianTensor._trusted(m.copy(), shape_of(d)) for m in stack.unfold()]


def halves(stack):
    m = stack.unfold()
    return HermitianStack._trusted(m[:SPLIT].copy()), HermitianStack._trusted(m[SPLIT:].copy())


def same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


def assert_sliced(whole, per_slice, parts):
    """The stacked result equals every batch-of-one result and the join of
    the results on the two sides of the chunk boundary."""
    whole = np.asarray(whole)
    assert all(same(whole[i], r) for i, r in enumerate(per_slice))
    assert same(whole, np.concatenate([np.asarray(p) for p in parts]))


def matrices(h):
    return h.unfold()


@pytest.fixture
def rng():
    return np.random.default_rng(20261018)


@pytest.mark.parametrize("d", DIMS)
class TestKernelsMatchBatchOfOne:
    def test_spectrum(self, rng, d):
        s = pd_stack(rng, d)
        w, v = s._spectrum()
        for i, t in enumerate(tensors(s, d)):
            tw, tv = t._spectrum()
            assert same(w[i], tw) and same(v[i], tv)
        a, b = halves(s)
        assert same(w, np.concatenate([a._spectrum()[0], b._spectrum()[0]]))
        assert_sliced(s._eigenvalues(), [t._eigenvalues() for t in tensors(s, d)],
                      [h._eigenvalues() for h in (a, b)])

    def test_validation(self, rng, d):
        g = gaussian(rng, N, d, d)
        raw = g + g.conj().swapaxes(-1, -2) + 1e-12 * gaussian(rng, N, d, d)
        s = HermitianStack.from_matrices(raw)
        single = [tm.HermitianTensor.from_matrix(m, shape_of(d)).unfold() for m in raw]
        parts = [HermitianStack.from_matrices(raw[:SPLIT]).unfold(), HermitianStack.from_matrices(raw[SPLIT:]).unfold()]
        assert_sliced(s.unfold(), single, parts)

    @pytest.mark.parametrize("p", [0.25, 2.0, 4.0])
    def test_spectral_power_and_exp(self, rng, d, p):
        s = pd_stack(rng, d)
        for kernel in (lambda h: tm.spectral_power(h, p), tm.tensor_exp, tm.tensor_log):
            parts = [matrices(kernel(h)) for h in halves(s)]
            assert_sliced(matrices(kernel(s)), [matrices(kernel(t)) for t in tensors(s, d)], parts)

    @pytest.mark.parametrize("fid", ["geometric", "harmonic_like", "power:-0.5", "square"])
    def test_mean_pd(self, rng, d, fid):
        g = tm.from_id(fid)
        x, y = pd_stack(rng, d), pd_stack(rng, d)
        single = [matrices(tm.mean_pd(a, b, g)) for a, b in zip(tensors(x, d), tensors(y, d))]
        parts = [matrices(tm.mean_pd(a, b, g)) for a, b in zip(halves(x), halves(y))]
        assert_sliced(matrices(tm.mean_pd(x, y, g)), single, parts)

    def test_eta_groups_by_kept_count(self, rng, d):
        ranks = [d, max(1, d - 1), d, max(1, d // 2), max(1, d - 1)]
        y = psd_stack(rng, d, ranks)
        w = HermitianStack.from_matrices(pd_stack(rng, d).unfold())
        root = _psd_root(y)
        x = HermitianStack._trusted(tm.core._symmetrize(root @ w.unfold() @ root))
        res = tm.eta(x, y)
        single = [tm.eta(a, b) for a, b in zip(tensors(x, d), tensors(y, d))]
        split = [tm.eta(a, b) for a, b in zip(halves(x), halves(y))]
        assert_sliced(matrices(res.eta), [matrices(r.eta) for r in single], [matrices(r.eta) for r in split])
        assert_sliced(res.domination_constant, [r.domination_constant for r in single],
                      [r.domination_constant for r in split])
        assert same(res.range_ok, [r.range_ok for r in single])
        mean = tm.mean_psd(x, y, tm.geometric())
        assert_sliced(matrices(mean), [matrices(tm.mean_psd(a, b, tm.geometric()))
                                       for a, b in zip(tensors(x, d), tensors(y, d))],
                      [matrices(tm.mean_psd(a, b, tm.geometric())) for a, b in zip(halves(x), halves(y))])

    def test_scalar_kernels(self, rng, d):
        x, y = pd_stack(rng, d), pd_stack(rng, d)
        f = tm.harmonic_like()
        for kernel in (
            lambda a, b: loewner_extremes(a, b, 1e-8),
            lambda a, b: _ratio_extremes(a, f, 2.0),
            lambda a, b: (tm.gauge_norm(a, tm.FROBENIUS), tm.gauge_norm(a, tm.TRACE), tm.gauge_norm(a, tm.SPECTRAL)),
            lambda a, b: tm.psi_factors(2.0, f, a, b),
            lambda a, b: tm.prop310_factors(a, 2.0),
        ):
            whole = kernel(x, y)
            single = [kernel(a, b) for a, b in zip(tensors(x, d), tensors(y, d))]
            split = [kernel(a, b) for a, b in zip(halves(x), halves(y))]
            for j, column in enumerate(whole):
                assert_sliced(column, [s[j] for s in single], [s[j] for s in split])

    def test_kk_and_tail_statistics(self, rng, d):
        x = pd_stack(rng, d)
        g = tm.ando_hiai_g(tm.power(0.5), 2)
        kk = _kk_lists(x, g, 3, 2.0)
        assert kk.shape == (N, 3)
        assert_sliced(kk, [tm.kk_factors(t, g, 3, 2.0).kk_list for t in tensors(x, d)],
                      [_kk_lists(h, g, 3, 2.0) for h in halves(x)])
        traces = harness._power_trace(x, 2.0)
        assert_sliced(traces, [harness._power_trace(t, 2.0) for t in tensors(x, d)],
                      [harness._power_trace(h, 2.0) for h in halves(x)])
        # Tr(z**q) / c is Tr(z**q (c I)^-1) bit for bit at a power-of-two c.
        bound = tm.trace_tail_bound(tensors(x, d), 2.0, 0.5 * tm.HermitianTensor.identity(shape_of(d)))
        assert bound == tm.bounds._tail_summary((traces / 0.5).tolist())

    def test_maps(self, rng, d):
        x = pd_stack(rng, d)
        k = gaussian(rng, N, d, d)
        single = [matrices(tm.apply_map(tm.congruence(k[i], shape_of(d)), t)) for i, t in enumerate(tensors(x, d))]
        split = [matrices(_congruence(k[:SPLIT], halves(x)[0])), matrices(_congruence(k[SPLIT:], halves(x)[1]))]
        assert_sliced(matrices(_congruence(k, x)), single, split)
        pinch = tm.pinching((tuple(range(d // 2)), tuple(range(d // 2, d))), shape_of(d))
        mix = tm.convex_combination([pinch, tm.congruence(k[0], shape_of(d))], [0.25, 0.75])
        for lmap in (pinch, mix):
            assert_sliced(matrices(tm.apply_map(lmap, x)), [matrices(tm.apply_map(lmap, t)) for t in tensors(x, d)],
                          [matrices(tm.apply_map(lmap, h)) for h in halves(x)])

    @pytest.mark.parametrize("kind", ["wishart", "spectrum", "rank_deficient"])
    def test_draws(self, d, kind):
        spec = EnsembleSpec(shape_of(d), kind, seed=77, dof=2 * d, m=0.25, M=2.0, rank=max(1, d - 1))
        whole = _draw(spec, range(N), role=5)
        single = [sample(spec, t, 5).unfold() for t in range(N)]
        split = [_draw(spec, range(SPLIT), 5).unfold(), _draw(spec, range(SPLIT, N), 5).unfold()]
        assert_sliced(whole.unfold(), single, split)


@pytest.mark.parametrize("d", DIMS)
def test_tail_rule_matches_loewner_extremes(rng, d):
    tol = 1e-8
    cfg = ExperimentConfig(tolerance=tol)
    # Multiples of I on and around the thresholds, past them by less and by
    # more than the tolerance.
    scalars = np.array([0.25, 0.5, 1.0, 1.0 + 5e-9, 2.0, 2.0 * (1.0 + 1e-7), 3.0])
    multiples = HermitianStack._trusted(scalars[:, None, None] * np.eye(d, dtype=complex))
    ident = tm.HermitianTensor.identity(shape_of(d))
    x = pd_stack(rng, d, n=40)
    spread = x * (rng.uniform(0.3, 3.0, size=40) / x._eigenvalues()[:, -1])  # lambda_max across the sweep
    for events in (spread, multiples):
        held, _ = harness._tail_columns(cfg, [(events._eigenvalues(), np.zeros(len(events.unfold())))])
        # The reference: the Loewner verdict against each threshold tensor c I.
        reference = np.stack([loewner_extremes(events, c * ident, tol)[2] for c in harness.C_SWEEP], axis=-1)
        assert same(held[:, 0], reference)
        assert reference.any() and not reference.all()
    # T9 passes its floors c' I as the one-eigenvalue spectra [c'].
    held, _ = harness._tail_columns(cfg, [(scalars[:, None], np.zeros(len(scalars)))])
    assert same(held[:, 0], reference)


def test_chunks_respect_the_stack_budget():
    for shape, trials in (((2, 2), 200), ((4, 4), 70), ((8, 8), 10), ((1,), 3)):
        cfg = ExperimentConfig(trials=trials, shape=shape)
        d = int(np.prod(shape))
        chunks = _chunks(cfg)
        assert [t for c in chunks for t in c] == list(range(trials))
        assert all(len(c) * 16 * d * d <= max(harness.STACK_BYTES, 16 * d * d) for c in chunks)
    assert len(_chunks(ExperimentConfig(trials=70, shape=(4, 4)))) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_arithmetic_overflow_raises_without_warning():
    s = HermitianStack._trusted(np.stack([np.diag([1e308, 1.0]), np.eye(2)]).astype(complex))
    with pytest.raises(ValueError, match="finite"):
        s + s
    with pytest.raises(ValueError, match="finite"):
        s - (-1.0) * s
    with pytest.raises(ValueError, match="finite"):
        s * np.array([1e308, 1.0])


class TestEigenCallCounts:
    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"n": 0}
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, **kwargs):
                calls["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_all_suite_decompositions_do_not_grow_with_trials(self, counts):
        made = []
        for trials in (3, 6):
            before = counts["n"]
            cfg = ExperimentConfig(trials=trials)
            for sid in SuiteId:
                run_suite(sid, cfg)
            made.append(counts["n"] - before)
        assert made[0] == made[1], made
