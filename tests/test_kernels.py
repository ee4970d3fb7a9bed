"""Stacked kernels against their batch of one.

Every numerical body runs over ``(..., D, D)`` stacks, and the per-tensor
API is the same kernel applied to a single matrix.  A kernel applied to a
stack must give, bit for bit, what it gives on each slice alone, and on a
stack split at a trial-chunk boundary.
"""

from functools import partial

import numpy as np
import pytest

import tmlab as tm
from tmlab import harness
from tmlab.bounds import _kk_lists, _kyfan_profile, _ratio_extremes
from tmlab.core import (
    PSD_RTOL,
    HermitianStack,
    _certified,
    _gate,
    _gate_pd,
    _gate_psd,
    _loewner_gap,
    _scale_bracket,
    loewner_extremes,
)
from tmlab.data_processing import _congruence
from tmlab.harness import EnsembleSpec, ExperimentConfig, SuiteId, _chunks, _draw, run_suite, sample
from tmlab.means import _powered_mean, _psd_root, _quotient_levels

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


def _level_and_mask(x, y, k):
    """Level k's quotient spectra of the pair and x's live mask."""
    levels, live = _quotient_levels(x, y, k)
    return levels[k], live


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
        # mean_pd, and the powered means with the values cache they seed
        # from their factor.
        g = tm.from_id(fid)
        x, y = pd_stack(rng, d), pd_stack(rng, d)
        kernels = [partial(tm.mean_pd, g=g)] + [partial(_powered_mean, g=g, q=q) for q in (0.25, 2.0, 9.0)]
        for kernel in kernels:
            whole = kernel(x, y)
            single = [kernel(a, b) for a, b in zip(tensors(x, d), tensors(y, d))]
            parts = [kernel(a, b) for a, b in zip(halves(x), halves(y))]
            for read in (matrices, lambda h: h._eigenvalues()):
                assert_sliced(read(whole), [read(h) for h in single], [read(h) for h in parts])

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
            lambda a, b: _ratio_extremes(*_level_and_mask(a, b, 1), f, 2.0),
            lambda a, b: (tm.gauge_norm(a, tm.FROBENIUS), tm.gauge_norm(a, tm.TRACE), tm.gauge_norm(a, tm.SPECTRAL)),
            lambda a, b: tm.psi_factors(2.0, f, a, b),
            lambda a, b: tm.psi_factors(9.0, f, a, b),
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

    def test_kyfan_profile(self, rng, d):
        # On signed spectra only the sums and products (kyfan_stats's rows)
        # are compared: the log row is NaN where an eigenvalue is negative.
        g = gaussian(rng, N, d, d)
        for s, rows in ((pd_stack(rng, d), slice(None)),
                        (HermitianStack.from_matrices(g + g.conj().swapaxes(-1, -2)), slice(0, 2))):
            assert_sliced(_kyfan_profile(s)[..., rows, :], [_kyfan_profile(t)[rows] for t in tensors(s, d)],
                          [_kyfan_profile(h)[:, rows] for h in halves(s)])

    def test_convergence_study(self, rng, d):
        x, y = (0.3 * h for h in (pd_stack(rng, d), pd_stack(rng, d)))
        grid = (0.5, 0.125, 2.0**-6)
        whole = tm.convergence_study(x, y, tm.geometric(), grid)
        single = [tm.convergence_study(a, b, tm.geometric(), grid) for a, b in zip(tensors(x, d), tensors(y, d))]
        split = [tm.convergence_study(a, b, tm.geometric(), grid) for a, b in zip(halves(x), halves(y))]
        assert isinstance(single[0].monotone, bool) and isinstance(single[0].final_relative_error, float)
        for read in (lambda st: st.distances[-1], lambda st: st.monotone, lambda st: st.final_relative_error):
            assert_sliced(read(whole), [read(st) for st in single], [read(st) for st in split])

    @pytest.mark.parametrize("mode", ["joint", "right"])
    def test_epsilon_mean_limit(self, rng, d, mode):
        y = psd_stack(rng, d, [d, max(1, d - 1), d, max(1, d // 2), max(1, d - 1)])
        root = _psd_root(y)
        x = HermitianStack._trusted(tm.core._symmetrize(root @ pd_stack(rng, d).unfold() @ root))
        grid = (1e-2, 1e-5, 1e-8)

        def kernel(a, b):
            return tm.epsilon_mean_limit(a, b, tm.geometric(), grid, mode=mode)

        whole = kernel(x, y)
        single = [kernel(a, b) for a, b in zip(tensors(x, d), tensors(y, d))]
        split = [kernel(a, b) for a, b in zip(halves(x), halves(y))]
        assert isinstance(single[0][1].converged, bool) and isinstance(single[0][1].errors[-1], float)
        for read in (lambda r: matrices(r[0]), lambda r: r[1].errors[0], lambda r: r[1].errors[-1],
                     lambda r: r[1].converged):
            assert_sliced(read(whole), [read(r) for r in single], [read(r) for r in split])

    @pytest.mark.parametrize("kind", ["wishart", "spectrum", "rank_deficient"])
    def test_draws(self, d, kind):
        spec = EnsembleSpec(shape_of(d), kind, seed=77, dof=2 * d, m=0.25, M=2.0, rank=max(1, d - 1))
        whole = _draw(spec, range(N), role=5)
        single = [sample(spec, t, 5).unfold() for t in range(N)]
        split = [_draw(spec, range(SPLIT), 5).unfold(), _draw(spec, range(SPLIT, N), 5).unfold()]
        assert_sliced(whole.unfold(), single, split)


@pytest.mark.parametrize("d", DIMS)
def test_tail_rule_matches_loewner_extremes(rng, d):
    tol, n = 1e-8, 40
    cfg = ExperimentConfig(tolerance=tol)

    def times_identity(c):
        return HermitianStack._trusted(c[:, None, None] * np.eye(d, dtype=complex))

    # Multiples of I on and around the thresholds, past them by less and by
    # more than the tolerance.
    scalars = np.array([0.25, 0.5, 1.0, 1.0 + 5e-9, 2.0, 2.0 * (1.0 + 1e-7), 3.0])
    ident = tm.HermitianTensor.identity(shape_of(d))
    x = pd_stack(rng, d, n)
    spread = x * (rng.uniform(0.3, 3.0, size=n) / x._eigenvalues()[:, -1])  # lambda_max across the sweep
    for events in (spread, times_identity(scalars)):
        held, _ = harness._tail_columns(cfg, [(events, np.zeros(len(events.unfold())))])
        # The reference: the Loewner verdict against each threshold tensor c I.
        reference = np.stack([loewner_extremes(events, c * ident, tol)[2] for c in harness.C_SWEEP], axis=-1)
        assert same(held[:, 0], reference)
        assert reference.any() and not reference.all()
    # T9 passes its floors c' I as the numbers c'.
    held, _ = harness._tail_columns(cfg, [(scalars, np.zeros(len(scalars)))])
    assert same(held[:, 0], reference)

    # The excess behind the rule, _excess(lhs, rhs) <= tol, against the leq
    # of loewner_extremes(lhs, rhs, tol): a stack against a stack, against a
    # cap c I and from a floor c I.  Each pair sits a few ulps of the scale
    # either side of equality, or past it by half or 1.5 times the tolerance.
    # Half the stack is PD with lambda_max in [2, 4], half is shifted down to
    # lambda_max = 0, so the scale of a cap or a floor differs from the
    # stack's, and a rule that scales by one side only fails here.
    x = x * (rng.uniform(2.0, 4.0, size=n) / x._eigenvalues()[:, -1])
    z = x - times_identity(x._eigenvalues()[:, -1] * (np.arange(n) % 2))
    w = z._eigenvalues()
    scale = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    eps = np.finfo(float).eps
    rel = np.resize(np.concatenate([np.array([-4, -1, 0, 1, 4]) * eps, np.array([-1.5, -0.5, 0.5, 1.5]) * tol]), n)
    cap, floor, shifted = w[:, -1] - rel * scale, w[:, 0] + rel * scale, z - times_identity(rel * scale)
    for lhs, rhs, reference in (
        (z, shifted, loewner_extremes(z, shifted, tol)[2]),
        (z, cap, loewner_extremes(z, times_identity(cap), tol)[2]),
        (floor, z, loewner_extremes(times_identity(floor), z, tol)[2]),
    ):
        assert same(harness._excess(lhs, rhs) <= tol, reference)
        assert reference.any() and not reference.all()


def _difference_at(rng, lhs, lam_min):
    """``lhs + A`` for a Hermitian ``A`` with ``lambda_min(A) = lam_min`` per
    matrix and the rest of its spectrum in [0.5, 1]."""
    n, d = lhs.unfold().shape[:2]
    q = np.linalg.qr(gaussian(rng, n, d, d))[0]
    mu = np.concatenate([lam_min[:, None], rng.uniform(0.5, 1.0, size=(n, d - 1))], axis=1)
    return HermitianStack.from_matrices(lhs.unfold() + (q * mu[:, None, :]) @ q.conj().swapaxes(-1, -2))


def _margin(lhs, rhs):
    """The certificate's stated margin ``4 D**2 eps (|lhs|_F + |rhs|_F)``."""
    d = lhs.unfold().shape[-1]
    norms = [np.linalg.norm(s.unfold(), axis=(-2, -1)) for s in (lhs, rhs)]
    return 4.0 * d * d * np.finfo(float).eps * (norms[0] + norms[1])


def _gap_excess(lhs, rhs):
    _, top = tm.core._loewner_gap(lhs, rhs)
    scale = np.maximum(np.maximum(tm.core._spectral_scale(lhs), tm.core._spectral_scale(rhs)), 1.0)
    return top / scale


@pytest.mark.parametrize("d", [1, 4, 64])
def test_cholesky_certificate_boundary(rng, d):
    # Stacks whose lambda_min(rhs - lhs) sits at -2, -1/2, 1/2 and 2 times the
    # margin delta: only the last is certified, and a certified stack's
    # excess is max(0, the gap's excess) = 0.  Any other stack, including a
    # certified one with one failing matrix appended, gets the gap's values.
    n = 6
    lhs = HermitianStack.from_matrices(pd_stack(rng, d, n).unfold() + np.eye(d))
    stacks = {}
    for k in (-2.0, -0.5, 0.5, 2.0):
        delta = _margin(lhs, _difference_at(rng, lhs, np.zeros(n)))
        rhs = _difference_at(rng, lhs, k * delta)
        ratio = np.linalg.eigvalsh(rhs.unfold() - lhs.unfold())[:, 0] / _margin(lhs, rhs)
        assert np.all(np.abs(ratio - k) <= 0.25 * abs(k)), (k, ratio)
        stacks[k] = rhs
        certified = _certified(lhs, rhs)
        assert certified == (k == 2.0), k
        excess = _gap_excess(lhs, rhs)
        if certified:
            assert np.all(excess <= 0.0)
            assert same(harness._excess(lhs, rhs), np.maximum(0.0, excess))
        else:
            assert same(harness._excess(lhs, rhs), excess)
    for k in (-0.5, 0.5):
        mixed = HermitianStack._trusted(np.concatenate([stacks[2.0].unfold(), stacks[k].unfold()[:1]]))
        both = HermitianStack._trusted(np.concatenate([lhs.unfold(), lhs.unfold()[:1]]))
        assert not _certified(both, mixed)
        assert same(harness._excess(both, mixed), _gap_excess(both, mixed))


def _spectrum_at(rng, d, lam_min, rest=(0.5, 1.0)):
    """Fresh validated stack of ``q diag(mu) q^H`` with ``lambda_min =
    lam_min`` per matrix and the rest of ``mu`` uniform in ``rest``
    (``q = 1`` at D = 1, so that the one entry is ``lam_min`` exactly)."""
    n = len(lam_min)
    q = np.linalg.qr(gaussian(rng, n, d, d))[0] if d > 1 else np.ones((n, 1, 1))
    mu = np.concatenate([lam_min[:, None], rng.uniform(*rest, size=(n, d - 1))], axis=1)
    return HermitianStack.from_matrices((q * mu[:, None, :]) @ q.conj().swapaxes(-1, -2))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The shapes of the stacks handed to ``np.linalg.eigvalsh``."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _outcome(fn):
    """None when ``fn()`` passes, else the type and text of what it raises."""
    try:
        fn()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("d", [1, 4, 64])
@pytest.mark.parametrize("psd", [False, True], ids=["pd", "psd"])
def test_cholesky_certificate_boundary_gates(rng, eigvalsh_calls, d, psd):
    # Fresh stacks whose lambda_min sits at -2, -1/2, 1/2 and 2 times the
    # margin delta = 4 D**2 eps (|c I|_F + |x|_F) above the gate's threshold
    # c (0 for PD, -PSD_RTOL for PSD): only the last is certified, that is
    # gated without an eigenvalue read.  Every verdict and message is the
    # eigenvalue rule's on the same matrices.
    n = 4
    floor = -PSD_RTOL if psd else 0.0
    rule = _gate_psd if psd else _gate_pd
    if d == 1 and not psd:
        # One entry, to which the margin is relative: the boundary is its sign,
        # down to where its square underflows (1e-300), which certifies nothing.
        cases = [(np.full(n, v), v == 1e-100, None) for v in (-1e-100, 0.0, 1e-100, 1e-300)]
    else:
        ref = _spectrum_at(rng, d, np.full(n, floor))
        delta = 4.0 * d * d * np.finfo(float).eps * (-floor * np.sqrt(d) + np.linalg.norm(ref.unfold(), axis=(-2, -1)))
        cases = [(floor + k * delta, k == 2.0, (k, delta)) for k in (-2.0, -0.5, 0.5, 2.0)]
    for lam, certified, at in cases:
        x = _spectrum_at(rng, d, lam)
        ev = np.linalg.eigvalsh(x.unfold().copy())
        if at is not None:
            k, delta = at
            assert np.all(np.abs((ev[:, 0] - floor) / delta - k) <= 0.25 * abs(k)), (k, ev[:, 0])
        expected = _outcome(lambda: rule(ev, "x"))
        eigvalsh_calls.clear()
        assert _outcome(lambda: _gate(x, "x", psd)) == expected
        assert (not eigvalsh_calls) == certified, (lam, eigvalsh_calls)
        assert (expected is None) == bool(np.all(ev[:, 0] > floor if not psd else ev[:, 0] >= floor))


@pytest.mark.parametrize("d", [1, 4, 64])
def test_cholesky_certificate_boundary_bracket(rng, eigvalsh_calls, d):
    # The bracket of max|lambda| holds the value the eigenvalues give
    # strictly, even where an unwidened bound would touch it: max|diag| of a
    # diagonal matrix and |h|_F of a rank-one matrix are both |h|_2.
    n = 4
    vals = rng.uniform(2.0, 3.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    g = gaussian(rng, n, 1, d)
    for h in (HermitianStack.from_matrices(vals[:, :, None] * np.eye(d)),
              HermitianStack.from_matrices(3.0 * g.conj().swapaxes(-1, -2) @ g / np.linalg.norm(g, axis=(-2, -1))[:, None, None] ** 2)):
        scale = np.abs(np.linalg.eigvalsh(h.unfold())).max(axis=-1)
        lo, hi = _scale_bracket(h)
        assert np.all(lo < scale) and np.all(scale < hi)
    # Pairs with lambda_min(y - x) = t below, inside and above the bracket
    # [lo, hi] of the scale, at a tolerance wide enough to place t: a pair the
    # two ends decide alike reads no value of either side, and every result
    # is the eigenvalue rule's.
    tol = 1e-3
    seen = set()
    for _ in range(3):
        x = _spectrum_at(rng, d, np.full(1, 1.5), rest=(0.5, 2.0))
        lo, hi = (max(1.0, *bound) for bound in _scale_bracket(x))
        for t in (-0.5 * tol * lo, -0.5 * tol * (lo + hi), -2.0 * tol * hi, 0.5 * tol):
            a = _spectrum_at(rng, d, np.full(1, t), rest=(0.0, 0.25 * tol))
            y = HermitianStack.from_matrices(x.unfold() + a.unfold())
            ev = np.linalg.eigvalsh(y.unfold() - x.unfold())[0]
            ends = {(bool(ev[0] >= -tol * s), bool(ev[-1] <= tol * s))
                    for s in (max(1.0, *bounds) for bounds in zip(_scale_bracket(x), _scale_bracket(y)))}
            fresh = [HermitianStack._trusted(s.unfold().copy()) for s in (y, x)]
            lam_min, lam_max = _loewner_gap(*fresh)
            scale = max(1.0, *(np.abs(np.linalg.eigvalsh(s.unfold())).max() for s in fresh))
            want = (lam_min, lam_max, lam_min >= -tol * scale, lam_max <= tol * scale)
            eigvalsh_calls.clear()
            assert all(same(g, w) for g, w in zip(loewner_extremes(x, y, tol), want))
            decided = len(ends) == 1
            assert len(eigvalsh_calls) == (1 if decided else 3)
            seen.add(decided)
    # At D = 1 the bracket is the one entry's magnitude widened by 4 eps.
    assert True in seen and (d == 1 or False in seen)


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
        for name in ("eigh", "eigvalsh", "svd"):
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
