"""The graded kernels and the means against the mpmath references of ``oracle.py``.

The dyadic quotient levels and the powered mean are read from the cached
eigenpairs of their operands, never from a formed power.  These tests bound
their relative forward error at quotient condition numbers far above
``1 / eps``, where a formed and re-decomposed power loses every digit of
the small eigenvalues.  The bounds sit 20 to 50 times above the largest
errors measured on these draws (numpy's SVD is LAPACK ``gesdd``, so the
graded accuracy is measured, not proved):

- levels up to a quotient condition of 4e30: 2.4e-10 relative;
- powered-mean eigenvalues on C3, C4 and T8's own q = 16 draws (condition
  up to 3e34): 2.1e-8 relative, where ``eigvalsh`` of the formed mean is
  off by up to 4e17 relative; the mean's matrix: 1.7e-12 normwise.

T2's final relative error of the Lie–Trotter expression at ``q = 2**-8``
is itself rounding noise magnified by the ``1/q = 256`` power; it is
checked against the reference to 1e-5 relative.

The means form their congruence quotient in y's eigenbasis.  On T63's
regularized pairs ``(x + 1e-8 I, y + 1e-8 I)``, where ``cond(y) ~ 1e8``,
``mean_pd`` is within 2e-14 normwise (1.6e-15 measured; a formed
``y^{-1/2}`` gave 2e-13 to 9e-13), so T63's final relative error, about
1e-8, is within 2e-6 relative of the reference (3e-7 measured).  On
rank-deficient dominated pairs, ``eta``, its seeded eigenvalues, the
domination constant and ``mean_psd`` are within 2e-13 normwise (4.9e-15
measured).

A mean of a positive generator reads its eigenvalues from its graded
factor.  The bottom eigenvalue of C1's lifted premise mean at m = 12
(condition up to 3e18 at D = 9) is within 1e-12 relative (3.5e-14
measured), where ``eigvalsh`` of the formed mean is off by up to 44 times.

Its eigenvectors come from the same factor, by one SVD with vectors.  At
a non-integer ``1/q`` T3 maps them: on its four draws at m = 24, q = 0.46
and shape (3, 3) whose powered means are the most ill-conditioned
(condition 5e16 to 3e19), every eigenvalue of the q-th root is within
5e-12 relative of a 50-digit reference (9.8e-14 measured) and the root
within 2e-12 normwise (6.5e-14 measured).  The bottom eigenvalue of
``eigh`` of the formed mean is off by up to 490 times there.

An integer power ``spectral_power(h, n)`` is a product of repeated
squarings.  At n = 2, 3, 6 and 256, on a PD and an indefinite h at D = 4
and 16 with spectra in [-1, 1], it is within ``n D eps`` relative
Frobenius distance of mpmath's 50-digit matrix power; the largest error
measured over 40 such draws was 0.088 ``n D eps``.

T1's Kantorovich factors ``K_k`` on its premise draws at m = 2, 3 and 12
are within 1e-12 relative of a 50-digit evaluation of the ratio extremes
and of ``K(m, M, 2q)`` on the same float64 spectra (1.2e-15 measured).
``kantorovich`` itself is within 64 eps relative of its 60-digit closed
form on both of its branches, the near-degenerate ``expm1`` one included
(4.0e-15 measured).
"""

import numpy as np
import pytest

pytest.importorskip("mpmath")

import oracle  # noqa: E402
import tmlab as tm  # noqa: E402
from tmlab import harness  # noqa: E402
from tmlab.functions import derivative_at_one  # noqa: E402
from tmlab.means import _quotient_levels  # noqa: E402

from conftest import rand_pd, rand_psd_rank  # noqa: E402


def conditioned(rng, d, cond):
    """A PD tensor with eigenvalues log-spaced from 1 down to ``1 / cond``
    in a random unitary basis."""
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    lam = np.logspace(0.0, -np.log10(cond), d)
    return tm.HermitianTensor.from_matrix((u * lam) @ u.conj().T, (d,))


def relative(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("trial", range(3))
def test_level_spectra_match_oracle(trial):
    # cond(x) = cond(y) = 100 puts level k's quotient near 100**(2**(k+1)):
    # about 1e3, 1e6, 1e14 and 1e30 for k = 0 .. 3.
    rng = np.random.default_rng([20261018, trial])
    x, y = conditioned(rng, 4, 100.0), conditioned(rng, 4, 100.0)
    levels, live = _quotient_levels(x, y, 3)
    assert live.all()
    for k, lam in enumerate(levels):
        want = oracle.level_spectrum(x.unfold(), y.unfold(), 2.0 ** (k - 1))
        assert relative(lam, want) <= 1e-8, (k, want[-1] / want[0])
    assert want[-1] / want[0] > 1e29


def test_psi_factors_at_level_three_match_oracle():
    # psi_factors(9) = ratio extremes of level 3 at exponent 9/8 times those
    # of levels 0 .. 2 at exponent 2.
    rng = np.random.default_rng([20261018, 7])
    x, y = conditioned(rng, 4, 100.0), conditioned(rng, 4, 100.0)
    f = tm.harmonic_like()
    lower, upper = 1.0, 1.0
    for k, a in ((0, 2.0), (1, 2.0), (2, 2.0), (3, 9.0 / 8.0)):
        z = oracle.level_spectrum(x.unfold(), y.unfold(), 2.0 ** (k - 1))
        ratios = f.fn(z**a) / f.fn(z) ** a
        lower, upper = lower * ratios.min(), upper * ratios.max()
    got = tm.psi_factors(9.0, f, x, y)
    assert relative(np.array(got), np.array([lower, upper])) <= 1e-8


@pytest.mark.parametrize("suite", ["C3_MajorizationTMD", "C4_MajorizationTC", "T8_Phi"])
def test_powered_mean_matches_oracle_on_suite_draws(monkeypatch, suite):
    calls = []
    real = harness._powered_mean

    def spy(x, y, g, q):
        out = real(x, y, g, q)
        calls.append((x, y, g, q, out))
        return out

    monkeypatch.setattr(harness, "_powered_mean", spy)
    harness.run_suite(suite, harness.ExperimentConfig(trials=2, exponents={"q": 16.0}))
    assert calls
    formed_error = 0.0
    for x, y, g, q, mean in calls:
        for i in range(len(mean.unfold())):
            want, want_ev = oracle.powered_mean(x.unfold()[i], y.unfold()[i], g.label, q)
            got = mean.unfold()[i]
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            assert relative(mean._eigenvalues()[i], want_ev) <= 1e-6, want_ev[-1] / want_ev[0]
            formed_error = max(formed_error, relative(np.linalg.eigvalsh(got), want_ev))
    # Not vacuous: eigvalsh of the formed mean misses the small eigenvalues.
    assert formed_error > 1.0


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_lifted_premise_mean_bottom_eigenvalue_matches_oracle(monkeypatch, shape):
    # C1's geq premise divides the pair by the bottom eigenvalue of
    # mean_pd(x, y, x**12 f), read from the mean's graded factor.
    calls = []
    real = harness.mean_pd

    def spy(x, y, g):
        out = real(x, y, g)
        calls.append((x, y, g, out))
        return out

    monkeypatch.setattr(harness, "mean_pd", spy)
    harness.run_suite("C1_AndoHiaiDual", harness.ExperimentConfig(trials=4, shape=shape, exponents={"m": 12}))
    ((x, y, g, mean),) = calls
    formed_error = 0.0
    for i in range(4):
        want = oracle.mean_spectrum(x.unfold()[i], y.unfold()[i], g.label)[0]
        assert relative(mean._eigenvalues()[i, 0], want) <= 1e-12
        formed_error = max(formed_error, relative(np.linalg.eigvalsh(mean.unfold()[i])[0], want))
    # Not vacuous: eigvalsh of the formed mean misses the bottom eigenvalue.
    assert formed_error > 1e-6


def test_powered_mean_at_q_32_matches_oracle_where_worst_conditioned(monkeypatch):
    # C3's Ky Fan gate needs its powered means of q = 32 PD.  On the four
    # default draws whose read spectra are the most ill-conditioned
    # (condition 3e51 to 7e52), every eigenvalue read from the graded factor
    # is within 5e-2 relative (2.4e-3 measured).  An SVD of the same factor
    # in its natural column order was off by up to 1.8e12 relative here, and
    # read an exact 0 on another draw.
    calls = []
    real = harness._powered_mean

    def spy(x, y, g, q):
        out = real(x, y, g, q)
        calls.append((x, y, g, q, out))
        return out

    monkeypatch.setattr(harness, "_powered_mean", spy)
    harness.run_suite("C3_MajorizationTMD", harness.ExperimentConfig(exponents={"q": 32.0}))
    ((x, y, g, q, mean),) = calls
    ev = mean._eigenvalues()
    for i in np.argsort(ev[:, 0] / ev[:, -1])[:4]:
        _, want = oracle.powered_mean(x.unfold()[i], y.unfold()[i], g.label, q)
        assert want[-1] / want[0] > 1e51
        assert relative(ev[i], want) <= 5e-2, i


def test_t3_root_at_m_24_matches_oracle_where_worst_conditioned(monkeypatch):
    calls = []
    real = harness._ordering_sides

    def spy(x, y, lifted, w, q):
        out = real(x, y, lifted, w, q)
        calls.append((x, y, lifted, q, out))
        return out

    monkeypatch.setattr(harness, "_ordering_sides", spy)
    cfg = harness.ExperimentConfig(trials=20, shape=(3, 3), exponents={"m": 24, "q": 0.46}, seed=1)
    harness.run_suite("T3_LieTrotterTail", cfg)
    ((x, y, lifted, q, (_, mean, root)),) = calls
    ev = mean._eigenvalues()
    formed_error = 0.0
    for i in np.argsort(ev[:, 0] / ev[:, -1])[:4]:
        want, want_ev = oracle.powered_root(x.unfold()[i], y.unfold()[i], lifted.label, q)
        assert relative(root._eigenvalues()[i], want_ev) <= 5e-12, i
        assert np.linalg.norm(root.unfold()[i] - want) <= 2e-12 * np.linalg.norm(want), i
        formed = np.maximum(np.linalg.eigvalsh(mean.unfold()[i]), 0.0) ** (1.0 / q)
        formed_error = max(formed_error, relative(formed[0], want_ev[0]))
    # Not vacuous: eigh of the formed mean misses the root's bottom eigenvalue.
    assert formed_error > 1.0


def test_t2_final_error_matches_oracle(monkeypatch):
    calls = []
    real = harness.convergence_study

    def spy(x, y, g):
        out = real(x, y, g)
        calls.append((x, y, g, out.q_grid, out.final_relative_error))
        return out

    monkeypatch.setattr(harness, "convergence_study", spy)
    harness.run_suite("T2_LieTrotterLimit", harness.ExperimentConfig(trials=6))
    ((x, y, g, q_grid, final),) = calls
    assert q_grid[-1] == 2.0**-8 and x.unfold().shape == (6, 4, 4)
    for i in range(6):
        want = oracle.lt_final_error(x.unfold()[i], y.unfold()[i], g.label, q_grid[-1], derivative_at_one(g))
        assert abs(final[i] - want) <= 1e-5 * want, (i, final[i], want)


@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize("kind", ["pd", "indefinite"])
def test_integer_power_matches_oracle(d, kind):
    rng = np.random.default_rng([20261019, d])
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    lam = rng.uniform(0.1, 1.0, d) if kind == "pd" else rng.uniform(-1.0, 1.0, d)
    h = tm.HermitianTensor.from_matrix((u * lam) @ u.conj().T, (d,))
    for n in (2, 3, 6, 256):
        want = oracle.integer_power(h.unfold(), n)
        err = np.linalg.norm(tm.spectral_power(h, n).unfold() - want) / np.linalg.norm(want)
        assert err <= n * d * np.finfo(float).eps, (n, err)


@pytest.fixture(scope="module")
def t63_draws():
    """T63's first 8 default D = 4 pairs ``(x, y)``, their regularized
    pairs at the last grid point ``eps = 1e-8`` (the float64 sums the suite
    forms), the generator, and the suite's limits and final relative
    errors."""
    calls = []
    real = harness.epsilon_mean_limit

    def spy(x, y, g):
        out = real(x, y, g)
        calls.append((x, y, g, out[1].epsilon_grid[-1], out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "epsilon_mean_limit", spy)
        harness.run_suite("T63_PsdLimit", harness.ExperimentConfig(trials=8))
    ((x, y, g, eps, (limit, diag)),) = calls
    assert x.unfold().shape == (8, 4, 4) and eps == 1e-8
    bump = x._derive(np.eye(4, dtype=complex) * eps)
    return x, y, x + bump, y + bump, g, limit, diag.errors[-1] / tm.gauge_norm(limit)


def test_t63_regularized_mean_pd_matches_oracle(t63_draws):
    _, _, xb, yb, g, _, _ = t63_draws
    got = tm.mean_pd(xb, yb, g).unfold()
    for i in range(8):
        want = oracle.mean_pd(xb.unfold()[i], yb.unfold()[i], g.label)
        assert np.linalg.norm(got[i] - want) <= 2e-14 * np.linalg.norm(want), i


def test_t63_final_error_matches_oracle(t63_draws):
    # The distance is taken between the two references rounded to
    # float64, which moves it by about 1e-16 / 1e-8 = 1e-8 relative.
    x, y, xb, yb, g, limit, final = t63_draws
    for i in range(8):
        _, _, want_limit = oracle.mean_psd(x.unfold()[i], y.unfold()[i], g.label)
        assert np.linalg.norm(limit.unfold()[i] - want_limit) <= 5e-14 * np.linalg.norm(want_limit), i
        approx = oracle.mean_pd(xb.unfold()[i], yb.unfold()[i], g.label)
        want = np.linalg.norm(approx - want_limit) / np.linalg.norm(want_limit)
        assert abs(final[i] - want) <= 2e-6 * want, (i, final[i], want)


@pytest.mark.parametrize("fid", ["geometric", "square", "harmonic_like"])
def test_eta_and_mean_psd_match_oracle_on_rank_deficient_pairs(fid):
    rng = np.random.default_rng([20261018, 14])
    for rank in (1, 2, 3, 1, 2, 3):
        y = rand_psd_rank(rng, rank)
        x = harness._dominate(y, rand_pd(rng))
        res = tm.eta(x, y)
        want_eta, want_ev, want_mean = oracle.mean_psd(x.unfold(), y.unfold(), fid)
        assert np.linalg.norm(res.eta.unfold() - want_eta) <= 2e-13 * np.linalg.norm(want_eta)
        assert abs(res.domination_constant - want_ev[-1]) <= 2e-13 * want_ev[-1]
        assert np.max(np.abs(res.eta._eigenvalues() - want_ev)) <= 2e-13 * want_ev[-1]
        mean = tm.mean_psd(x, y, tm.from_id(fid)).unfold()
        assert np.linalg.norm(mean - want_mean) <= 2e-13 * np.linalg.norm(want_mean)


@pytest.mark.parametrize("m", [2, 3, 12])
def test_kk_lists_match_oracle_on_t1_premise_draws(monkeypatch, m):
    # T1's bound is the product of the K_k of its premise x; each K_k is the
    # Kantorovich constant of the extremes of g(x)**(n-k) x^-1 at 2q.
    calls = []
    real = harness._kk_lists

    def spy(x, g, n, q, k_start=1):
        out = real(x, g, n, q, k_start)
        calls.append((x, g, n, q, k_start, out))
        return out

    monkeypatch.setattr(harness, "_kk_lists", spy)
    harness.run_suite("T1_AndoHiaiGeneralized", harness.ExperimentConfig(trials=4, shape=(2, 2), exponents={"m": m}))
    ((x, g, n, q, k_start, got),) = calls
    assert got.shape == (4, n - k_start + 1)
    # The default generator is power:0.5, so g is x**a for a = 1 / (m - 1/2).
    a = oracle.mp.mpf(1.0 / (m - 0.5))
    assert g(2.0) == 2.0 ** float(a)
    for i in range(4):
        want = oracle.kk_list(x._eigenvalues()[i], lambda t: t**a, n, q, k_start)
        assert relative(got[i], want) <= 1e-12
    # Not vacuous: the spectra are spread, so every K_k is above 1.
    assert (got > 1.0 + 1e-6).all()


_EDGE = 1.0 + 1.0 / 64.0  # where kantorovich switches to its expm1 branch
KANTOROVICH_RATIOS = [1 + 1e-13, 1 + 1e-10, 1 + 1e-7, 1 + 1e-4, 1 + 1 / 128, float(np.nextafter(_EDGE, 0.0)),
                      float(np.nextafter(_EDGE, 2.0)), 1.1, 2.0, 10.0, 1e3, 1e6, 1e12]


def test_kantorovich_matches_oracle_on_both_branches():
    """``K(m, M, p)`` against the closed form at 60 digits, with ``M = m * r``
    taken as exact, for ``M / m`` from 1 + 1e-13 to 1e12 (both sides of the
    ``expm1`` branch at ``M - m < m / 64``) and ``m`` from 1e-30 to 1e20.
    The worst relative error measured on this grid is 4.0e-15 on each
    branch (18 eps): on the ``expm1`` branch at p = 16, M / m = 1 + 1e-7,
    and on the closed form at p = -1, just above 1 + 1/64."""
    worst = {True: 0.0, False: 0.0}
    for p in (-3.0, -1.0, -0.5, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0):
        for r in KANTOROVICH_RATIOS:
            for m in (1e-30, 0.37, 1e20):
                big_m = m * r
                with oracle.mp.workdps(60):
                    want = oracle.kantorovich(*(oracle.mp.mpf(v) for v in (m, big_m, p)))
                    err = float(abs(oracle.mp.mpf(tm.kantorovich(m, big_m, p)) - want) / want)
                near = big_m - m < m / 64.0
                worst[near] = max(worst[near], err)
    assert max(worst.values()) <= 64 * np.finfo(float).eps, worst
    # Not vacuous: the grid reaches both branches, and rounds on each.
    assert min(worst.values()) > 0.0
