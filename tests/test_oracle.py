"""The graded kernels against the mpmath references of ``oracle.py``.

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
"""

import numpy as np
import pytest

pytest.importorskip("mpmath")

import oracle  # noqa: E402
import tmlab as tm  # noqa: E402
from tmlab import harness  # noqa: E402
from tmlab.functions import derivative_at_one  # noqa: E402
from tmlab.means import _quotient_levels  # noqa: E402


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


def test_t2_final_error_matches_oracle(monkeypatch):
    calls = []
    real = harness._study

    def spy(x, y, g, q_grid, norm):
        out = real(x, y, g, q_grid, norm)
        calls.append((x, y, g, q_grid, out[2]))
        return out

    monkeypatch.setattr(harness, "_study", spy)
    harness.run_suite("T2_LieTrotterLimit", harness.ExperimentConfig(trials=6))
    ((x, y, g, q_grid, final),) = calls
    assert q_grid[-1] == 2.0**-8 and x.unfold().shape == (6, 4, 4)
    for i in range(6):
        want = oracle.lt_final_error(x.unfold()[i], y.unfold()[i], g.label, q_grid[-1], derivative_at_one(g))
        assert abs(final[i] - want) <= 1e-5 * want, (i, final[i], want)
