"""Certified decisions against a reference that always decomposes.

``mean_pd``, ``mean_psd``, ``eta`` and ``loewner_compare`` answer their
yes/no spectral questions (the PD and PSD gates, eta's range test, the
Loewner verdict) by a Cholesky certificate or a bracket of the scale, and
read eigenvalues only when those leave the answer open.  The reference here
hands the same calls operands whose eigenvalues were read first, so every
gate, range test and verdict reads them, as the eigenvalue rules do.  On
near-singular, rank-deficient, threshold and indefinite Hermitian pairs at
D = 1..16, scaled from 1e-200 up to 1e200, and on the same operands born
again as means (with a graded factor, whose eigenvalues come from an SVD),
the library must give the same bits, or raise the same exception with the
same text.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tmlab as tm
from tmlab.core import PSD_RTOL

KINDS = ("near_singular", "rank_deficient", "psd_threshold", "indefinite")


def _matrix(rng, d, kind, scale):
    """``scale * q diag(lam) q^H`` for a Haar-like ``q`` and a spectrum of ``kind``."""
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    lam = rng.uniform(0.5, 2.0, size=d)
    if kind == "near_singular":
        lam[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-18.0, -12.0)
    elif kind == "rank_deficient":
        lam[: rng.integers(1, d + 1)] = 0.0
    elif kind == "psd_threshold":
        # Either side of the PSD gate's threshold -PSD_RTOL * max(1, |x|_sp).
        top = scale * lam[1:].max(initial=0.0)
        lam[0] = -PSD_RTOL * max(1.0, top) / scale * (1.0 + rng.uniform(-1e-6, 1e-6))
    else:
        lam = rng.uniform(-1.0, 2.0, size=d)
    return (q * (scale * lam)) @ q.conj().T


def _decomposed(t):
    """``t`` re-born with its ``eigvalsh`` values, which every decision then reads."""
    return tm.HermitianTensor._trusted(t.unfold().copy(), t.shape, values=np.linalg.eigvalsh(t.unfold()))


def _mean_born(t, scale):
    """``t`` born again as ``mean_psd(t, scale I, identity)``, with a graded
    factor; ``t`` itself when that mean raises (``t`` is not PSD)."""
    eye = tm.HermitianTensor(scale * np.eye(t.shape.square_dim), t.shape)
    try:
        return tm.mean_psd(t, eye, tm.identity())
    except ValueError:
        return t


def _read(t):
    """``t`` after its eigenvalues are read (and cached)."""
    t._eigenvalues()
    return t


def _outcome(fn):
    """The bits of what ``fn()`` returns, or the type and text of what it raises."""
    try:
        out = fn()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(out, tm.HermitianTensor):
        return out.unfold().tobytes()
    if isinstance(out, tm.EtaResult):
        return out.eta.unfold().tobytes(), out.domination_constant, out.range_ok
    return out


CALLS = {
    "mean_pd": lambda x, y: tm.mean_pd(x, y, tm.geometric()),
    "mean_psd": lambda x, y: tm.mean_psd(x, y, tm.geometric()),
    "eta": tm.eta,
    "loewner_compare": tm.loewner_compare,
}


@settings(deadline=None, max_examples=150)
@given(
    d=st.integers(1, 16),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    exponents=st.tuples(st.integers(-200, 200), st.integers(-200, 200)),
    seed=st.integers(0, 2**32 - 1),
    means=st.tuples(st.booleans(), st.booleans()),
)
# Entries near 1e-174, whose squares underflow in the norm of the margin.
@example(d=2, kinds=("near_singular", "near_singular"), exponents=(-174, 0), seed=0, means=(False, False))
@example(d=1, kinds=("near_singular", "rank_deficient"), exponents=(0, 0), seed=2, means=(True, True))
@example(d=5, kinds=("near_singular", "psd_threshold"), exponents=(3, 3), seed=4, means=(True, True))
def test_certified_decisions_match_the_eigenvalue_rules(d, kinds, exponents, seed, means):
    rng = np.random.default_rng(seed)
    shape = tm.TensorShape((d,))
    # x and y share their scale half of the time, so that pairs are close in the Loewner order.
    scales = [10.0 ** e for e in (exponents if seed % 2 else exponents[:1] * 2)]
    raw = [_matrix(rng, d, kind, scale) for kind, scale in zip(kinds, scales)]

    def operands(read):
        # A mean is made twice, so that the reference's cache is its own.
        ts = [tm.HermitianTensor(m, shape) for m in raw]
        ts = [_mean_born(t, scale) if mean else t for t, scale, mean in zip(ts, scales, means)]
        return [(_read(t) if t._factor is not None else _decomposed(t)) if read else t for t in ts]

    for name, call in CALLS.items():
        fresh, reference = operands(False), operands(True)
        assert _outcome(lambda: call(*fresh)) == _outcome(lambda: call(*reference)), name
