"""Certified decisions against a reference that always decomposes.

``mean_pd``, ``mean_recursive``, ``mean_psd``, ``eta`` and
``loewner_compare`` answer their yes/no spectral questions (the PD and PSD
gates, eta's range test, the Loewner verdict) by a Cholesky certificate, a
bracket of the scale or, for x's PD gate in ``mean_pd`` and
``mean_recursive``, the eigenvalues of the congruence quotient the mean
forms anyway; they read eigenvalues only when those leave the answer open.
The reference here hands the same calls operands whose eigenvalues were
read first, so every gate, range test and verdict reads them, as the
eigenvalue rules do.  On near-singular, rank-deficient, threshold and
indefinite Hermitian pairs at D = 1..16, scaled from 1e-200 up to 1e200,
on the same operands born again as means (with a graded factor, whose
eigenvalues come from an SVD), on near-singular x against y of condition
1e2..1e12, and on stacks, the library must give the same bits, or raise
the same exception with the same text.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tmlab as tm
import tmlab.core
from tmlab.core import PSD_RTOL, HermitianStack, NotPositiveDefiniteError

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
    if isinstance(out, HermitianStack):
        return out.unfold().tobytes()
    if isinstance(out, tm.EtaResult):
        return out.eta.unfold().tobytes(), out.domination_constant
    return out


CALLS = {
    "mean_pd": lambda x, y: tm.mean_pd(x, y, tm.geometric()),
    "mean_recursive": lambda x, y: tm.mean_recursive(x, y, tm.geometric(), 2),
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
# A quotient past the double range, whose eigh raises: x's gate must come first.
@example(d=3, kinds=("near_singular", "near_singular"), exponents=(112, -189), seed=1, means=(False, True))
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
    # mean_psd reads eta's eigenpairs without eta's matrix; a held pair reads eta's.
    try:
        pair = tm.DominationPair(*operands(False), "left")
    except ValueError:
        return
    assert _outcome(lambda: tm.mean_on_pair(pair, tm.geometric())) == _outcome(
        lambda: tm.mean_psd(*operands(False), tm.geometric()))


def _haar(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _conditioned_pair(rng, d, condition, bottom, sign, aligned, scales=(1.0, 1.0)):
    """Raw ``(x, y)``: x of eigenvalues in [0.5, 2] but one, ``sign *
    10**bottom``; y of condition ``10**condition`` (D > 1), log-uniform
    between; in one eigenbasis when ``aligned``."""
    qx = _haar(rng, d)
    qy = qx if aligned else _haar(rng, d)
    lx = rng.uniform(0.5, 2.0, size=d)
    lx[0] = sign * 10.0**bottom
    ly = 10.0 ** np.sort(rng.uniform(0.0, condition, size=d))
    ly[0], ly[-1] = 1.0, 10.0**condition if d > 1 else 1.0
    return [s * (q * lam) @ q.conj().T for s, q, lam in zip(scales, (qx, qy), (lx, ly))]


def _fresh(m, shape=None):
    """Validated tensor of ``m`` of ``shape``, or without one a stack."""
    return HermitianStack.from_matrices(m) if shape is None else tm.HermitianTensor(m, shape)


def _reference(m, shape=None):
    """:func:`_fresh`, born again with its ``eigvalsh`` values."""
    t = _fresh(m, shape)
    if shape is None:
        return HermitianStack._trusted(t.unfold().copy(), values=np.linalg.eigvalsh(t.unfold()))
    return _decomposed(t)


PD_CALLS = {name: CALLS[name] for name in ("mean_pd", "mean_recursive")}


@settings(deadline=None, max_examples=150)
@given(
    d=st.integers(1, 16),
    condition=st.floats(2.0, 12.0),
    bottom=st.floats(-18.0, -8.0),
    sign=st.sampled_from([-1.0, 1.0]),
    aligned=st.booleans(),
    exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
    seed=st.integers(0, 2**32 - 1),
)
def test_quotient_gate_matches_the_eigenvalue_rule(d, condition, bottom, sign, aligned, exponents, seed):
    rng = np.random.default_rng(seed)
    shape = tm.TensorShape((d,))
    raw = _conditioned_pair(rng, d, condition, bottom, sign, aligned, [10.0**e for e in exponents])
    for name, call in PD_CALLS.items():
        fresh = [_fresh(m, shape) for m in raw]
        reference = [_reference(m, shape) for m in raw]
        assert _outcome(lambda: call(*fresh)) == _outcome(lambda: call(*reference)), name


def _gate_calls(monkeypatch):
    """Count the calls of ``core._gate``: the quotient's margin left x's gate open."""
    seen = []
    real = tmlab.core._gate

    def counted(*args, **kwargs):
        seen.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(tmlab.core, "_gate", counted)
    return seen


@pytest.mark.parametrize("d", [2, 4, 16])
def test_quotient_gate_sees_both_sides_of_its_margin(monkeypatch, d):
    """Over a grid of y's condition and x's bottom eigenvalue, the margin
    passes some fresh x and leaves others to the eigenvalue rule, never
    passes one whose ``eigvalsh`` bottom is not positive, and every call
    matches the reference."""
    seen = _gate_calls(monkeypatch)
    rng = np.random.default_rng(d)
    shape = tm.TensorShape((d,))
    sides = {"quotient": 0, "rule": 0}
    for condition in (2.0, 6.0, 12.0):
        for bottom in (-18.0, -14.0, -12.0, -8.0):
            for sign in (-1.0, 1.0):
                for aligned in (False, True):
                    raw = _conditioned_pair(rng, d, condition, bottom, sign, aligned)
                    for name, call in PD_CALLS.items():
                        seen.clear()
                        fresh = [_fresh(m, shape) for m in raw]
                        got, opened = _outcome(lambda: call(*fresh)), bool(seen)
                        assert got == _outcome(lambda: call(*[_reference(m, shape) for m in raw])), name
                        if not opened:
                            assert np.linalg.eigvalsh(fresh[0].unfold())[0] > 0.0
                        sides["rule" if opened else "quotient"] += 1
    assert sides["quotient"] and sides["rule"], sides


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("indefinite", [False, True])
def test_stacks_mixing_both_sides_of_the_margin(monkeypatch, d, indefinite):
    seen = _gate_calls(monkeypatch)
    rng = np.random.default_rng(d)
    cases = [(2.0, -8.0, 1.0), (12.0, -18.0, 1.0), (2.0, -9.0, 1.0), (6.0, -14.0, -1.0 if indefinite else 1.0)]
    pairs = [_conditioned_pair(rng, d, *case, aligned=False) for case in cases]
    xs, ys = (np.stack(side) for side in zip(*pairs))
    for name, call in PD_CALLS.items():
        seen.clear()
        got, opened = _outcome(lambda: call(_fresh(xs), _fresh(ys))), list(seen)
        assert got == _outcome(lambda: call(_reference(xs), _reference(ys))), name
        assert opened == ["x"], name  # one matrix inside the margin sends the stack to the rule
        if indefinite:
            assert got[0] is NotPositiveDefiniteError and str(got[1]).startswith("x must be PD")


@pytest.mark.parametrize("read_x", [False, True], ids=["fresh_x", "read_x"])
@pytest.mark.parametrize("y_kind", ["singular", "indefinite"])
def test_both_operands_failing_name_x(read_x, y_kind):
    rng = np.random.default_rng(7)
    q = _haar(rng, 4)
    x = (q * np.array([-1.0, 0.5, 1.0, 2.0])) @ q.conj().T
    y = (q * np.array([0.0 if y_kind == "singular" else -0.5, 0.5, 1.0, 2.0])) @ q.conj().T
    shape = tm.TensorShape((4,))
    for name, call in PD_CALLS.items():
        xt = _reference(x, shape) if read_x else _fresh(x, shape)
        with pytest.raises(NotPositiveDefiniteError, match="^x must be PD"):
            call(xt, _fresh(y, shape))
        with pytest.raises(NotPositiveDefiniteError, match="^x must be PD"):
            call(_fresh(np.stack([y, x]) if read_x else np.stack([x, x])), _fresh(np.stack([y, y])))


@pytest.mark.parametrize("d", [1, 4, 16])
@pytest.mark.parametrize("exponent", [-100, 0, 100])
def test_mean_psd_matches_the_domination_pair(d, exponent):
    rng = np.random.default_rng(d)
    shape = tm.TensorShape((d,))
    h = rng.normal(size=(max(d // 2, 1), d)) + 1j * rng.normal(size=(max(d // 2, 1), d))
    inner = _matrix(rng, h.shape[0], "near_singular", 1.0)
    inner = inner @ inner.conj().T
    raw = [10.0**exponent * h.conj().T @ m @ h for m in (inner, np.eye(h.shape[0]))]
    for g in (tm.geometric(), tm.identity(), tm.harmonic_like()):
        via_pair = tm.mean_on_pair(tm.DominationPair(*[_fresh(m, shape) for m in raw], "left"), g)
        direct = tm.mean_psd(*[_fresh(m, shape) for m in raw], g)
        assert via_pair.unfold().tobytes() == direct.unfold().tobytes()
        assert np.array_equal(via_pair._eigenvalues(), direct._eigenvalues())


def _subnormal_pair(rng):
    """x and y near 1e-318, where the products forming the quotient lose
    their relative accuracy."""
    d = int(rng.integers(2, 6))
    q = _haar(rng, d)
    lx = rng.uniform(0.5, 2.0, d)
    lx[0] = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, -1)
    ex = -rng.uniform(300, 318)
    ey = ex + rng.uniform(-5, 5)
    x = 10.0**ex * (q * lx) @ q.conj().T
    qy = _haar(rng, d)
    return x, 10.0**ey * (qy * rng.uniform(0.5, 2.0, d)) @ qy.conj().T


def _near_overflow_pair(rng):
    """An x with entries near 1e308 against a small y, so that the
    quotient's eigh does not converge."""
    d = int(rng.integers(1, 4))
    q = _haar(rng, d)
    lx = rng.uniform(0.5, 2.0, d)
    lx[0] = rng.choice([-1, 1]) * rng.uniform(0.0, 1.0)
    x = 10.0 ** rng.uniform(300, 308) * (q * lx) @ q.conj().T
    ey = -rng.uniform(0, 20)
    qy = _haar(rng, d)
    return x, 10.0**ey * (qy * rng.uniform(0.5, 2.0, d)) @ qy.conj().T


@pytest.mark.parametrize("pair, seed", [(_subnormal_pair, s) for s in (2022, 2870, 3380, 3554)]
                         + [(_near_overflow_pair, s) for s in (1603, 4316, 4434, 5276)])
def test_extreme_pairs_go_to_the_rule(pair, seed):
    """x is not PD by ``eigvalsh``.  Without the quotient's floor on
    ``|x|_2`` the subnormal draws pass x; the near-overflow draws'
    Cholesky factorization overflows to a NaN pivot, which LAPACK returns
    without raising, and a certificate that read it as a pass let the
    quotient's ``LinAlgError`` through.  Neither certifies x, and the error
    is the eigenvalue rule's."""
    x, y = pair(np.random.default_rng(seed))
    shape = tm.TensorShape((x.shape[-1],))
    assert not tmlab.core._certified(0.0, _fresh(x, shape))
    for name, call in PD_CALLS.items():
        got = _outcome(lambda: call(_fresh(x, shape), _fresh(y, shape)))
        assert got == _outcome(lambda: call(_reference(x, shape), _fresh(y, shape))), name
        assert got[0] is NotPositiveDefiniteError, name
