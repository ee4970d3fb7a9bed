import numpy as np
import pytest

from tmlab import HermitianTensor, TensorShape, fold

SHAPE22 = TensorShape((2, 2))
SHAPE2 = TensorShape((2,))


def rand_hermitian(rng, shape=SHAPE22, scale=1.0):
    d = shape.square_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return fold((a + a.conj().T) * (scale / 2.0), shape)


def rand_pd(rng, shape=SHAPE22, dof=8, scale=1.0):
    d = shape.square_dim
    g = (rng.normal(size=(dof, d)) + 1j * rng.normal(size=(dof, d))) / np.sqrt(2)
    return fold((g.conj().T @ g / dof + 1e-6 * np.eye(d)) * scale, shape)


def rand_psd_rank(rng, rank, shape=SHAPE22):
    d = shape.square_dim
    g = (rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))) / np.sqrt(2)
    return fold(g.conj().T @ g / rank, shape)


def rand_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def rand_spectrum(rng, lo, hi, shape=SHAPE22):
    d = shape.square_dim
    q = rand_unitary(rng, d)
    lam = rng.uniform(lo, hi, size=d)
    return fold((q * lam) @ q.conj().T, shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the LAPACK drivers that decompose or certify a tensor."""
    calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
