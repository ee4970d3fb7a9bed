import math

import numpy as np
import pytest
from hypothesis import settings

from tmlab import HermitianTensor, TensorShape, fold, functions

# Property tests draw the same examples on every run unless a random search
# is asked for with ``--hypothesis-profile random`` (and ``--hypothesis-seed``).
# Each test keeps its own ``max_examples`` and ``@example``s under both.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("derandomized")

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


# The LAPACK drivers that decompose or certify a tensor.
DRIVERS = ("eigh", "eigvalsh", "svd", "cholesky")


class Decompositions:
    """Per driver, its ``calls`` and the ``matrices`` they took: a stacked
    call counts each of its matrices, and a Cholesky factorization that
    raises counts too.  The class probe's matrices, which a generator's
    construction decomposes (``functions._class_readings``), are no
    tensor's: they count apart, in ``probed``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(DRIVERS, 0)
        self.matrices = dict.fromkeys(DRIVERS, 0)
        self.probed = dict.fromkeys(DRIVERS, 0)


@pytest.fixture
def counts(monkeypatch):
    """The one way the tests count decompositions: every driver of
    :data:`DRIVERS` wrapped for the test, into one :class:`Decompositions`."""
    seen, probing = Decompositions(), []
    for name in DRIVERS:
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            if probing:
                seen.probed[_name] += math.prod(np.shape(a)[:-2])
            else:
                seen.calls[_name] += 1
                seen.matrices[_name] += math.prod(np.shape(a)[:-2])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def probe(*args, _real=functions._class_readings):
        probing.append(True)
        try:
            return _real(*args)
        finally:
            probing.pop()

    monkeypatch.setattr(functions, "_class_readings", probe)
    return seen
