"""High-precision references for the graded kernels and the Lie–Trotter
limit, in mpmath (D <= 4).

Each reference treats its float64 input matrices as exact, works at ``DPS``
decimal digits through mpmath's Hermitian eigensolver ``eighe``, and
returns float64 numbers.  Spectral functions are applied through that
eigensolver, so no reference shares a step with the kernels it checks.
"""

import mpmath as mp
import numpy as np

DPS = 120

# Generators of the suites, as functions of one mpf.
GENERATORS = {
    "geometric": mp.sqrt,
    "harmonic_like": lambda t: 2 * t / (1 + t),
    "power:-0.5": lambda t: 1 / mp.sqrt(t),
    "square": lambda t: t**2,
}


def _matrix(a):
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in np.asarray(a)])


def _hermitian(m):
    return (m + m.H) / 2


def _function(m, fn):
    """``fn(m)`` of a Hermitian mpmath matrix, from its eigenpairs."""
    e, v = mp.eighe(_hermitian(m))
    return _hermitian(v * mp.diag([fn(e[i]) for i in range(m.rows)]) * v.H)


def _eigenvalues(m):
    e, _ = mp.eighe(_hermitian(m))
    return np.array(sorted(float(mp.re(e[i])) for i in range(m.rows)))


def level_spectrum(x, y, s):
    """Ascending eigenvalues of the dyadic quotient ``x^-s y^(2s) x^-s``
    of a PD ``x`` and a PSD ``y`` (raw ``D x D`` matrices)."""
    with mp.workdps(DPS):
        s = mp.mpf(s)
        x_root = _function(_matrix(x), lambda t: t**-s)
        return _eigenvalues(x_root * _function(_matrix(y), lambda t: t ** (2 * s)) * x_root)


def powered_mean(x, y, fid, q):
    """``y^(q/2) g(y^(-q/2) x^q y^(-q/2)) y^(q/2)`` of PD ``x`` and ``y``
    under the generator ``GENERATORS[fid]``: the matrix (complex128) and
    its ascending eigenvalues."""
    g = GENERATORS[fid]
    with mp.workdps(DPS):
        q = mp.mpf(q)
        ym = _matrix(y)
        y_root = _function(ym, lambda t: t ** (q / 2))
        y_iroot = _function(ym, lambda t: t ** (-q / 2))
        quotient = y_iroot * _function(_matrix(x), lambda t: t**q) * y_iroot
        mean = _hermitian(y_root * _function(quotient, g) * y_root)
        matrix = np.array([[complex(mean[i, j]) for j in range(mean.cols)] for i in range(mean.rows)])
        return matrix, _eigenvalues(mean)


def lt_final_error(x, y, fid, q, w):
    """Relative Frobenius distance of ``(exp(q x) # exp(q y))**(1/q)`` from
    the limit ``exp(w x + (1 - w) y)`` for Hermitian ``x`` and ``y`` under
    the generator ``GENERATORS[fid]``."""
    g = GENERATORS[fid]
    with mp.workdps(DPS):
        q, w = mp.mpf(q), mp.mpf(w)
        xm, ym = _matrix(x), _matrix(y)
        ey = _function(ym, lambda t: mp.exp(q * t))
        y_root = _function(ey, mp.sqrt)
        y_iroot = _function(ey, lambda t: 1 / mp.sqrt(t))
        quotient = y_iroot * _function(xm, lambda t: mp.exp(q * t)) * y_iroot
        mean = _hermitian(y_root * _function(quotient, g) * y_root)
        expression = _function(mean, lambda t: t ** (1 / q))
        limit = _function(w * xm + (1 - w) * ym, mp.exp)
        return float(mp.mnorm(expression - limit, "f") / mp.mnorm(limit, "f"))
