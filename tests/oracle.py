"""High-precision references for the means, ``eta``, the graded kernels,
the Lie–Trotter limit and integer powers, in mpmath (D <= 16).

Each reference treats its float64 input matrices as exact, works at ``DPS``
decimal digits through mpmath's Hermitian eigensolver ``eighe``, and
returns float64 numbers.  Spectral functions are applied through that
eigensolver, so no reference shares a step with the kernels it checks.
An integer power is mpmath's own matrix power, a product at 50 digits,
whose rounding lies far below that of the float64 products it checks.
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
    "liftn:12:power:0.5": lambda t: t**12 * mp.sqrt(t),
    "liftn:24:geometric": lambda t: t**24 * mp.sqrt(t),
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


def _complex(m):
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def _mean(xm, ym, g):
    """``y^{1/2} g(y^{-1/2} x y^{-1/2}) y^{1/2}`` of PD mpmath matrices."""
    y_root = _function(ym, mp.sqrt)
    y_iroot = _function(ym, lambda t: 1 / mp.sqrt(t))
    return _hermitian(y_root * _function(y_iroot * xm * y_iroot, g) * y_root)


def mean_pd(x, y, fid):
    """The mean of PD ``x`` and ``y`` under ``GENERATORS[fid]`` (complex128)."""
    with mp.workdps(DPS):
        return _complex(_mean(_matrix(x), _matrix(y), GENERATORS[fid]))


def mean_spectrum(x, y, fid):
    """Ascending eigenvalues of the mean of PD ``x`` and ``y`` under
    ``GENERATORS[fid]``."""
    with mp.workdps(DPS):
        return _eigenvalues(_mean(_matrix(x), _matrix(y), GENERATORS[fid]))


def mean_psd(x, y, fid, rtol=1e-10):
    """``eta(x, y)`` of a PSD pair and their extended mean under
    ``GENERATORS[fid]``: ``eta = P x P`` for ``P = y^{-1/2}`` on y's
    eigenvalues ``> rtol * lambda_max`` and 0 on the others, and the mean
    ``y_r^{1/2} g(eta) y_r^{1/2}`` over the same truncated root, with
    eta's eigenvalues ``<= rtol * lambda_max(eta)`` mapped to ``g(0)``.
    Returns eta (complex128), its ascending eigenvalues and the mean."""
    g = GENERATORS[fid]
    with mp.workdps(DPS):
        e, v = mp.eighe(_hermitian(_matrix(y)))
        lam = [mp.re(e[i]) for i in range(e.rows)]
        live = [t > rtol * max(lam) for t in lam]
        root = v * mp.diag([mp.sqrt(t) if k else 0 for t, k in zip(lam, live)]) * v.H
        iroot = v * mp.diag([1 / mp.sqrt(t) if k else 0 for t, k in zip(lam, live)]) * v.H
        eta = _hermitian(iroot * _matrix(x) * iroot)
        ev = _eigenvalues(eta)
        cutoff = rtol * max(ev[-1], 0.0)
        mean = _hermitian(root * _function(eta, lambda t: g(t) if t > cutoff else g(mp.mpf(0))) * root)
        return _complex(eta), ev, _complex(mean)


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
    with mp.workdps(DPS):
        q = mp.mpf(q)
        xq = _function(_matrix(x), lambda t: t**q)
        mean = _mean(xq, _function(_matrix(y), lambda t: t**q), GENERATORS[fid])
        return _complex(mean), _eigenvalues(mean)


def powered_root(x, y, fid, q, dps=50):
    """``mean(x**q, y**q)**(1/q)`` of PD ``x`` and ``y`` under the
    generator ``GENERATORS[fid]``, at ``dps`` digits: the matrix
    (complex128) and its ascending eigenvalues, the mean's to the power
    ``1/q``.  Decomposing the root itself would need as many digits as its
    condition number has (1e42 on T3's draws at m = 24)."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        mean = _mean(_function(_matrix(x), lambda t: t**q), _function(_matrix(y), lambda t: t**q), GENERATORS[fid])
        e, v = mp.eighe(_hermitian(mean))
        lam = [mp.re(e[i]) ** (1 / q) for i in range(mean.rows)]
        return _complex(_hermitian(v * mp.diag(lam) * v.H)), np.array(sorted(float(t) for t in lam))


def lt_final_error(x, y, fid, q, w):
    """Relative Frobenius distance of ``(exp(q x) # exp(q y))**(1/q)`` from
    the limit ``exp(w x + (1 - w) y)`` for Hermitian ``x`` and ``y`` under
    the generator ``GENERATORS[fid]``."""
    g = GENERATORS[fid]
    with mp.workdps(DPS):
        q, w = mp.mpf(q), mp.mpf(w)
        xm, ym = _matrix(x), _matrix(y)
        mean = _mean(_function(xm, lambda t: mp.exp(q * t)), _function(ym, lambda t: mp.exp(q * t)), g)
        expression = _function(mean, lambda t: t ** (1 / q))
        limit = _function(w * xm + (1 - w) * ym, mp.exp)
        return float(mp.mnorm(expression - limit, "f") / mp.mnorm(limit, "f"))


def integer_power(h, n, dps=50):
    """``h**n`` of a matrix (float64, taken as exact) for an integer ``n``,
    by mpmath's matrix power at ``dps`` digits (complex128)."""
    with mp.workdps(dps):
        return _complex(_matrix(h) ** n)


def kantorovich(m, big_m, p):
    """``K(m, M, p)`` of mpf arguments: 1 for ``p`` in [0, 1] or ``m == M``,
    else the closed form ``(m M**p - M m**p) / ((p - 1)(M - m))
    * ((p - 1) / p * (M**p - m**p) / (m M**p - M m**p))**p``, at least 1."""
    if 0 <= p <= 1 or m == big_m:
        return mp.mpf(1)
    cross = m * big_m**p - big_m * m**p
    k = cross / ((p - 1) * (big_m - m)) * ((p - 1) / p * (big_m**p - m**p) / cross) ** p
    return max(mp.mpf(1), k)


def kk_list(lam, g, n, q, k_start, dps=50):
    """The Kantorovich factors ``K_k``, ``k = k_start .. n``, of one
    spectrum ``lam`` (float64, taken as exact) under the generator ``g``
    (a function of one mpf): ``K(1 / max r_k, 1 / min r_k, 2q)`` for the
    ratios ``r_k = g(lam)**(n - k) / lam``, at ``dps`` digits."""
    with mp.workdps(dps):
        lam = [mp.mpf(float(t)) for t in lam]
        out = []
        for k in range(k_start, n + 1):
            ratios = [g(t) ** (n - k) / t for t in lam]
            out.append(float(kantorovich(1 / max(ratios), 1 / min(ratios), 2 * mp.mpf(q))))
        return np.array(out)
