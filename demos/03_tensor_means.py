"""Bivariate tensor means: PD case, lifted recursion, and the PSD extension.

The mean of x and y under generator g conjugates g's spectral evaluation of
the quotient y^(-1/2) x y^(-1/2) by y^(1/2).  When y is singular the
quotient is replaced by the range-compatible solution eta of
x = y^(1/2) eta y^(1/2), and the mean extends whenever g(0+) is finite.
"""

import numpy as np

import tmlab as tm

shape = tm.TensorShape((2, 2))
rng = np.random.default_rng(11)


def rand_pd():
    g = (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))) / np.sqrt(2)
    return tm.fold(g.conj().T @ g / 8 + 1e-6 * np.eye(4), shape)


x, y = rand_pd(), rand_pd()
gm = tm.mean_pd(x, y, tm.geometric())
print("geometric mean eigenvalues:", np.round(gm.eigenvalues(), 4))
print("idempotence: ||x # x - x|| =",
      f"{np.linalg.norm(tm.mean_pd(x, x, tm.geometric()).unfold() - x.unfold()):.2e}")

# The transposed generator swaps the slots.
swap = tm.mean_pd(y, x, tm.transpose_fn(tm.geometric()))
print("slot swap via transpose: max diff =",
      f"{np.max(np.abs(swap.unfold() - gm.unfold())):.2e}")

# Lifted generators x^n f(x) satisfy a two-step recursion.
f = tm.geometric()
rec = tm.mean_recursive(x, y, f, 4)
direct = tm.mean_pd(x, y, tm.power_lift(f, 4))
print("recursion vs direct lift (n=4): rel diff =",
      f"{np.linalg.norm(rec.unfold() - direct.unfold()) / np.linalg.norm(direct.unfold()):.2e}")

# PSD extension: a rank-deficient second slot.
y_sing = tm.HermitianTensor.diag([1.0, 0.5, 0.25, 0.0], shape)
w = rand_pd()
root = tm.apply_spectral(y_sing, lambda v: np.sqrt(np.maximum(v, 0.0)))
x_dom = tm.fold(root.unfold() @ w.unfold() @ root.unfold(), shape)
res = tm.eta(x_dom, y_sing)
print("\neta solves x = y^(1/2) eta y^(1/2); least domination constant =",
      f"{res.domination_constant:.4f}")
psd_mean = tm.mean_psd(x_dom, y_sing, tm.geometric())
print("PSD mean eigenvalues:", np.round(psd_mean.eigenvalues(), 4))

# The regularized means (x + eps I) # (y + eps I) converge to that value.
limit, diag = tm.epsilon_mean_limit(x_dom, y_sing, tm.geometric())
print("\nepsilon   error")
for eps, err in zip(diag.epsilon_grid, diag.errors):
    print(f"  {eps:7.0e} {err:.3e}")
print("converged:", diag.converged)
