"""Mean inequalities under data fusion and positive linear maps.

For convex generators with a finite 0+ limit: fusing dominated pairs by
addition before taking the mean never exceeds the sum of the means, and a
positive linear map applied after the mean dominates the mean of the mapped
arguments.
"""

import numpy as np

import tmlab as tm

shape = tm.TensorShape((2, 2))
rng = np.random.default_rng(43)


def rand_pd():
    a = (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))) / np.sqrt(2)
    return tm.fold(a.conj().T @ a / 8 + 1e-6 * np.eye(4), shape)


g = tm.square()

p1 = tm.DominationPair(rand_pd(), rand_pd(), "left")
p2 = tm.DominationPair(rand_pd(), rand_pd(), "left")
gap, verdict = tm.fusion_gap(p1, p2, g)
print(f"fusion slack lambda_min(sum of means - fused mean) = {gap:.6f} ({verdict.relation.value})")

# Scalars reproduce the Cauchy-Schwarz form of the same inequality.
ident = tm.HermitianTensor.identity(tm.TensorShape((2,)))
pa = tm.DominationPair(1.0 * ident, 2.0 * ident, "left")
pb = tm.DominationPair(3.0 * ident, 1.5 * ident, "left")
gap, _ = tm.fusion_gap(pa, pb, g)
closed = 1.0 / 2.0 + 9.0 / 1.5 - 16.0 / 3.5
print(f"scalar case: gap = {gap:.6f}, closed form = {closed:.6f}")

# Positive linear maps: congruence, pinching, and convex combinations.
pair = tm.DominationPair(rand_pd(), rand_pd(), "left")
k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
cong = tm.congruence(k.reshape(2, 2, 2, 2), shape)
pinch = tm.pinching([(0, 1), (2, 3)], shape)
mix = tm.convex_combination([cong, pinch], [0.5, 0.5])
print("\nmap slack lambda_min(L(x # y) - L(x) # L(y)):")
for name, lmap in (("congruence", cong), ("pinching", pinch), ("mix", mix)):
    gap, verdict = tm.transform_gap(lmap, pair, g)
    print(f"  {name:10s} {gap:12.6e} ({verdict.relation.value})")

u, _ = np.linalg.qr(k)
ugap, _ = tm.transform_gap(tm.congruence(u.reshape(2, 2, 2, 2), shape), pair, g)
print(f"  unitary    {ugap:12.6e} (equality case)")
