"""Resolvent kernel: selfadjointness identities and boundary conditions.

Evaluates the perturbed resolvent kernel explicitly and verifies the
three selfadjoint-resolvent criteria numerically (trivial kernel,
adjoint symmetry, Hilbert identity), the zero-range boundary condition
at each site, and the free-resolvent reproduction of a smooth bump.
A kernel slice along a ray is written to demo_output/.
"""

import os

import numpy as np

from zrs import (
    ScattererSet,
    boundary_condition_residual,
    free_resolvent_reproduction,
    green_at_distance,
    hilbert_identity_residual,
    resolvent_kernel,
    symmetry_residual,
)
from zrs.resolvent import write_kernel_slice_csv

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

s = ScattererSet(
    [[0, 0, 0], [0.5, 0.2, -0.1], [-0.3, 0.45, 0.2]],
    [1.2, -0.7, 0.9],
)

print("== resolvent identities at complex energies ==")
print(f"Hilbert identity residual (z1=1+1j, z2=-2+0.5j): "
      f"{hilbert_identity_residual(1 + 1j, -2 + 0.5j, s):.2e}")
print(f"adjoint symmetry residual at z = i: {symmetry_residual(1j, s):.2e}")
kern = resolvent_kernel(1j, s)
sv = np.linalg.svd(kern.c, compute_uv=False)
print(f"smallest singular value of C(i): {sv[-1]:.4f}  (kernel injective)")

print()
print("== kernel symmetry K(x, x') = K(x', x) ==")
x, xp = np.array([0.9, -0.3, 0.2]), np.array([-0.5, 0.6, -0.4])
print(f"K(x, x') = {kern.evaluate(x, xp):.8f}")
print(f"K(x', x) = {kern.evaluate(xp, x):.8f}")

print()
print("== zero-range boundary condition at each site ==")
res = boundary_condition_residual(1j, s)
for m, r in enumerate(res):
    print(f"site {m}: residual {r:.2e}")

print()
print("== strong-coupling limit recovers the free kernel ==")
stiff = ScattererSet(s.points, np.sign(s.weights) * 1e12)
ks = resolvent_kernel(2j, stiff)
rng = np.random.default_rng(0)
pts = rng.uniform(-1, 1, (40, 3))
pts2 = rng.uniform(-1, 1, (40, 3))
free = green_at_distance(2j, np.linalg.norm(pts - pts2, axis=-1))
print(f"sup |K - free Green| over 40 pairs: "
      f"{np.max(np.abs(ks.evaluate(pts, pts2) - free)):.2e}")

print()
print("== free resolvent reproduces a smooth bump ==")
samples = [[0, 0, 0], [0.3, 0.1, -0.2], [-0.5, 0.4, 0.2]]
res = free_resolvent_reproduction(2 + 0.5j, samples)  # bump radius 1, sigma 0.3
for x, r in zip(samples, res):
    print(f"x = {x}: |R(z)(-Lap - z)phi - phi| = {r:.2e}")

print()
print("== kernel slice CSV ==")
write_kernel_slice_csv(kern, [1.2, 1.2, 1.2], [-1, -1, -1],
                       np.geomspace(0.02, 2.0, 60),
                       os.path.join(OUT, "kernel_slice.csv"))
print(f"wrote {OUT}/kernel_slice.csv (K along a ray toward the cluster)")
