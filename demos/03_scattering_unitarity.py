"""The scattering matrix on the sphere: assembly, unitarity, patterns.

Assembles S(lambda) = I + finite-rank correction, checks unitarity two
independent ways (exact finite reduction and brute-force quadrature),
scans Gamma continuity over a spectral window, and writes CSV artifacts
(kernel samples, defect table, interference pattern) to demo_output/.
"""

import os

import numpy as np

from zrs import (
    ScattererSet,
    apply_smatrix,
    cross_section,
    default_grid,
    gamma_continuity_scan,
    overlap_error,
    plane_wave_block,
    smatrix,
    smatrix_minus_identity_norm,
    unitarity_defect_quadrature,
    unitarity_defect_reduced,
)
from zrs.scattering import (
    SphereFunction,
    write_cross_section_csv,
    write_kernel_csv,
)

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

s = ScattererSet(
    [[0, 0, 0.4], [0.3, -0.2, -0.3], [-0.4, 0.3, 0.0]],
    [0.8, -0.5, 1.0],
)
lam = 9.0

print("== assembly and unitarity ==")
rep = smatrix(lam, s)
grid = default_grid(lam, s)
print(f"lambda = {lam}, grid: {grid.kind} order {grid.order} ({grid.size} nodes)")
print(f"cond(Gamma) = {rep.gamma_cond:.3f}")
print(f"reduced defect ||S*S - I||      = {unitarity_defect_reduced(rep):.2e}")
print(f"quadrature defect (random f)    = "
      f"{unitarity_defect_quadrature(rep, grid, trials=8):.2e}")
print(f"plane-wave overlap error (grid) = "
      f"{overlap_error(plane_wave_block(lam, s, grid)):.2e}")

print()
print("== the s-wave phase of a single scatterer ==")
w = 1.0
single = ScattererSet([[0, 0, 0]], [w])
rep1 = smatrix(lam, single)
const = SphereFunction(values=np.ones(grid.size, complex), grid=grid)
eig = apply_smatrix(rep1, const).values[0]
k = np.sqrt(lam)
print(f"S on constants: {eig:.6f}, |S| = {abs(eig):.12f}")
print(f"closed form (4 pi w - ik)/(4 pi w + ik): "
      f"{(4*np.pi*w - 1j*k)/(4*np.pi*w + 1j*k):.6f}")

print()
print("== identity limit for very strong couplings ==")
stiff = ScattererSet(s.points, np.sign(s.weights) * 1e12)
print(f"||S - I|| at |w| = 1e12: "
      f"{smatrix_minus_identity_norm(smatrix(lam, stiff)):.2e}")

print()
print("== Gamma continuity across the window [1, 25] ==")
scan = gamma_continuity_scan(s, s.n, (1.0, 25.0), 129)
print(f"max increment {scan.max_increment:.4e}, flagged jumps: "
      f"{int(np.sum(scan.flagged))}")

print()
print("== CSV artifacts ==")
dirs = grid.nodes[:: grid.size // 6][:6]
write_kernel_csv(rep, dirs, dirs, os.path.join(OUT, "kernel_samples.csv"))
print(f"wrote {OUT}/kernel_samples.csv (S - delta at 36 direction pairs)")

pair = ScattererSet([[0, 0, 0.7], [0, 0, -0.7]], [1.0, 1.0])
pattern = cross_section(smatrix(36.0, pair), incident=[0, 0, 1.0])
write_cross_section_csv(pattern, os.path.join(OUT, "fringes.csv"))
print(f"wrote {OUT}/fringes.csv (two-site interference, fringe scale "
      f"~ 2 pi / (sqrt(lambda) d))")
