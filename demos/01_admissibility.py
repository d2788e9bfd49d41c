"""Scatterer families and admissibility diagnostics.

Builds finite configurations and generated families, inspects their
separation profiles, and evaluates the summability conditions
K0 = sum 1/|w_m| and K1 = sum 1/(eta_m^2 |w_m|) together with the tail
bound p_{N0,L}(b) that licenses the block inversion.
"""

import numpy as np

from zrs import (
    ScattererSet,
    check_admissibility,
    generate_family,
    separation_profile,
)

print("== explicit configuration ==")
s = ScattererSet([[0, 0, 0], [1, 0, 0], [3, 0, 0]], [2.0, -1.5, 4.0])
eta = separation_profile(s)
print(f"points:\n{s.points}")
print(f"prefix separation minima eta: {eta}")
rep = check_admissibility(s, b=25.0)
print(f"K0 = {rep.k0:.6f}, K1 = {rep.k1:.6f}, tail = {np.round(rep.tail, 6)}")
print(f"tail bound p_(N0={rep.n0})(b=25) = {rep.p_tail:.3f} "
      f"(contractive: {rep.tail_contractive})")

print()
print("== clustering family: points pile up at the origin ==")
# gap m^-p and weight m^q satisfy the summability conditions iff
# q > 2p + 1 and q > 1
for p, q in ((2, 6), (2, 3)):
    fam = generate_family("clustering", {"p": p, "q": q}, 24)
    rep = check_admissibility(fam, b=25.0)
    verdict = "pass" if rep.passed else "fail"
    print(f"p={p}, q={q}: K0 = {rep.k0:.4f}, K1 = {rep.k1:.4f}, "
          f"diagnostics {verdict} (expected {'pass' if q > 2*p+1 else 'fail'})")

print()
print("== truncation tails shrink for a summable family ==")
fam = generate_family("clustering", {"p": 2, "q": 6}, 24)
rep = check_admissibility(fam, b=25.0, n0=4)
print(f"tau_N for N = 4, 8, 16, 24: "
      f"{[f'{rep.tail[j-1]:.2e}' for j in (4, 8, 16, 24)]}")
print(f"p_(N0=4)(25) = {rep.p_tail:.2e}  -> the tail block is a contraction")

print()
print("== a uniform line with constant weights cannot be summable ==")
line = generate_family("uniform-line", {"spacing": 1.0, "weight": 1.0}, 20)
print(f"diagnostics verdict: "
      f"{'pass' if check_admissibility(line, 25.0).passed else 'fail'}")
