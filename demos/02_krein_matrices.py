"""Krein-formula matrices: Q(z), the weighted form, Gamma, and Schur blocks.

Walks through the matrix layer: conjugation symmetry of Q, the
Nevanlinna sign of its imaginary part, the boundary Gram identity
Im Q(lambda + i0) = G_N(lambda), ||Qt||_2 against the tail bound with
no head (p_L), and the Schur-Frobenius factorization against direct
inversion.
"""

import numpy as np

from zrs import (
    ScattererSet,
    build_q,
    build_weighted,
    gamma_direct,
    gamma_schur,
    gram_matrix,
    krein_matrices,
    m_sampled,
    tail_bound,
)

s = ScattererSet(
    [[0, 0, 0], [0.45, 0.1, -0.2], [-0.3, 0.4, 0.25], [0.1, -0.5, 0.3]],
    [0.9, -0.6, 1.1, -0.4],
)

print("== conjugation symmetry ==")
z = 1.5 + 2.0j
q = build_q(z, s)
gap = np.linalg.norm(q.conj().T - build_q(np.conj(z), s), 2)
print(f"||Q(z)^H - Q(conj z)|| = {gap:.2e}")

print()
print("== Nevanlinna sign of the weighted matrix ==")
qt, j = build_weighted(s, q)
h = (qt - qt.conj().T) / (2j * z.imag)
print(f"eigenvalues of Im Qt / Im z (all >= 0): {np.linalg.eigvalsh(h)}")

print()
print("== boundary Gram identity at lambda + i0 ==")
lam = 6.0
g = gram_matrix(lam, s)  # read off as Im Q(lam + i0)
k, d = np.sqrt(lam), s.distances()
explicit = np.where(np.eye(s.n, dtype=bool), k / (4 * np.pi),
                    np.sin(k * d) / (4 * np.pi * (d + np.eye(s.n))))
print(f"max |G_N(lam) - [sin(sqrt(lam) r) / (4 pi r)]| = "
      f"{np.max(np.abs(g.g - explicit)):.2e}")
print(f"least Gram eigenvalue mu_N({lam}) = {g.mu:.6f} "
      f"(positive: plane-wave columns independent)")
print(f"sampled sup of ||G^-1|| on [1, 25]: {m_sampled(s, s.n, (1, 25)):.4f}")

print()
print("== a-priori norm bound ==")
for zz in (lam, 2 - 3j):
    measured = np.linalg.norm(build_weighted(s, build_q(zz, s))[0], 2)
    p_l = tail_bound(s, 0, abs(zz))  # p_L(z): the tail bound with no head
    print(f"z = {zz}: ||Qt||_2 = {measured:.4f} <= p_L = {p_l:.4f}")

print()
print("== Schur-Frobenius block inversion ==")
# strengthen the tail so p_(N0)(b) < 1 licenses the factorization
heavy = ScattererSet(s.points, s.weights * np.array([1, 1, 2e3, 2e3]))
p = tail_bound(heavy, 2, b=25.0)
print(f"tail bound p_(N0=2)(25) = {p:.4f} < 1")
qt, j = build_weighted(heavy, build_q(lam, heavy))
gamma_s, factors = gamma_schur(qt, j, split=2, tail_bound=p)
gamma_d = gamma_direct(qt, j)
rel = np.linalg.norm(gamma_s - gamma_d, 2) / np.linalg.norm(gamma_d, 2)
print(f"relative gap Schur vs direct: {rel:.2e}")
print(f"three-factor product reproduces J + Qt: "
      f"{np.linalg.norm(factors.product() - (qt + np.diag(j)), 2):.2e}")
print(f"least eigenvalue of Im W_ring: {factors.imag_w_ring_min():.6f}")

print()
print("== both inverses at one complex point ==")
km = krein_matrices(2j, s)
print(f"||(J + Qt) Gamma - I|| = "
      f"{np.linalg.norm((km.qtilde + np.diag(km.j)) @ km.gamma - np.eye(s.n), 2):.2e}")
print(f"||(Q + 4 pi L) C - I||  = "
      f"{np.linalg.norm((km.q + 4 * np.pi * np.diag(s.weights)) @ km.c - np.eye(s.n), 2):.2e}")
