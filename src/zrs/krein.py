"""Krein-formula matrices for zero-range perturbations of the 3-D Laplacian.

Builds the free Green function, the coupling matrix Q(z) with diagonal
i sqrt(z)/(4 pi), its weighted form Qt = D^{-1/2} Q D^{-1/2} with
D = diag|w_m| and signature J = diag(sign w_m), the boundary-value
coefficient matrix Gamma = (J + Qt)^{-1}, the resolvent coefficient
C = (Q + 4 pi L)^{-1}, the sphere Gram matrix G_N(lambda), and the
Schur-Frobenius block inversion with its tail bounds.

``build_q``, ``gamma_at`` and ``gram_matrix`` also take a 1-D array of
spectral points and return (K, N, N) stacks; ``build_weighted``,
``gamma_direct`` and ``check_rcond`` work on one matrix or a stack.
Callers walk long spectral grids in chunks from :func:`stack_chunks`.

The square root branch is fixed with Im sqrt(z) >= 0, so boundary
values on the positive axis are taken from above (sqrt(lambda) >= 0).
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    NonPositiveGram,
    SingularMatrix,
    SingularSchurComplement,
    TailNotContractive,
    ZeroDistance,
)
from .scatterers import _convert, integer, site_bounds

FOUR_PI = 4.0 * np.pi

RCOND_LIMIT = 1e-14

# Entries per (K, N, N) stack: 16384 complex entries are 256 KiB.  On
# N = 5..20 sweeps and scans, 4096 entries ran 20% slower and 65536 no
# faster, while larger stacks raise the peak memory of long sweeps.
STACK_ENTRIES = 16384


def stack_chunks(points, n):
    """Consecutive slices of ``points`` whose (K, n, n) stacks hold at
    most STACK_ENTRIES entries (K >= 1)."""
    step = max(1, STACK_ENTRIES // (n * n))
    for lo in range(0, len(points), step):
        yield points[lo:lo + step]


def branch_sqrt(z):
    """Square root with Im sqrt(z) >= 0; +sqrt(lambda) on the positive axis."""
    s = complex(np.sqrt(complex(z)))
    if s.imag < 0.0:
        s = -s
    return s


@dataclass(frozen=True)
class ComplexEnergy:
    """Spectral point z together with its fixed-branch square root."""

    z: complex
    sqrt_z: complex

    @classmethod
    def from_z(cls, z):
        z = complex(z)
        if not cmath.isfinite(z):
            raise BadParams(f"spectral point must be finite, got {z}")
        return cls(z=z, sqrt_z=branch_sqrt(z))

    @property
    def conj(self):
        return ComplexEnergy.from_z(np.conj(self.z))


def as_energy(z):
    if isinstance(z, ComplexEnergy):
        return z
    return ComplexEnergy.from_z(z)


def _spectral_points(z):
    """``(energies, stacked)``: a 1-D ``z`` is a stack of spectral points."""
    stacked = np.ndim(z) == 1
    return [as_energy(v) for v in (z if stacked else [z])], stacked


def green_at_distance(z, r):
    """Free Green function e^{i sqrt(z) r} / (4 pi r) at distances ``r``.

    Vectorized over ``r``; a 1-D ``z`` adds a leading spectral axis.  All
    distances must be positive.
    """
    es, stacked = _spectral_points(z)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ZeroDistance("free Green function requires positive distance")
    ik = np.array([1j * e.sqrt_z for e in es]).reshape((-1,) + (1,) * r.ndim)
    g = np.exp(ik * r) / (FOUR_PI * r)
    return g if stacked else g[0]


def free_green(z, x):
    """Free Green function of -Delta - z at displacement ``x`` in R^3."""
    x = np.asarray(x, dtype=float)
    return complex(green_at_distance(z, np.linalg.norm(x)))


def build_q(z, s):
    """Coupling matrix Q(z): diagonal i sqrt(z)/(4 pi), off-diagonal the
    free Green function between sites.  Complex symmetric; satisfies
    Q(conj z) = Q(z)^H.

    A 1-D ``z`` gives the (K, N, N) stack of Q at each point.
    """
    es, stacked = _spectral_points(z)
    n = s.n
    q = np.empty((len(es), n, n), dtype=complex)
    # the diagonal per point in Python complex arithmetic: numpy's complex
    # division rounds i sqrt(z) / (4 pi) differently
    q[...] = np.array([1j * e.sqrt_z / FOUR_PI for e in es])[:, None, None]
    if n > 1:
        d = s.distances()
        iu = np.triu_indices(n, 1)
        off = green_at_distance(es if stacked else es[0], d[iu])
        q[:, iu[0], iu[1]] = off
        q[:, iu[1], iu[0]] = off
    return q if stacked else q[0]


def build_weighted(s, q):
    """Weighted matrix Qt = D^{-1/2} Q D^{-1/2} and signature J.

    Returns ``(qtilde, j)`` with ``j`` the 1-D array of weight signs.
    """
    rootw = np.sqrt(s.abs_weights)
    qt = q / np.outer(rootw, rootw)
    return qt, s.signs.astype(float)


def check_rcond(a, label, exc=SingularMatrix):
    """Raise ``exc`` when the SVD reciprocal condition of ``a`` < RCOND_LIMIT.

    ``a`` is one matrix or a (K, N, N) stack; a stack raises for its first
    failing member.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv[..., 0]
    rcond = np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top > 0)
    bad = np.flatnonzero(rcond < RCOND_LIMIT)
    if bad.size:
        r = float(rcond.flat[bad[0]])
        raise exc(f"{label} is numerically singular (rcond {r:.2e})", rcond=r)


def _frobenius(a):
    """Frobenius norm of one matrix or of each member of a stack, summed
    over the real and imaginary views without N^2-sized temporaries."""
    sq = np.einsum("...ij,...ij->...", a.real, a.real)
    if np.iscomplexobj(a):
        sq += np.einsum("...ij,...ij->...", a.imag, a.imag)
    return np.sqrt(sq)


def _checked_inv(a, label, exc=SingularMatrix):
    """Inverse of ``a`` (one matrix or a stack), raising ``exc`` exactly
    where :func:`check_rcond` does.

    Since sigma_max(A) <= ||A||_F and ||A^{-1}||_2 <= ||A^{-1}||_F,
    rcond_2(A) >= 1 / (||A||_F ||X||_F) for X = inv(A).  A member whose
    product stays below RCOND_LIMIT^{-1/2} is certified regular without
    an SVD; the seven orders of margin absorb the rounding error of X.
    The other members go through the SVD check in stack order.
    """
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError as err:
        check_rcond(a, label, exc)
        raise exc(f"{label} is singular ({err})") from err
    cert = _frobenius(a) * _frobenius(x)
    doubtful = np.flatnonzero(~(cert <= RCOND_LIMIT ** -0.5))
    if doubtful.size:
        check_rcond(a[doubtful] if a.ndim == 3 else a, label, exc)
    return x


def gamma_direct(qtilde, j):
    """Gamma = (J + Qt)^{-1} by dense inversion; ``qtilde`` may be a stack.

    Raises SingularMatrix when the SVD reciprocal condition falls below
    1e-14 (for a stack, at its first such member); the SVD runs only
    when the Frobenius certificate of :func:`_checked_inv` fails.
    """
    a = qtilde + np.diag(np.asarray(j, dtype=float))
    return _checked_inv(a, "J + Qtilde")


def _gamma_from_q(q, s):
    """Gamma = (J + Qt)^{-1} from an already built Q (or stack of Q)."""
    return gamma_direct(*build_weighted(s, q))


def gamma_at(z, s):
    """Gamma = (J + Qt)^{-1} of ``s`` at a spectral point ``z``, or the
    (K, N, N) stack of Gamma at each point of a 1-D ``z``."""
    return _gamma_from_q(build_q(z, s), s)


@dataclass(frozen=True)
class SchurFactors:
    """Blocks of the Schur-Frobenius factorization of J + Qt at ``n0``.

    ``w_ring`` is the Schur complement W - P^T R^{-1} P; the triangular
    factors of the three-factor product can be reassembled with
    :meth:`product`.
    """

    w_block: np.ndarray
    r_block: np.ndarray
    p_block: np.ndarray
    w_ring: np.ndarray
    n0: int

    def product(self):
        """Reassemble the three-factor product; equals J + Qt."""
        n0 = self.n0
        nt = self.r_block.shape[0]
        if nt == 0:
            return self.w_block.copy()
        rinv = np.linalg.inv(self.r_block)
        upper = np.block([
            [np.eye(n0), self.p_block.T @ rinv],
            [np.zeros((nt, n0)), np.eye(nt)],
        ])
        middle = np.block([
            [self.w_ring, np.zeros((n0, nt))],
            [np.zeros((nt, n0)), self.r_block],
        ])
        lower = np.block([
            [np.eye(n0), np.zeros((n0, nt))],
            [rinv @ self.p_block, np.eye(nt)],
        ])
        return upper @ middle @ lower

    def imag_w_ring_min(self):
        """Least eigenvalue of Im w_ring = (w_ring - w_ring^H) / 2i."""
        h = (self.w_ring - self.w_ring.conj().T) / 2j
        return float(np.linalg.eigvalsh(h)[0])


def gamma_schur(qtilde, j, split, tail_bound=None):
    """Gamma = (J + Qt)^{-1} through the Schur-Frobenius factorization.

    Parameters
    ----------
    qtilde, j : weighted matrix and signature from :func:`build_weighted`.
    split : int
        Head size N0; the tail holds indices > N0.  ``split == N``
        degenerates to the direct inversion.
    tail_bound : float, optional
        Precomputed p_{N0,L}(b) (see ``scatterers.tail_bound``).  When
        given, TailNotContractive is raised exactly when it is >= 1;
        otherwise the measured tail norm ||Qt_tail||_2 is used.

    Returns
    -------
    (gamma, SchurFactors)
    """
    n = qtilde.shape[0]
    if not 1 <= split <= n:
        raise BadParams(f"split {split} outside 1..{n}")
    a = qtilde + np.diag(np.asarray(j, dtype=float))
    if split == n:
        gamma = _checked_inv(a, "J + Qtilde")
        factors = SchurFactors(w_block=a, r_block=np.empty((0, 0), complex),
                               p_block=np.empty((0, split), complex),
                               w_ring=a.copy(), n0=split)
        return gamma, factors

    if tail_bound is not None:
        if tail_bound >= 1.0:
            raise TailNotContractive(
                f"tail bound p = {tail_bound:.6g} >= 1", bound=float(tail_bound))
    else:
        measured = float(np.linalg.norm(qtilde[split:, split:], 2))
        if measured >= 1.0:
            raise TailNotContractive(
                f"measured tail norm {measured:.6g} >= 1", bound=measured)

    w = a[:split, :split]
    r = a[split:, split:]
    p = qtilde[split:, :split]
    rinv = _checked_inv(r, "tail block R")
    w_ring = w - p.T @ rinv @ p
    wri = _checked_inv(w_ring, "Schur complement W_ring",
                       exc=SingularSchurComplement)
    g12 = -wri @ p.T @ rinv
    g21 = -rinv @ p @ wri
    g22 = rinv + rinv @ p @ wri @ p.T @ rinv
    gamma = np.block([[wri, g12], [g21, g22]])
    return gamma, SchurFactors(w_block=w, r_block=r, p_block=p,
                               w_ring=w_ring, n0=split)


def q_norm_bound(s, z):
    """A-priori bound p_L(z) = max_m (|sqrt z| + K0/eta_m^2 + K1) / (4 pi |w_m|).

    Reduces to |sqrt z| / (4 pi |w|) for a single scatterer (no pairs).
    """
    return float(np.max(site_bounds(s, abs(as_energy(z).sqrt_z))))


@dataclass(frozen=True)
class GramData:
    """Sphere Gram matrix G_N(lambda), its least eigenvalue mu, and lambda.

    For a stack of K spectral points ``g`` is (K, N, N) and ``mu`` and
    ``lam`` are length-K arrays.
    """

    g: np.ndarray
    mu: float
    lam: float


def _gram_from_q(lam, q):
    """GramData of G_N = Im Q(lambda + i0) from an already built Q (one
    matrix, or the stack of a 1-D ``lam``).

    Raises BadParams for a lambda that is not positive and finite, and
    NonPositiveGram when the least eigenvalue is not positive beyond
    round-off; a stack raises for its first failing point.
    """
    for v in np.atleast_1d(lam):
        if not 0 < v < np.inf:
            raise BadParams(f"lambda must be positive and finite, got {v}")
    stacked = np.ndim(lam) == 1
    g = q.imag
    ev = np.linalg.eigvalsh(g if stacked else g[None])
    mu = ev[:, 0]
    # ||G||_2 enters the round-off floor only where mu < 0; G is symmetric,
    # so it is the larger of |mu| and the top eigenvalue
    neg = np.flatnonzero(mu < 0)
    if neg.size:
        floor = -1e-12 * np.maximum(1.0, np.maximum(-mu[neg], ev[neg, -1]))
        bad = neg[mu[neg] <= floor]
        if bad.size:
            raise NonPositiveGram(f"least Gram eigenvalue {mu[bad[0]]:g} <= 0")
    if stacked:
        return GramData(g=g, mu=mu, lam=np.asarray(lam, dtype=float))
    return GramData(g=g, mu=float(mu[0]), lam=float(lam))


def gram_matrix(lam, s):
    """Gram matrix G_N(lambda) of the plane-wave columns on the unit
    sphere, read off the boundary value as Im Q(lambda + i0): entries
    sqrt(lambda)/(4 pi) on the diagonal and sin(sqrt(lambda) r)/(4 pi r)
    off it.  Raises NonPositiveGram when the least eigenvalue is not
    positive beyond round-off.  A 1-D ``lam`` gives the stacked GramData;
    its first failing point raises.
    """
    return _gram_from_q(lam, build_q(lam, s))


def m_sampled(s, n, interval, grid=64):
    """Sampled sup of ||G_N(lambda)^{-1}||_2 over a log-spaced lambda grid.

    A lower estimate of the true supremum M_N([a, b]); the grid default
    is 64 points, and ``grid`` must be a positive integer.
    """
    a, b = interval
    if not 0 < a < b < np.inf:
        raise BadParams("interval must satisfy 0 < a < b < inf")
    grid = _convert(grid, "grid", integer)
    if grid < 1:
        raise BadParams(f"grid must be at least 1, got {grid}")
    sub = s.prefix(n)
    worst = 0.0
    for lams in stack_chunks(np.geomspace(a, b, grid), sub.n):
        ginv = np.linalg.inv(gram_matrix(lams, sub).g)
        worst = max(worst, float(np.linalg.norm(ginv, 2, axis=(1, 2)).max()))
    return worst


def _c_from_q(q, s):
    """C = (Q + 4 pi L)^{-1} from an already built Q."""
    return _checked_inv(q + FOUR_PI * np.diag(s.weights), "Q + 4 pi L")


def c_matrix(z, s):
    """Resolvent coefficient matrix C(z) = (Q(z) + 4 pi L)^{-1}."""
    return _c_from_q(build_q(z, s), s)


@dataclass(frozen=True)
class KreinMatrices:
    """Bundle of the Krein-formula matrices at one spectral point."""

    energy: ComplexEnergy
    q: np.ndarray
    qtilde: np.ndarray
    j: np.ndarray
    gamma: np.ndarray
    c: np.ndarray


def krein_matrices(z, s):
    """Assemble Q, Qt, J, Gamma and C at a spectral point.

    The two inverses parameterize the perturbation with strengths w
    (Gamma route, used by the scattering matrix) and 4 pi w (C route,
    used by the resolvent kernel); D^{-1/2} Gamma D^{-1/2} equals
    (Q + L)^{-1}.
    """
    e = as_energy(z)
    q = build_q(e, s)
    qt, j = build_weighted(s, q)
    gamma = gamma_direct(qt, j)
    c = _c_from_q(q, s)
    return KreinMatrices(energy=e, q=q, qtilde=qt, j=j, gamma=gamma, c=c)


def summability_surrogate(s, z):
    """Hilbert-Schmidt surrogate for the resolvent difference.

    Returns ``(lhs, rhs)`` where lhs = sum_n ||Gt(z) e_n||^2 computed
    from Im Qt(z)/Im z and rhs = (1/8 pi) sum_n (sum_m |b_nm|)^2 with
    b = diag(1/sqrt|w|).  The inequality lhs <= rhs requires
    Im sqrt(z) >= 1 (the 1/Im sqrt(z) factor is dropped in the rhs).
    """
    e = as_energy(z)
    if e.z.imag == 0:
        raise BadParams("summability surrogate needs Im z != 0")
    q = build_q(e, s)
    qt, _ = build_weighted(s, q)
    gram = (qt - qt.conj().T) / (2j * e.z.imag)
    lhs = float(np.sum(np.real(np.diag(gram))))
    rhs = float(np.sum(1.0 / s.abs_weights) / (8.0 * np.pi))
    return lhs, rhs
