"""Krein-formula matrices for zero-range perturbations of the 3-D Laplacian.

Builds the free Green function, the coupling matrix Q(z) with diagonal
i sqrt(z)/(4 pi), its weighted form Qt = D^{-1/2} Q D^{-1/2} with
D = diag|w_m| and signature J = diag(sign w_m), the boundary-value
coefficient matrix Gamma = (J + Qt)^{-1}, the resolvent coefficient
C = (Q + 4 pi L)^{-1}, the sphere Gram matrix G_N(lambda), and the
Schur-Frobenius block inversion admitted by the tail bound.

``build_q``, ``gamma_at`` and ``gram_matrix`` also take a 1-D array of
spectral points and return (K, N, N) stacks; ``build_weighted``,
``gamma_direct`` and ``check_rcond`` work on one matrix or a stack.
Callers walk long spectral grids in chunks from :func:`stack_chunks`.
:func:`gamma_levels` gives Gamma of nested leading blocks (the levels of
an N-sweep), each larger one bordered up from the one below it.

A spectral point is a complex number, and a stack of them a 1-D array.
:func:`branch_sqrt` fixes the square root branch with Im sqrt(z) >= 0,
so boundary values on the positive axis are taken from above
(sqrt(lambda) >= 0).
"""

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
from .scatterers import _convert, _positive, integer, window

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
    """Square root with Im sqrt(z) >= 0, +sqrt(lambda) on the positive
    axis, of a spectral point or of each point of an array of them.

    A scalar ``z`` gives a numpy complex scalar.  Raises BadParams for a
    ``z`` that is no complex number, and names its first non-finite point.
    """
    z = _convert(z, "z", lambda v: np.asarray(v, dtype=complex))
    bad = ~np.isfinite(z)
    if bad.any():
        raise BadParams(f"spectral point must be finite, got {z[bad][0]}")
    s = np.sqrt(z)
    return np.where(s.imag < 0, -s, s)[()]


def green_at_distance(z, r):
    """Free Green function e^{i sqrt(z) r} / (4 pi r) at distances ``r``.

    Vectorized over ``r``; an array ``z`` adds its axes in front.  All
    distances must be positive.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ZeroDistance("free Green function requires positive distance")
    ik = 1j * branch_sqrt(z)
    ik = np.reshape(ik, np.shape(ik) + (1,) * r.ndim)
    return np.exp(ik * r) / (FOUR_PI * r)


def build_q(z, s):
    """Coupling matrix Q(z): diagonal i sqrt(z)/(4 pi), off-diagonal the
    free Green function between sites.  Complex symmetric; satisfies
    Q(conj z) = Q(z)^H.

    A 1-D ``z`` gives the (K, N, N) stack of Q at each point.
    """
    ik = 1j * branch_sqrt(z)
    n = s.n
    q = np.empty(np.shape(ik) + (n, n), dtype=complex)
    # the diagonal part by part: numpy's complex-by-real division
    # multiplies by the reciprocal and rounds i sqrt(z) / (4 pi) differently
    diag = np.empty(np.shape(ik) + (1,), dtype=complex)
    diag.real = np.real(ik)[..., None] / FOUR_PI
    diag.imag = np.imag(ik)[..., None] / FOUR_PI
    site = np.arange(n)
    q[..., site, site] = diag
    # the pairs, in the row order of each matrix's lower triangle, written
    # there and, through the transposed view, to their mirrors; a mask of
    # q's whole shape takes numpy's fast boolean path, which a mask on the
    # last two axes alone does not
    low = np.empty(q.shape, dtype=bool)
    low[...] = np.tri(n, k=-1, dtype=bool)
    off = green_at_distance(z, s.pair_distances()).ravel()
    q[low] = off
    np.swapaxes(q, -1, -2)[low] = off
    return q


def build_weighted(s, q):
    """Weighted matrix Qt = D^{-1/2} Q D^{-1/2} and signature J.

    Returns ``(qtilde, j)`` with ``j`` the 1-D array of weight signs.
    Raises BadParams, without a warning, when an entry of Qt overflows
    (a weight near the bottom of the float range).
    """
    rootw = np.sqrt(s.abs_weights)
    with np.errstate(over="ignore", invalid="ignore"):
        qt = q / np.outer(rootw, rootw)
    if not np.isfinite(qt).all():
        raise weight_overflow("weighted matrix Qtilde", s)
    return qt, s.signs.astype(float)


def weight_overflow(what, s):
    """The BadParams for ``what``, scaled by 1/|w|, overflowing at the
    least weight of ``s``."""
    return BadParams(f"{what} overflows (least |w| = {np.min(s.abs_weights):g})")


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


def _certified(a, x):
    """Whether the computed inverse ``x`` certifies ``a`` (one matrix or
    each member of a stack) regular: ||A||_F ||X||_F <= RCOND_LIMIT^{-1/2}.

    Since sigma_max(A) <= ||A||_F and ||A^{-1}||_2 <= ||A^{-1}||_F,
    rcond_2(A) >= 1 / (||A||_F ||X||_F) for X = inv(A); the seven orders
    of margin absorb the rounding error of X.  A product that overflows,
    or is inf * 0 (one norm overflowed, the other underflowed), is not a
    certificate, and no warning is given.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _frobenius(a) * _frobenius(x) <= RCOND_LIMIT ** -0.5


def _checked_inv(a, label, exc=SingularMatrix):
    """Inverse of ``a`` (one matrix or a stack), raising ``exc`` exactly
    where :func:`check_rcond` does.

    A member that :func:`_certified` accepts is regular without an SVD;
    the other members go through the SVD check in stack order.
    """
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError as err:
        check_rcond(a, label, exc)
        raise exc(f"{label} is singular ({err})") from err
    doubtful = np.flatnonzero(~_certified(a, x))
    if doubtful.size:
        n = a.shape[-1]
        check_rcond(a.reshape(-1, n, n)[doubtful], label, exc)
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


def _schur_step(a, pivot_inv, piv, rest, out):
    """One Schur-Frobenius step (block LU; Golub & Van Loan, Matrix
    Computations, 4th ed.): writes ``out[i, i] = a[i, i]^{-1}`` for ``i``
    the indices of the slices ``piv`` and ``rest``, given ``pivot_inv =
    a[piv, piv]^{-1}``, and returns the Schur complement S.  For complex
    symmetric ``a`` the lower blocks are transposes of the upper ones:

        P = a[rest, piv],  X = pivot_inv P^T,  S = a[rest, rest] - P X,
        Y = X S^{-1},  [[pivot_inv + Y X^T, -Y], [-Y^T, S^{-1}]].

    The blocks are written in place, as every large temporary costs fresh
    pages; S is inverted by :func:`_checked_inv`, raising
    SingularSchurComplement.
    """
    p = a[rest, piv]
    x = pivot_inv @ p.T
    s = p @ x
    np.subtract(a[rest, rest], s, out=s)
    out[rest, rest] = _checked_inv(s, "Schur complement W_ring",
                                   SingularSchurComplement)
    # with X negated in place, y = -Y and y (-X)^T = Y X^T
    y = np.negative(x, out=x) @ out[rest, rest]
    out[piv, rest] = y
    out[rest, piv] = y.T
    np.matmul(y, x.T, out=out[piv, piv])
    out[piv, piv] += pivot_inv
    return s


def gamma_levels(qtilde, j, levels):
    """Gamma = (J + Qt)^{-1} of the leading blocks of orders ``levels``, as
    ``{level: Gamma}`` for the distinct levels.

    The smallest level is inverted by :func:`gamma_direct`; each larger
    level ``hi`` grows from the next smaller ``lo`` by a :func:`_schur_step`
    with pivot ``:lo``.  A level goes through :func:`gamma_direct` instead
    when the step raises SingularSchurComplement, its Gamma fails
    :func:`_certified`, or the level below was not certified (it passed
    the SVD check only).  When a level raises, the levels are inverted
    again by :func:`gamma_direct` in the order given, so the first
    singular level in that order decides the error.  Each level is
    converted as ``scatterers.integer`` does (BadParams naming it).
    """
    n = qtilde.shape[0]
    levels = [_convert(v, "level", integer) for v in levels]
    if not all(1 <= v <= n for v in levels):
        raise BadParams(f"levels {list(levels)} outside 1..{n}")

    a = qtilde.copy()
    a[np.diag_indices(n)] += j
    gammas = {}
    lo = None
    try:
        for hi in sorted(set(levels)):
            ok = False
            if lo is not None:
                gamma = np.empty((hi, hi), dtype=complex)
                try:
                    _schur_step(a, gammas[lo], slice(0, lo), slice(lo, hi), gamma)
                    ok = _certified(a[:hi, :hi], gamma)
                except SingularSchurComplement:
                    pass
            if not ok:
                gamma = gamma_direct(qtilde[:hi, :hi], j[:hi])
                ok = _certified(a[:hi, :hi], gamma)
            lo = hi if ok else None
            gammas[hi] = gamma
    except SingularMatrix:
        for v in dict.fromkeys(levels):
            gamma_direct(qtilde[:v, :v], j[:v])
        raise
    return gammas


@dataclass(frozen=True)
class SchurFactors:
    """Blocks of the Schur-Frobenius factorization of J + Qt.

    ``w_ring`` is the Schur complement W - P^T R^{-1} P; the triangular
    factors of the three-factor product can be reassembled with
    :meth:`product`.  The tail blocks are empty at split N.
    """

    w_block: np.ndarray
    r_block: np.ndarray
    p_block: np.ndarray
    w_ring: np.ndarray

    def product(self):
        """Reassemble the three-factor product; equals J + Qt."""
        n0 = self.w_block.shape[0]
        nt = self.r_block.shape[0]
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


def gamma_schur(qtilde, j, split, tail_bound):
    """Gamma = (J + Qt)^{-1} through the Schur-Frobenius factorization:
    one :func:`_schur_step` with the tail block R as pivot.

    Parameters
    ----------
    qtilde, j : weighted matrix and signature from :func:`build_weighted`.
    split : int
        Head size N0, converted as ``scatterers.integer`` does; the tail
        holds indices > N0.  At ``split == N`` the tail is empty and the
        step inverts W = J + Qt as its complement.
    tail_bound : float
        The tail bound p_{N0,L}(b) (``scatterers.tail_bound``); raises
        TailNotContractive exactly when it is >= 1.

    Returns
    -------
    (gamma, SchurFactors)
    """
    n = qtilde.shape[0]
    split = _convert(split, "split", integer)
    if not 1 <= split <= n:
        raise BadParams(f"split {split} outside 1..{n}")
    a = qtilde + np.diag(np.asarray(j, dtype=float))
    if tail_bound >= 1.0:
        raise TailNotContractive(
            f"tail bound p = {tail_bound:.6g} >= 1", bound=float(tail_bound))

    rinv = _checked_inv(a[split:, split:], "tail block R")
    gamma = np.empty((n, n), dtype=complex)
    w_ring = _schur_step(a, rinv, slice(split, n), slice(0, split), gamma)
    return gamma, SchurFactors(w_block=a[:split, :split],
                               r_block=a[split:, split:],
                               p_block=qtilde[split:, :split],
                               w_ring=w_ring)


@dataclass(frozen=True)
class GramData:
    """Sphere Gram matrix G_N(lambda), its least eigenvalue mu, and lambda.

    For a stack of K spectral points ``g`` is (K, N, N) and ``mu`` and
    ``lam`` are length-K arrays; for one point they are floats.
    """

    g: np.ndarray
    mu: float
    lam: float


def _gram_from_q(lam, q):
    """GramData of G_N = Im Q(lambda + i0) from an already built Q (one
    matrix, or the stack of a 1-D ``lam``).

    ``lam`` must have passed ``scatterers._positive``.  Raises
    NonPositiveGram when the least eigenvalue is not positive beyond
    round-off; a stack raises for its first failing point.
    """
    g = q.imag
    ev = np.linalg.eigvalsh(g)
    mu = ev[..., 0]
    # the floor -1e-12 max(1, ||G||_2) is negative, so only a negative mu
    # can fall on it; G is symmetric, so ||G||_2 is then the larger of |mu|
    # and the top eigenvalue
    floor = -1e-12 * np.maximum(1.0, np.maximum(-mu, ev[..., -1]))
    bad = np.flatnonzero(mu <= floor)
    if bad.size:
        raise NonPositiveGram(f"least Gram eigenvalue {mu.flat[bad[0]]:g} <= 0")
    return GramData(g=g, mu=mu[()], lam=np.asarray(lam)[()])


def gram_matrix(lam, s):
    """Gram matrix G_N(lambda) of the plane-wave columns on the unit
    sphere, read off the boundary value as Im Q(lambda + i0): entries
    sqrt(lambda)/(4 pi) on the diagonal and sin(sqrt(lambda) r)/(4 pi r)
    off it.  Raises NonPositiveGram when the least eigenvalue is not
    positive beyond round-off.  A 1-D ``lam`` gives the stacked GramData;
    its first failing point raises.
    """
    lam = _positive(lam, "lambda", (0, 1))
    return _gram_from_q(lam, build_q(lam, s))


def m_sampled(s, n, interval):
    """Sampled sup of ||G_N(lambda)^{-1}||_2 over a log-spaced lambda grid
    of 64 points: a lower estimate of the true supremum M_N([a, b]).
    """
    a, b = window(interval)
    sub = s.prefix(n)
    worst = 0.0
    for lams in stack_chunks(np.geomspace(a, b, 64), sub.n):
        ginv = np.linalg.inv(gram_matrix(lams, sub).g)
        worst = max(worst, float(np.linalg.norm(ginv, 2, axis=(1, 2)).max()))
    return worst


def resolvent_strengths(s):
    """The strengths 4 pi w_m that the resolvent route C = (Q + 4 pi L)^{-1}
    carries for config weights w_m; the Gamma route carries w_m itself."""
    return FOUR_PI * s.weights


def _c_from_q(q, s):
    """C = (Q + 4 pi L)^{-1} from an already built Q."""
    return _checked_inv(q + np.diag(resolvent_strengths(s)), "Q + 4 pi L")


def c_matrix(z, s):
    """Resolvent coefficient matrix C(z) = (Q(z) + 4 pi L)^{-1}."""
    return _c_from_q(build_q(z, s), s)


@dataclass(frozen=True)
class KreinMatrices:
    """Bundle of the Krein-formula matrices at one spectral point."""

    z: complex
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
    z = _convert(z, "z", complex)
    q = build_q(z, s)
    qt, j = build_weighted(s, q)
    gamma = gamma_direct(qt, j)
    c = _c_from_q(q, s)
    return KreinMatrices(z=z, q=q, qtilde=qt, j=j, gamma=gamma, c=c)

