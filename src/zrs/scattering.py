"""Scattering matrix on the unit sphere and its unitarity checks.

S(lambda) is stored as identity plus a finite-rank correction: with
u_m(n) = e^{-i sqrt(lam) x_m . n} / sqrt|w_m| and the coefficient
matrix T = i sqrt(lam)/(8 pi^2) Gamma(lambda + i0),

    (S f)(n) = f(n) - sum_{m,m'} T_mm' u_m(n) <f, u_m'>.

The reduced defect ||M||_2 of the coefficient matrix of S* S - I
vanishes by algebra and measures the rounding of Gamma; the brute-force
quadrature defect is the independent check that S is unitary (the sign
of the kernel prefactor is fixed so that it is; see the tests).
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._blas import serial_blas
from .errors import BadParams, GridMismatch, SingularMatrix, ZrsError
from .krein import (_gamma_from_q, _gram_from_q, build_q, build_weighted,
                    check_rcond, gamma_levels, gamma_schur, stack_chunks,
                    weight_overflow)
from .scatterers import (_convert, integer, positive, tail_bound, window,
                         write_csv)
from .spherical import (_plane_waves, default_grid, direction_angles,
                        gram_overlap, plane_wave_block, unit_vector)

JUMP_FACTOR = 10.0


@dataclass(frozen=True)
class SMatrixRep:
    """Finite-rank representation of S(lambda).

    ``coeff`` is the dimensionless matrix T = i sqrt(lam)/(8 pi^2) Gamma;
    the plane-wave weight factors 1/sqrt|w| are applied at evaluation
    time.  ``gamma`` is the Gamma that ``coeff`` was formed from and ``q``
    the Q(lambda + i0) that Gamma was built from; the 2-norm condition
    number ``gamma_cond`` takes an SVD on first read and is kept.
    """

    lam: float
    coeff: np.ndarray
    scatterers: object
    gamma: np.ndarray
    q: np.ndarray

    @functools.cached_property
    def gamma_cond(self):
        return float(np.linalg.cond(self.gamma))


def smatrix(lam, s, split=None):
    """Assemble the scattering-matrix representation at lambda > 0.

    Parameters
    ----------
    lam : float
        Spectral parameter (boundary value from above).
    s : ScattererSet
        Truncate a family with ``s.prefix(n)``.
    split : int, optional
        When given, Gamma is computed through the Schur-Frobenius
        route with this head size (converted as ``scatterers.integer``
        does), admitted by the tail bound p_{N0,L}(lam) of ``s``
        (propagates TailNotContractive).
    """
    lam = positive(lam, "lambda")
    if split is not None:
        split = _convert(split, "split", integer)
    p = None if split is None else tail_bound(s, split, lam)
    q = build_q(lam, s)
    if split is None:
        gamma = _gamma_from_q(q, s)
    else:
        gamma, _ = gamma_schur(*build_weighted(s, q), split, p)
    coeff = 1j * np.sqrt(lam) / (8.0 * np.pi**2) * gamma
    return SMatrixRep(lam=float(lam), coeff=coeff, scatterers=s, gamma=gamma,
                      q=q)


@dataclass(frozen=True)
class SphereFunction:
    """Complex samples on a sphere grid, with the quadrature norm."""

    values: np.ndarray
    grid: object

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.size,):
            raise GridMismatch(
                f"values shape {v.shape} does not match grid size {self.grid.size}")
        object.__setattr__(self, "values", v)

    def norm(self):
        return float(np.sqrt(np.sum(self.grid.qweights
                                    * np.abs(self.values) ** 2)))


def _blocks(rep, grid):
    """The plane-wave block u on ``grid`` and its quadrature-weighted
    conjugate, which forms the inner products <f, u_m>."""
    u = plane_wave_block(rep.lam, rep.scatterers, grid).u
    return u, u.conj() * grid.qweights


def _apply(u, uw, f, coeff):
    """f - u^T coeff <f, u>, with ``u, uw = _blocks(rep, f.grid)``."""
    out = f.values - u.T @ (coeff @ (uw @ f.values))
    return SphereFunction(values=out, grid=f.grid)


def apply_smatrix(rep, f):
    """Apply S to a sphere function through quadrature inner products."""
    return _apply(*_blocks(rep, f.grid), f, rep.coeff)


def apply_smatrix_adjoint(rep, f):
    """Apply S* (the coefficient matrix is conjugate-transposed)."""
    return _apply(*_blocks(rep, f.grid), f, rep.coeff.conj().T)


def kernel_correction(rep, dirs_out, dirs_in):
    """Values of S(n, n') - delta(n - n') at direction pairs.

    ``dirs_out`` and ``dirs_in`` are arrays of unit vectors with shapes
    (a, 3) and (b, 3); returns the (a, b) matrix
    -sum T_mm' u_m(n) conj(u_m'(n')).
    """
    u_out = _plane_waves(rep.lam, rep.scatterers, dirs_out)
    u_in = _plane_waves(rep.lam, rep.scatterers, dirs_in)
    return -(u_out.T @ rep.coeff @ u_in.conj())


def unitarity_defect_reduced(rep):
    """||M||_2 of the coefficient matrix M of S* S - I for ``rep``.

    With a = sqrt(lam)/(8 pi^2) and B the exact plane-wave overlap
    matrix,

        M = ia (Gamma^H - Gamma) + a^2 Gamma^H B Gamma,

    measured on ``rep.gamma`` (the Schur-route Gamma for ``smatrix(...,
    split=n0)``) with G_N read off ``rep.q``.  M vanishes by algebra:
    with Gt = Im Qt, Gamma^H - Gamma = 2i Gamma^H Gt Gamma and a^2 B =
    2a Gt, so the figure measures the rounding of Gamma, not the
    plane-wave formula.  It is not the operator defect: S*S - I = U M U^H
    with U^H U = B, so ||S* S - I|| = ||B^{1/2} M B^{1/2}||_2.
    :func:`unitarity_defect_quadrature` is the independent check.  M is
    Hermitian, so its norm is its largest eigenvalue modulus (see
    :func:`_defect_reduced`).
    """
    b = gram_overlap(_gram_from_q(rep.lam, rep.q), rep.scatterers)
    return float(_defect_reduced(rep.lam, rep.gamma, b))


def _defect_matrix(lam, gamma, b):
    """The S*S - I coefficient matrix ia (Gamma^H - Gamma) + a^2 Gamma^H B
    Gamma; a 1-D ``lam`` goes with (K, N, N) stacks ``gamma`` and ``b``.
    a^2 is taken by ``float_power``, which rounds as the scalar power
    does; the array power ``a**2`` multiplies and differs in the last bit
    for some lambda."""
    a = (np.sqrt(lam) / (8.0 * np.pi**2))[..., None, None]
    ia = 1j * a
    a2 = np.float_power(a, 2)
    gh = np.swapaxes(gamma.conj(), -1, -2)
    defect = ia * (gh - gamma)
    # fewer stacks alive at once keeps a sweep's peak memory at the
    # per-lambda loop's level
    m = a2 * gh
    del gh
    defect += m @ b @ gamma
    return defect


def _defect_reduced(lam, gamma, b):
    """Spectral norm of the S*S - I coefficient matrix M (per lambda for a
    1-D ``lam``): zero by algebra, so a measure of the rounding of Gamma,
    and ||B^{1/2} M B^{1/2}||_2 would be the operator defect (see
    :func:`unitarity_defect_reduced`).

    The matrix is Hermitian by construction, and the 2-norm of a Hermitian
    matrix is max |eigenvalue| (Golub & Van Loan, Matrix Computations,
    4th ed., 8.1), which ``eigvalsh`` gives at about half the cost of an
    SVD.  ``eigvalsh`` reads the lower triangle only, so the round-off
    asymmetry of the computed matrix is dropped rather than symmetrized;
    the result differs from the SVD norm by at most that asymmetry plus
    round-off."""
    ev = np.linalg.eigvalsh(_defect_matrix(lam, gamma, b))
    return np.maximum(-ev[..., 0], ev[..., -1])


def unitarity_defect_quadrature(rep, grid, seed=0):
    """Brute-force unitarity defect max ||S*Sf - f|| / ||f|| over 8 random f.

    Half of the trials are drawn inside the span of the plane-wave
    columns (where the finite-rank defect lives), the rest are raw
    nodal noise.  The plane-wave block and its weighted conjugate are
    built once for all trials.  Raises BadParams, without a warning, when
    a trial's norms overflow (the block scales as 1/sqrt|w|).
    """
    rng = _convert(seed, "seed", lambda v: np.random.default_rng(integer(v)))
    u, uw = _blocks(rep, grid)
    adjoint = rep.coeff.conj().T
    worst = 0.0
    for t in range(8):
        if t % 2 == 0:
            c = rng.standard_normal(u.shape[0]) + 1j * rng.standard_normal(u.shape[0])
            vals = u.T @ c
        else:
            vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        f = SphereFunction(values=vals, grid=grid)
        with np.errstate(over="ignore", invalid="ignore"):
            nf = f.norm()
            if nf == 0.0:
                continue
            g = _apply(u, uw, _apply(u, uw, f, rep.coeff), adjoint)
            ratio = SphereFunction(g.values - f.values, grid).norm() / nf
        if not np.isfinite([nf, ratio]).all():
            raise weight_overflow("quadrature defect", rep.scatterers)
        worst = max(worst, ratio)
    return worst


def smatrix_minus_identity_norm(rep):
    """Operator norm of S - I on L^2(S_2), exact for the finite-rank part.

    Equals ||B^{1/2} T B^{1/2}||_2 with B the exact plane-wave overlap.
    """
    b = gram_overlap(_gram_from_q(rep.lam, rep.q), rep.scatterers)
    vals, vecs = np.linalg.eigh(b)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return float(np.linalg.norm(root @ rep.coeff @ root, 2))


def omega_unitary(upsilon, lam_mat):
    """Gram-metric unitary Omega = I - 2i (Lambda + i Upsilon)^{-1} Upsilon.

    ``upsilon`` is the Hermitian positive Gram matrix of the frame,
    ``lam_mat`` any Hermitian matrix with Lambda + i Upsilon invertible.
    The result satisfies Omega^H Upsilon Omega = Upsilon.
    """
    upsilon = np.asarray(upsilon, dtype=complex)
    lam_mat = np.asarray(lam_mat, dtype=complex)
    a = lam_mat + 1j * upsilon
    check_rcond(a, "Lambda + i Upsilon")
    n = upsilon.shape[0]
    return np.eye(n) - 2j * np.linalg.solve(a, upsilon)


def cross_section(rep, incident):
    """Angular pattern |sum T_mm' u_m(n) conj(u_m'(incident))|^2 on the
    default grid of ``rep``.

    A plotting aid for the magnitude of the S - I kernel against a
    fixed incident direction (:func:`spherical.unit_vector` scales it);
    returns a SphereFunction of real values.
    """
    grid = default_grid(rep.lam, rep.scatterers)
    incident = unit_vector(incident)
    amp = kernel_correction(rep, grid.nodes, incident[None, :])[:, 0]
    return SphereFunction(values=np.abs(amp) ** 2 + 0j, grid=grid)


@dataclass(frozen=True)
class ContinuityScan:
    """Finite differences of Gamma along a lambda grid."""

    lambdas: np.ndarray
    increments: np.ndarray
    flagged: np.ndarray

    @property
    def max_increment(self):
        return float(np.max(self.increments))


def _gamma_chunks(s, lambdas, gram=False):
    """Gamma (and with ``gram`` also G_N) along ``lambdas``, one stack per
    chunk of :func:`krein.stack_chunks`; each stack's Q is built once and
    gives both, G_N as Im Q.

    Yields ``(lams, gammas, gd, steps)``: ``gd`` the stacked GramData or
    None, ``steps`` the increments ||Gamma_k - Gamma_{k-1}||_2, nan at the
    first lambda of the walk.  A chunk that fails is replayed one lambda
    at a time, so the first failing lambda decides the error and, at one
    lambda, a Gamma failure comes before a G_N failure, as in a per-lambda
    loop.
    """
    prev = None
    for lams in stack_chunks(lambdas, s.n):
        try:
            q = build_q(lams, s)
            gammas = _gamma_from_q(q, s)
            gd = _gram_from_q(lams, q) if gram else None
        except ZrsError:
            for lam in lams:
                q = build_q(lam, s)
                try:
                    _gamma_from_q(q, s)
                except SingularMatrix as exc:
                    raise SingularMatrix(
                        f"Gamma inversion failed at lambda={lam:g}: {exc}",
                        rcond=exc.rcond) from exc
                if gram:
                    _gram_from_q(lam, q)
            raise
        walked = gammas if prev is None else np.concatenate([prev[None], gammas])
        steps = np.linalg.norm(np.diff(walked, axis=0), 2, axis=(1, 2))
        if prev is None:
            steps = np.concatenate([[np.nan], steps])
        prev = gammas[-1]
        yield lams, gammas, gd, steps


def gamma_continuity_scan(s, n, interval, points):
    """Scan ||Gamma(lam_{k+1}) - Gamma(lam_k)||_2 on a uniform grid.

    Parameters
    ----------
    points : int
        Number of lambda samples (>= 2); ``points = 2`` yields a single
        difference.

    An increment is flagged when it exceeds JUMP_FACTOR times the median
    increment (relative jump detection on a fixed grid).

    Inversion failures are re-raised with the offending lambda attached.
    """
    a, b = window(interval)
    points = _convert(points, "points", integer)
    if points < 2:
        raise BadParams("need at least two lambda samples")
    sub = s.prefix(n)
    lams = np.linspace(a, b, points)
    # a library entry point with no command around it, so it opens its own
    # region; the increments then match zrs sweep's bit for bit
    with serial_blas():
        inc = np.concatenate([steps for *_, steps in _gamma_chunks(sub, lams)])[1:]
    med = float(np.median(inc)) if len(inc) else 0.0
    flagged = inc > JUMP_FACTOR * med if med > 0 else np.zeros(len(inc), bool)
    return ContinuityScan(lambdas=lams[1:], increments=inc, flagged=flagged)


KERNEL_CSV_HEADER = "theta,phi,theta_p,phi_p,re_s,im_s"
DEFECT_CSV_HEADER = "lambda,defect_reduced,gamma_norm,gamma_cond,mu,increment"
CROSS_SECTION_CSV_HEADER = "theta,phi,value"
NSWEEP_CSV_HEADER = "n_low,n_high,gamma_diff"


def write_kernel_csv(rep, dirs_out, dirs_in, out):
    """CSV of the S - delta kernel at all (out, in) direction pairs."""
    vals = kernel_correction(rep, dirs_out, dirs_in)
    ang_out = zip(*direction_angles(dirs_out))
    ang_in = list(zip(*direction_angles(dirs_in)))
    write_csv(out, KERNEL_CSV_HEADER,
              ((*a_out, *a_in, v.real, v.imag)
               for a_out, row in zip(ang_out, vals)
               for a_in, v in zip(ang_in, row)))


def write_cross_section_csv(pattern, out):
    theta, phi = direction_angles(pattern.grid.nodes)
    write_csv(out, CROSS_SECTION_CSV_HEADER,
              zip(theta, phi, pattern.values.real))


def lambda_rows(s, lambdas):
    """Yield one DEFECT_CSV_HEADER row of numbers per lambda.  Q is built
    once per lambda and gives Gamma and G_N.  Each chunk takes two batched
    SVDs, of Gamma for gamma_norm and gamma_cond (as np.linalg.norm(., 2)
    and np.linalg.cond do) and of the Gamma differences for the increment,
    and two batched ``eigvalsh``: the Hermitian defect matrix M, whose
    norm is the defect_reduced column (:func:`_defect_reduced`; ||M||_2,
    the rounding of Gamma, not ||S* S - I||), and G_N (its mu)."""
    lambdas = positive(lambdas, "lambda")
    for lams, gammas, gd, steps in _gamma_chunks(s, lambdas, gram=True):
        defect = _defect_reduced(lams, gammas, gram_overlap(gd, s))
        sv = np.linalg.svd(gammas, compute_uv=False)
        yield from ((lam, d, v[0], v[0] / v[-1], mu, inc)
                    for lam, d, v, mu, inc in zip(lams, defect, sv, gd.mu, steps))


def write_defect_csv(s, lambdas, out):
    """Defect-vs-lambda table: unitarity defect, Gamma norms, Gram mu and
    the Gamma increment from the previous lambda (nan at the first)."""
    write_csv(out, DEFECT_CSV_HEADER, lambda_rows(s, lambdas))


def write_truncation_csv(s, lam, levels, out):
    """N-sweep table at lambda > 0: for each consecutive pair (lo, hi) of
    ``levels`` (at least two prefix lengths of ``s``), ||Gamma_hi -
    Gamma_lo||_2 on their common leading block.  Only the largest level
    is built as a set, and its Qt once; :func:`krein.gamma_levels` grows
    the levels from it.  The first level out of range raises.
    """
    lam = positive(lam, "lambda")
    levels = [_convert(v, "level", integer) for v in levels]
    if len(levels) < 2:
        raise BadParams("N-sweep needs at least two truncations")
    bad = [n for n in levels if not 1 <= n <= s.n]
    top = s.prefix(bad[0] if bad else max(levels))
    gammas = gamma_levels(*build_weighted(top, build_q(lam, top)), levels)
    rows = []
    for lo, hi in zip(levels, levels[1:]):
        m = min(lo, hi)
        diff = np.linalg.norm(gammas[hi][:m, :m] - gammas[lo][:m, :m], 2)
        rows.append((lo, hi, float(diff)))
    write_csv(out, NSWEEP_CSV_HEADER, rows)
