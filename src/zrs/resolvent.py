"""Explicit Krein resolvent kernel and its identity checks.

The perturbed resolvent is exercised only through its kernel

    K(z; x, x') = g(z; x - x') - sum_{m,n} C_mn g_m(z; x) g_n(z; x'),

with C(z) = (Q(z) + 4 pi L)^{-1} and g_m(z; x) the free Green function
centered at x_m.  All operator identities (Hilbert identity, adjoint
symmetry, zero-range boundary conditions) reduce to matrix identities
plus known Green-function integrals.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, FitUnstable
from .krein import (
    FOUR_PI,
    _c_from_q,
    branch_sqrt,
    build_q,
    c_matrix,
    green_at_distance,
    resolvent_strengths,
)
from .scatterers import write_csv
from .spherical import make_grid, unit_vector

# fixed, arbitrary unit vector for the local boundary-condition rays
_RAY_DIRECTION = unit_vector([0.37, -0.61, 0.70106741])

# boundary fits: default radii in units of the minimum separation, and the
# largest condition number of the design scaled to unit columns
FIT_RADII = np.geomspace(1e-5, 1e-3, 6)
FIT_COND_LIMIT = 1e10
# free_resolvent_reproduction: radial Gauss-Legendre nodes, sphere grid order
RADIAL_ORDER = 96
SPHERE_ORDER = 24


@dataclass(frozen=True)
class ResolventKernel:
    """Evaluable kernel of the perturbed resolvent at one spectral point."""

    z: complex
    c: np.ndarray
    scatterers: object

    def green_columns(self, x):
        """g_m(z; x) for an (..., 3) array of evaluation points."""
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(x[..., None, :] - self.scatterers.points, axis=-1)
        return green_at_distance(self.z, d)

    def evaluate(self, x, xp):
        """K(z; x, x') for broadcastable (..., 3) point arrays."""
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        free = green_at_distance(self.z, np.linalg.norm(x - xp, axis=-1))
        gx = self.green_columns(x)
        gxp = self.green_columns(xp)
        return free - np.einsum("...m,mn,...n->...", gx, self.c, gxp)


def resolvent_kernel(z, s):
    """Build the resolvent kernel; requires Q(z) + 4 pi L invertible."""
    z = complex(z)
    return ResolventKernel(z=z, c=c_matrix(z, s), scatterers=s)


def hilbert_identity_residual(z1, z2, s):
    """Residual ||C(z1) - C(z2) + (z1 - z2) C(z1) Phi C(z2)||_2.

    Phi is the divided difference (Q(z1) - Q(z2)) / (z1 - z2), the
    diagonal included; the residual vanishes in exact arithmetic.
    """
    dz = complex(z1) - complex(z2)
    if dz == 0:
        raise BadParams("z1 and z2 must differ")
    q1, q2 = build_q(z1, s), build_q(z2, s)
    c1 = _c_from_q(q1, s)
    c2 = _c_from_q(q2, s)
    phi = (q1 - q2) / dz
    return float(np.linalg.norm(c1 - c2 + dz * c1 @ phi @ c2, 2))


def symmetry_residual(z, s):
    """Residual ||C(z)^H - C(conj z)||_2 of the adjoint symmetry.  A real
    z > 0 raises BadParams: the branch takes C(lambda + i0) for z and conj z
    alike there, where the identity does not hold."""
    z = complex(z)
    if z.imag == 0 and 0 < z.real < np.inf:
        raise BadParams(f"symmetry residual needs z off (0, inf), got {z}")
    return float(np.linalg.norm(c_matrix(z, s).conj().T
                                - c_matrix(z.conjugate(), s), 2))


def default_fit_radii(s):
    """FIT_RADII scaled by the minimum separation, by 1 for a single site."""
    eta = s.eta[-1]
    return FIT_RADII * (eta if eta < np.inf else 1.0)


def boundary_condition_residual(z, s, source=None, direction=None):
    """Zero-range boundary-condition residuals, one per scatterer.

    Evaluates f = K(z; ., source) on a ray approaching each site, fits
    f ~ a e^{i sqrt(z) rho} / (4 pi rho) + b + c rho by least squares
    over the radii :func:`default_fit_radii`, and returns

        |a i sqrt(z)/(4 pi) + b + 4 pi w_m a| / (|a| + |b|),

    the residual of lim[d/drho (rho f)] + 4 pi w_eff lim[rho f] = 0 for
    the strength w_eff = 4 pi w_m carried by C = (Q + 4 pi L)^{-1}.

    When the fitted singular amplitude is negligible against the
    regular part (|a| sup|g| < 1e-4 |b|, the |w| -> inf regime) the
    strength term is unresolvable and the check degenerates to the
    b-free regularity content |a| sup|g| / (|a| sup|g| + |b|), which is
    ~0 exactly when the kernel is regular at the site.

    ``direction`` fixes the approach ray (scaled by
    :func:`spherical.unit_vector`); the default is an arbitrary fixed one.
    """
    kern = resolvent_kernel(z, s)
    if source is None:
        source = np.mean(s.points, axis=0) + np.array([0.53, 0.71, 0.83])
    source = np.asarray(source, dtype=float)
    d_src = np.linalg.norm(s.points - source, axis=1)
    if np.any(d_src < 1e-9):
        raise BadParams("source must be distinct from every scatterer")
    radii = default_fit_radii(s)
    direction = unit_vector(_RAY_DIRECTION if direction is None else direction)
    # Python complex arithmetic: numpy's complex division by 4 pi rounds
    # differently
    ik = 1j * complex(branch_sqrt(kern.z))
    q_self = ik / FOUR_PI
    sing_col = np.exp(ik * radii) / (FOUR_PI * radii)
    design = np.stack(
        [sing_col, np.ones_like(radii, dtype=complex), radii.astype(complex)],
        axis=1,
    )
    # a singular column that underflows to 0 stays 0 and makes cond inf
    norms = np.linalg.norm(design, axis=0)
    scaled = np.divide(design, norms, out=np.zeros_like(design), where=norms > 0)
    cond = np.linalg.cond(scaled)
    if cond > FIT_COND_LIMIT:
        raise FitUnstable(f"fit design condition {cond:.3g} exceeds {FIT_COND_LIMIT:g}")
    sing_sup = float(np.max(np.abs(sing_col)))
    # all sites' rays in one evaluation, all fits in one (R, N) solve
    xs = s.points[:, None, :] + radii[:, None] * direction
    coef, *_ = np.linalg.lstsq(design, kern.evaluate(xs, source).T, rcond=None)
    a, b = coef[0], coef[1]
    # a kernel that underflows to 0 on a site's ray fits a = b = 0
    scale = np.abs(a) + np.abs(b)
    if not np.all(scale > 0):
        raise FitUnstable("boundary fit is empty: the kernel underflows to 0 "
                          "at the fit radii")
    content = np.abs(a) * sing_sup / (np.abs(a) * sing_sup + np.abs(b))
    strength = np.abs(a * q_self + b + resolvent_strengths(s) * a) / scale
    return np.where(content < 1e-4, content, strength)


@dataclass(frozen=True)
class BumpProfile:
    """Smooth compactly supported radial profile: Gaussian times cutoff.

    phi(r) = exp(-r^2 / (2 sigma^2)) * exp(1 - 1/(1 - (r/R)^2)) inside
    r < R and zero outside; C-infinity on all of R^3.
    """

    radius: float = 1.0
    sigma: float = 0.3

    def value(self, pts):
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        u = (r / self.radius) ** 2
        inside = u < 1.0
        safe = np.where(inside, 1.0 - u, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            cut = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
        return np.exp(-(r**2) / (2.0 * self.sigma**2)) * cut

    def laplacian(self, pts):
        """Delta phi, from the radial log-derivative h = phi'/phi."""
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        u = (r / self.radius) ** 2
        inside = u < 1.0
        rs = np.where(inside, r, 0.0)
        one_u = np.where(inside, 1.0 - u, 1.0)
        rr2, s2 = self.radius**2, self.sigma**2
        h = -rs / s2 - 2.0 * rs / (rr2 * one_u**2)
        hp = -1.0 / s2 - 2.0 / (rr2 * one_u**2) - 8.0 * rs**2 / (rr2**2 * one_u**3)
        lim0 = 2.0 * (-1.0 / s2 - 2.0 / rr2)
        over_r = np.where(rs > 1e-12, 2.0 * h / np.where(rs > 1e-12, rs, 1.0), lim0)
        return np.where(inside, (h**2 + hp + over_r) * self.value(pts), 0.0)

    def source(self, pts, z):
        """(-Delta - z) phi, the density whose free resolvent is phi."""
        return -self.laplacian(pts) - complex(z) * self.value(pts)


def free_resolvent_reproduction(z, points):
    """Residuals |(R(z)(-Delta - z) phi)(x) - phi(x)| at sample points,
    phi the default :class:`BumpProfile` (radius 1, sigma 0.3).

    The integral is taken in spherical coordinates centered at each
    sample point, which cancels the Green-function singularity; the
    integrand is then smooth and Gauss-Legendre converges fast.
    """
    bump = BumpProfile()
    ik = 1j * branch_sqrt(z)
    grid = make_grid(SPHERE_ORDER)
    xr, xw = np.polynomial.legendre.leggauss(RADIAL_ORDER)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    res = np.empty(points.shape[0])
    for i, x in enumerate(points):
        rho_max = bump.radius + float(np.linalg.norm(x))
        rho = 0.5 * rho_max * (xr + 1.0)
        rw = 0.5 * rho_max * xw
        pts = x[None, None, :] + rho[:, None, None] * grid.nodes[None, :, :]
        f = bump.source(pts.reshape(-1, 3), z).reshape(len(rho), -1)
        sphere_part = f @ grid.qweights
        val = np.sum(rw * rho * np.exp(ik * rho) / FOUR_PI * sphere_part)
        res[i] = abs(val - bump.value(x))
    return res


KERNEL_SLICE_CSV_HEADER = "rho,re_k,im_k"


def write_kernel_slice_csv(kern, x0, direction, radii, out):
    """CSV of K(z; x0 + rho d, x0) along a ray (for plots), d =
    ``unit_vector(direction)``."""
    direction = unit_vector(direction)
    radii = np.asarray(radii, dtype=float)
    xs = np.asarray(x0, dtype=float) + radii[:, None] * direction
    vals = kern.evaluate(xs, np.asarray(x0, dtype=float))
    write_csv(out, KERNEL_SLICE_CSV_HEADER,
              ((r, v.real, v.imag) for r, v in zip(radii, vals)))
