"""Quadrature on the unit sphere and plane-wave column blocks.

The workhorse grid is a Gauss-Legendre x uniform-phi product rule whose
weights sum to 4 pi (solid-angle convention).  An order-n product grid
integrates spherical harmonics exactly up to degree 2n - 1.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BadOrder, BadParams
from .krein import gram_matrix, weight_overflow

# Product-grid order cap (2 * 1024**2, about 2.1M nodes); band limits such as
# lambda ~ 1e300 ask for ~1e150 and would overflow the node computation.
MAX_PRODUCT_ORDER = 1024


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes (unit vectors) and positive weights summing to 4 pi."""

    kind: ClassVar[str] = "gauss-legendre-product"
    nodes: np.ndarray
    qweights: np.ndarray
    order: int

    @property
    def size(self):
        return self.nodes.shape[0]

    def integrate(self, values):
        return np.sum(self.qweights * np.asarray(values), axis=-1)


def unit_vector(v):
    """``v`` divided by its length; raises BadParams, without a warning,
    unless ``v`` is a 3-vector of finite nonzero length."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        length = np.linalg.norm(v) if v.shape == (3,) else np.nan
    if not 0 < length < np.inf:
        raise BadParams(f"direction must be a 3-vector of finite nonzero "
                        f"length, got {v.tolist()}")
    return v / length


def direction_angles(dirs):
    """Polar angle theta and azimuth phi in [0, 2 pi) of the unit vectors
    ``dirs`` (one, or an (a, 3) array), as arrays."""
    # a C-ordered copy: numpy's SIMD arccos/arctan2 skip negative strides,
    # and their fallback can differ in the last bit
    dirs = np.ascontiguousarray(np.atleast_2d(dirs), dtype=float)
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi)
    return theta, phi


def _product_grid(order):
    mu, glw = np.polynomial.legendre.leggauss(order)
    m = 2 * order
    phi = 2.0 * np.pi * np.arange(m) / m
    st = np.sqrt(1.0 - mu**2)
    nodes = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(mu, np.ones(m)).ravel(),
        ],
        axis=1,
    )
    qw = np.outer(glw, np.full(m, 2.0 * np.pi / m)).ravel()
    return nodes, qw


def make_grid(order):
    """Build the Gauss-Legendre product grid on the unit sphere.

    It takes ``order`` Gauss-Legendre nodes in cos(theta) times 2*order
    uniform phi nodes and is exact for spherical harmonics up to degree
    2*order - 1.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise BadOrder(f"order must be a positive integer, got {order!r}")
    if order > MAX_PRODUCT_ORDER:
        raise BadOrder(f"grid order {order:.3g} exceeds {MAX_PRODUCT_ORDER}")
    nodes, qw = _product_grid(int(order))
    nodes.flags.writeable = False
    qw.flags.writeable = False
    return SphereGrid(nodes=nodes, qweights=qw, order=int(order))


def default_order(lam, s):
    """Grid order covering the plane-wave band limit of the configuration."""
    return max(16, int(np.ceil(2.0 * np.sqrt(lam) * s.diameter())) + 8)


def default_grid(lam, s):
    return make_grid(default_order(lam, s))


@dataclass(frozen=True)
class PlaneWaveBlock:
    """Sampled plane-wave columns U[m, k] = e^{-i sqrt(lam) x_m . n_k} / sqrt|w_m|."""

    u: np.ndarray
    lam: float
    grid: SphereGrid
    scatterers: object


def _plane_waves(lam, s, dirs):
    """U[m, k] = e^{-i sqrt(lam) x_m . n_k} / sqrt|w_m| at the unit vectors
    ``dirs`` (one, or an (a, 3) array)."""
    k = np.sqrt(lam)
    return (np.exp(-1j * k * (s.points @ np.atleast_2d(dirs).T))
            / np.sqrt(s.abs_weights)[:, None])


def plane_wave_block(lam, s, grid):
    if lam <= 0:
        raise BadParams("lambda must be positive")
    return PlaneWaveBlock(u=_plane_waves(lam, s, grid.nodes), lam=float(lam),
                          grid=grid, scatterers=s)


def overlap_matrix(block):
    """Quadrature Gram of the plane-wave columns, U diag(qw) U^H."""
    return (block.u * block.grid.qweights) @ block.u.conj().T


def weighted_gram_target(lam, s):
    """Exact overlap (16 pi^2 / sqrt(lam)) D^{-1/2} G_N(lam) D^{-1/2}."""
    return gram_overlap(gram_matrix(lam, s), s)


def gram_overlap(gd, s):
    """:func:`weighted_gram_target` from an already built GramData ``gd``
    (one matrix, or a stack for a stacked ``gd``).  Raises BadParams,
    without a warning, when an entry overflows, as ``build_weighted``
    does for Qt."""
    rootw = np.sqrt(s.abs_weights)
    scale = 16.0 * np.pi**2 / np.sqrt(gd.lam)
    scale = np.reshape(scale, np.shape(scale) + (1, 1))
    with np.errstate(over="ignore"):
        b = scale * gd.g / np.outer(rootw, rootw)
    if not np.isfinite(b).all():
        raise weight_overflow("weighted overlap B", s)
    return b


def overlap_error(block):
    """Spectral-norm error of the plane-wave overlap identity on this grid.

    This is the measured grid error used to judge agreement between the
    reduced and quadrature unitarity defects.
    """
    target = weighted_gram_target(block.lam, block.scatterers)
    return float(np.linalg.norm(overlap_matrix(block) - target, 2))
