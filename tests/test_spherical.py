"""Sphere quadrature and plane-wave blocks."""

import numpy as np
import pytest

from zrs import (
    BadOrder,
    ScattererSet,
    default_order,
    gram_matrix,
    make_grid,
    overlap_error,
    overlap_matrix,
    plane_wave_block,
    weighted_gram_target,
)

from zrs.spherical import MAX_PRODUCT_ORDER

from conftest import make_config

FOUR_PI = 4 * np.pi


def test_weights_sum_and_unit_nodes():
    for order in (1, 24):
        g = make_grid(order)
        assert abs(np.sum(g.qweights) - FOUR_PI) < 1e-12
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1)) < 1e-14
        assert np.all(g.qweights > 0)


def test_plane_wave_closed_form():
    # int e^{i k.n} dOmega = 4 pi sin|k|/|k|, here |k| = 2
    k = np.array([0.0, 1.2, 1.6])
    g = make_grid(16)
    val = g.integrate(np.exp(1j * (g.nodes @ k)))
    assert abs(val - FOUR_PI * np.sin(2.0) / 2.0) < 1e-10


def test_second_moment():
    g = make_grid(6)
    for e in np.eye(3):
        assert abs(g.integrate((g.nodes @ e) ** 2) - FOUR_PI / 3) < 1e-12
    # odd moments vanish
    assert abs(g.integrate(g.nodes[:, 0])) < 1e-13
    assert abs(g.integrate(g.nodes[:, 0] * g.nodes[:, 1] ** 2)) < 1e-13


def test_monomial_exactness_at_band_limit():
    # order n integrates polynomials of degree <= 2n - 1 exactly
    g = make_grid(4)
    assert abs(g.integrate(g.nodes[:, 2] ** 6) - FOUR_PI / 7) < 1e-13
    assert abs(g.integrate(g.nodes[:, 0] ** 4) - FOUR_PI / 5) < 1e-13


def test_grid_kind_is_the_product_rule():
    # read by the benchmark tracer as part of its plane-wave block key
    assert make_grid(4).kind == "gauss-legendre-product"


def test_bad_order():
    with pytest.raises(BadOrder):
        make_grid(0)
    # product orders are capped; 1e150 would overflow the node computation
    for order in (MAX_PRODUCT_ORDER + 1, 10**150):
        with pytest.raises(BadOrder):
            make_grid(order)


def test_default_order_growth():
    s1 = ScattererSet([[0, 0, 0]], [1.0])
    assert default_order(1.0, s1) == 16
    s2 = ScattererSet([[0, 0, 0], [3.0, 0, 0]], [1.0, 1.0])
    assert default_order(50.0, s2) == int(np.ceil(2 * np.sqrt(50) * 3)) + 8


def test_block_entries_and_limits():
    g = make_grid(8)
    s = ScattererSet([[0, 0, 0], [0.4, 0.1, -0.2]], [4.0, 1.0])
    blk = plane_wave_block(2.7, s, g)
    # scatterer at the origin: constant row 1/sqrt|w|
    assert np.allclose(blk.u[0], 0.5)
    assert np.allclose(np.abs(blk.u[1]), 1.0)
    # lambda -> 0+: all entries -> 1/sqrt|w_m|
    tiny = plane_wave_block(1e-16, s, g)
    assert np.allclose(tiny.u, (1 / np.sqrt(s.abs_weights))[:, None], atol=1e-7)


def test_overlap_identity_against_gram():
    s = make_config(12, 5)
    lam = 6.3
    g = make_grid(default_order(lam, s))
    blk = plane_wave_block(lam, s, g)
    target = weighted_gram_target(lam, s)
    assert np.linalg.norm(overlap_matrix(blk) - target, 2) < 1e-11
    assert overlap_error(blk) < 1e-11
    # coarse grids have visibly larger error (monitored, not asserted tight)
    coarse = plane_wave_block(lam, s, make_grid(4))
    assert overlap_error(coarse) > overlap_error(blk)


def test_overlap_error_decays_with_order():
    s = make_config(14, 3)
    lam = 24.0
    errs = [overlap_error(plane_wave_block(lam, s, make_grid(o)))
            for o in (6, 10, 14, 20)]
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-10


def test_mu_positive_distinct_points():
    # linear-independence surrogate for the plane-wave columns
    for seed in range(4):
        s = make_config(seed, 6)
        assert gram_matrix(5.0, s).mu > 0
