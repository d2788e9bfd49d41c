"""Scatterer configurations, separation profiles, admissibility."""

from fractions import Fraction

import numpy as np
import pytest

from zrs import (
    BadParams,
    DuplicatePoint,
    ScattererSet,
    check_admissibility,
    eta_by_index,
    from_config,
    generate_family,
    separation_profile,
    tail_bound,
)
from zrs.scatterers import pairwise_distances

from conftest import make_config


def test_profile_three_collinear():
    s = ScattererSet([[0, 0, 0], [1, 0, 0], [3, 0, 0]], [1, 1, 1])
    assert np.allclose(separation_profile(s), [1.0, 1.0])


def test_profile_two_points():
    s = ScattererSet([[0, 0, 0], [0, 0, 2]], [1, 1])
    assert np.allclose(separation_profile(s), [2.0])


def test_profile_harmonic_points_brute_force():
    # x_m = (1/m, 0, 0); oracle is the O(N^2) pairwise scan
    pts = [[1.0 / m, 0, 0] for m in range(1, 5)]
    s = ScattererSet(pts, [1, 1, 1, 1])
    eta = separation_profile(s)

    def brute(k):
        sub = np.array(pts[:k])
        return min(
            np.linalg.norm(sub[i] - sub[j])
            for i in range(k)
            for j in range(i + 1, k)
        )

    expect = [brute(k) for k in range(2, 5)]
    assert np.allclose(eta, expect)
    assert np.allclose(eta, [1 / 2, 1 / 6, 1 / 12])


def test_profile_nonincreasing_and_permutation_floor():
    s = make_config(42, 10)
    eta = separation_profile(s)
    assert np.all(np.diff(eta) <= 1e-15)
    # final value is the global minimum pairwise distance, however indexed
    d = s.distances()
    dmin = np.min(d[np.triu_indices(10, 1)])
    assert np.isclose(eta[-1], dmin)
    rng = np.random.default_rng(3)
    perm = rng.permutation(10)
    sp = ScattererSet(s.points[perm], s.weights[perm])
    assert np.isclose(separation_profile(sp)[-1], dmin)


def _profile_loop(d):
    # reference: running minimum of the distances to each newly added point
    eta, running = [], np.inf
    for m in range(1, len(d)):
        running = min(running, float(np.min(d[m, :m])))
        eta.append(running)
    return np.array(eta)


def test_profile_equals_loop_definition(battery25):
    for s in battery25 + [generate_family("clustering", {"p": 2, "q": 6}, 60)]:
        assert separation_profile(s).tobytes() == _profile_loop(s.distances()).tobytes()


def test_distances_cached_read_only_and_equal_to_norm(battery25):
    for s in battery25:
        pts = s.points
        assert s.distances() is s.distances()
        assert not s.distances().flags.writeable
        # the in-place sum matches norm(axis=-1) bit for bit
        ref = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert pairwise_distances(pts).tobytes() == ref.tobytes()
        for n in range(1, s.n + 1):
            sub = s.prefix(n)
            assert np.array_equal(sub.points, pts[:n])
            assert np.array_equal(sub.weights, s.weights[:n])
            assert sub.distances().tobytes() == pairwise_distances(pts[:n]).tobytes()
            assert not sub.distances().flags.writeable
            # the minimum distance from each point to the earlier ones
            minima = [np.inf] + [np.min(sub.distances()[m, :m]) for m in range(1, n)]
            assert sub._row_minima.tolist() == minima
            assert not sub._row_minima.flags.writeable


def test_duplicate_point_rejected():
    with pytest.raises(DuplicatePoint):
        ScattererSet([[0, 0, 0], [0, 0, 1e-13]], [1, 1])


@pytest.mark.parametrize("points", [
    [[0, 0, 0], [2e154, 0, 0]],
    [[-1e308, 0, 0], [1e308, 0, 0]],
    [[0, 0, 0], [1, 0, 0], [1e154, 1e154, 1e154]],
])
def test_distance_beyond_the_float_range_rejected(points):
    with pytest.raises(BadParams, match="distances must be finite"):
        ScattererSet(points, [1.0] * len(points))
    d = pairwise_distances(np.array(points, dtype=float))
    assert np.isinf(d).any() and not np.isnan(d).any()


def test_admissibility_single_scatterer():
    s = ScattererSet([[0, 0, 0]], [1.0])
    rep = check_admissibility(s, 25.0)
    assert rep.k0 == 1.0
    assert rep.k1 == 0.0
    assert rep.passed


def test_admissibility_two_equal():
    s = ScattererSet([[0, 0, 0], [1, 0, 0]], [2.0, 2.0])
    rep = check_admissibility(s, 25.0)
    assert np.isclose(rep.k0, 1.0)
    assert np.isclose(rep.k1, 1.0)  # 1/(1^2*2) + 1/(1^2*2)


def test_admissibility_zeta_family_exact_oracle():
    # x_m = (1/m^2, 0, 0), w_m = m^6, N = 50; sums computed exactly with
    # Fraction and frozen below.
    n = 50
    pts = [[1.0 / m**2, 0, 0] for m in range(1, n + 1)]
    w = [float(m**6) for m in range(1, n + 1)]
    s = ScattererSet(pts, w)
    rep = check_admissibility(s, 25.0)
    assert rep.k0 == pytest.approx(1.0173430613758094, rel=1e-12)
    assert rep.k1 == pytest.approx(11.803423417881824, rel=1e-9)
    # the K1 terms of this family tend to 1/4, so the diagnostics must
    # refuse K1 while accepting the K0 series
    assert rep.k0_converges and not rep.k1_converges

    # recompute the oracle here to keep it honest
    xs = [Fraction(1, m * m) for m in range(1, n + 1)]
    ws = [Fraction(m**6) for m in range(1, n + 1)]
    k0 = float(sum(Fraction(1) / v for v in ws))
    etas = []
    for m in range(1, n + 1):
        mm = max(m, 2)
        etas.append(min(xs[j] - xs[j + 1] for j in range(mm - 1)))
    k1 = float(sum(Fraction(1) / (e * e * v) for e, v in zip(etas, ws)))
    assert rep.k0 == pytest.approx(k0, rel=1e-12)
    assert rep.k1 == pytest.approx(k1, rel=1e-9)


def test_tail_monotone_and_vanishing(battery25):
    for s in battery25:
        rep = check_admissibility(s, 25.0)
        assert np.all(np.diff(rep.tail) <= 1e-15)
        assert rep.tail[-1] == 0.0


def test_prefix_of_passing_family_passes():
    fam = generate_family("clustering", {"p": 2, "q": 6}, 16)
    assert check_admissibility(fam, 25.0).passed
    for n in (3, 8, 12):
        assert check_admissibility(fam.prefix(n), 25.0).passed


def test_uniform_line_example():
    s = generate_family("uniform-line", {"spacing": 1.0, "weight": 3.0}, 3)
    assert np.allclose(s.points, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert np.allclose(s.weights, [3.0, 3.0, 3.0])


def test_uniform_line_diverges():
    # constant terms: the infinite-family diagnostics must not pass
    s = generate_family("uniform-line", {}, 20)
    rep = check_admissibility(s, 25.0)
    assert not rep.passed


def test_clustering_pass_and_strict_reject():
    fam = generate_family("clustering", {"p": 2, "q": 6}, 10)
    assert check_admissibility(fam, 25.0).passed
    with pytest.raises(BadParams):
        generate_family("clustering", {"p": 2, "q": 3}, 10, strict=True)
    # non-strict builds it, diagnostics then refuse
    loose = generate_family("clustering", {"p": 2, "q": 3}, 24)
    assert not check_admissibility(loose, 25.0).passed


def test_clustering_eta_scaling():
    fam = generate_family("clustering", {"p": 2, "q": 6}, 12)
    eta = eta_by_index(fam)
    m = np.arange(2, 13, dtype=float)
    # min gap among first m points is the last consecutive gap (m-1)^-p
    assert np.allclose(eta[1:], (m - 1) ** -2.0)


def test_cubic_lattice_ball():
    s = generate_family("cubic-lattice-ball", {"spacing": 0.5}, 7)
    assert s.n == 7
    assert np.allclose(s.points[0], [0, 0, 0])
    # next six sites are the nearest lattice shell
    assert np.allclose(np.linalg.norm(s.points[1:], axis=1), 0.5)


def test_tail_bound_empty_tail():
    s = make_config(5, 5)
    assert tail_bound(s, 5, 25.0) == 0.0
    assert tail_bound(s, 2, 25.0) > 0.0


@pytest.mark.parametrize("b", [0.0, -1.0, np.nan, np.inf])
def test_window_top_must_be_positive_and_finite(b):
    s = make_config(5, 5)
    with pytest.raises(BadParams):
        check_admissibility(s, b)
    for n0 in (2, 5):
        with pytest.raises(BadParams):
            tail_bound(s, n0, b)


def test_from_config_forms():
    s = from_config({"points": [[0, 0, 0]], "weights": [2.0]})
    assert s.n == 1
    f = from_config({"family": {"kind": "uniform-line", "params": {}, "N": 4}})
    assert f.n == 4
    with pytest.raises(BadParams):
        from_config({"weights": [1.0]})
    with pytest.raises(BadParams):
        generate_family("hexagonal", {}, 3)


@pytest.mark.parametrize("data, named", [
    ([[0, 0, 0]], "scatterer config"),
    ({"family": [1]}, "family section"),
    ({"family": {"kind": "clustering", "params": [2, 6], "N": 4}}, "family params"),
    ({"family": {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": "x"}},
     "family key 'N'"),
    ({"family": {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": 1e400}},
     "family key 'N'"),
    ({"family": {"kind": "clustering", "params": {"p": "x", "q": 6}, "N": 4}},
     "family parameter 'p'"),
    ({"family": {"kind": "clustering", "params": {"p": 2, "q": 6, "w0": [1]},
                 "N": 4}}, "family parameter 'w0'"),
    ({"family": {"kind": "uniform-line", "params": {"spacing": "a"}, "N": 4}},
     "family parameter 'spacing'"),
    ({"points": [[0, 0, "a"]], "weights": [1.0]}, "points"),
    ({"points": [[0, 0, 0], [1, 0]], "weights": [1.0, 1.0]}, "points"),
    ({"points": [[0, 0, 0]], "weights": ["w"]}, "weights"),
])
def test_from_config_bad_types_name_the_key(data, named):
    with pytest.raises(BadParams, match=named):
        from_config(data)


def test_bad_weights_rejected():
    with pytest.raises(BadParams):
        ScattererSet([[0, 0, 0]], [0.0])
    with pytest.raises(BadParams):
        ScattererSet([[0, 0, 0], [1, 0, 0]], [1.0])
