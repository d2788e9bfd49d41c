"""Scatterer configurations, separation profiles, admissibility."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zrs import (
    BadParams,
    DuplicatePoint,
    ScattererSet,
    check_admissibility,
    from_config,
    generate_family,
    separation_profile,
    tail_bound,
)
from zrs import scatterers
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
    d = pairwise_distances(s.points)
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
        assert separation_profile(s).tobytes() == \
            _profile_loop(pairwise_distances(s.points)).tobytes()


def test_distances_cached_read_only_and_equal_to_norm(battery25):
    for s in battery25:
        pts = s.points
        # the in-place sum matches norm(axis=-1) bit for bit
        ref = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert pairwise_distances(pts).tobytes() == ref.tobytes()
        for n in range(1, s.n + 1):
            sub = s.prefix(n)
            assert np.array_equal(sub.points, pts[:n])
            assert np.array_equal(sub.weights, s.weights[:n])
            assert pairwise_distances(sub.points).tobytes() == \
                pairwise_distances(pts[:n]).tobytes()
            # eta: the running minimum of the distances to the earlier
            # points, eta_1 aliased to eta_2 (inf for a single site)
            d = pairwise_distances(sub.points)
            minima = [np.inf] + [np.min(d[m, :m]) for m in range(1, n)]
            eta = np.minimum.accumulate(minima)
            assert sub.eta.tolist() == [eta[min(1, n - 1)], *eta[1:]]
            assert not sub.eta.flags.writeable


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
    family = {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": 16}
    fam = generate_family("clustering", family["params"], 16)
    assert check_admissibility(fam, 25.0, family=family).passed
    for n in (3, 8, 12):
        assert check_admissibility(fam.prefix(n), 25.0, family=family).passed


def test_uniform_line_example():
    s = generate_family("uniform-line", {"spacing": 1.0, "weight": 3.0}, 3)
    assert np.allclose(s.points, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert np.allclose(s.weights, [3.0, 3.0, 3.0])


def test_uniform_line_diverges():
    # constant terms: the infinite family's sums diverge at every N
    for n in (1, 2, 20):
        s = generate_family("uniform-line", {}, n)
        rep = check_admissibility(s, 25.0, family={"kind": "uniform-line", "N": n})
        assert not rep.passed


# (kind, params, K0 < inf, K1 < inf) by the integral test: both sides of
# q = 1 and of q = 2p + 1, p = 0, and p < 0, where eta_m = 1
SUMMABILITY_LAW = [
    ("uniform-line", {}, False, False),
    ("uniform-line", {"spacing": 0.5, "weight": 1e6}, False, False),
    ("cubic-lattice-ball", {}, False, False),
    ("cubic-lattice-ball", {"spacing": 2.0, "weight": -3.0}, False, False),
    ("clustering", {"p": 2, "q": 5.5}, True, True),
    ("clustering", {"p": 2, "q": 5}, True, False),
    ("clustering", {"p": 2, "q": 4.5}, True, False),
    ("clustering", {"p": 1, "q": 3.5}, True, True),
    ("clustering", {"p": 1, "q": 2.5}, True, False),
    ("clustering", {"p": 0.2, "q": 1.5}, True, True),
    ("clustering", {"p": 0.2, "q": 1.4}, True, False),
    ("clustering", {"p": 0.2, "q": 1.0}, False, False),
    ("clustering", {"p": 0.2, "q": 0.9}, False, False),
    ("clustering", {"p": 0, "q": 1.01}, True, True),
    ("clustering", {"p": 0, "q": 1}, False, False),
    ("clustering", {"p": -1, "q": 1.5, "w0": -2}, True, True),
    ("clustering", {"p": -1, "q": 1}, False, False),
    ("clustering", {"p": -1, "q": 0.8}, False, False),
]


@pytest.mark.parametrize("kind, params, k0, k1", SUMMABILITY_LAW, ids=[
    kind + "".join(f"-{k}{v}" for k, v in params.items())
    for kind, params, _, _ in SUMMABILITY_LAW])
def test_the_family_law_gives_the_convergence_flags(kind, params, k0, k1):
    family = {"kind": kind, "N": 24, "params": params}
    s = generate_family(kind, params, 24)
    report = check_admissibility(s, 25.0, family=family).to_dict()
    assert (report["k0_converges"], report["k1_converges"]) == (k0, k1)
    assert report["verdict"] == ("pass" if k0 and k1 else "fail")
    # the sums over the sites held are those of the finite set, which passes
    finite = check_admissibility(s, 25.0).to_dict()
    assert finite["verdict"] == "pass"
    flags = ("k0_converges", "k1_converges", "verdict")
    assert ({k: v for k, v in report.items() if k not in flags}
            == {k: v for k, v in finite.items() if k not in flags})


@pytest.mark.parametrize("family, message", [
    ([1], "family section must be a JSON object"),
    ({"kind": "clustering", "params": {"p": 2, "q": 6}, "strict": True},
     "unknown key 'strict' in family section"),
    ({"kind": "hexagonal"}, "unknown family kind 'hexagonal'"),
    ({"kind": "clustering", "params": {"p": 2}}, "needs parameter 'q'"),
    ({"kind": "clustering", "params": {"p": 2, "q": "x"}}, "family parameter 'q'"),
    ({"kind": "uniform-line", "params": {"p": 2}}, "unknown key 'p' in family params"),
])
def test_a_bad_family_section_is_rejected_by_the_law(family, message):
    with pytest.raises(BadParams, match=message):
        check_admissibility(make_config(5, 5), 25.0, family=family)


def test_clustering_eta_scaling():
    fam = generate_family("clustering", {"p": 2, "q": 6}, 12)
    eta = fam.eta
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


def test_a_report_derives_the_site_terms_once(monkeypatch):
    s = generate_family("clustering", {"p": 2, "q": 6}, 40)
    want = tail_bound(s, 10, 25.0)
    calls = []
    real = scatterers._site_terms

    def counting(s):
        calls.append(s)
        return real(s)
    monkeypatch.setattr(scatterers, "_site_terms", counting)
    report = check_admissibility(s, 25.0, n0=10)
    assert calls == [s]
    assert report.p_tail == want


@pytest.mark.parametrize("points, weights, name", [
    # 1/|w| overflows, or the sum of two terms 1e308 does
    ([[0, 0, 0], [1, 0, 0]], [5e-324, 1.0], "K0"),
    ([[0, 0, 0], [1, 0, 0]], [1e-308, 1e-308], "K0"),
    # eta^2 |w| = 1e-310 is subnormal, its reciprocal overflows
    ([[0, 0, 0], [1e-5, 0, 0]], [1e-300, 1e-300], "K1"),
    # the terms are 1e300, the bound (K0 + K1 + 5) / (4 pi 1e-300) overflows
    ([[0, 0, 0], [1, 0, 0]], [1e-300, 1e-300], "p_tail"),
])
def test_report_value_that_overflows_is_rejected(points, weights, name):
    s = ScattererSet(points, weights)
    with pytest.raises(BadParams, match=rf"admissibility value {name} overflows to inf"):
        check_admissibility(s, 25.0)


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


# the row-block edges: one site, one pair, a block short of full, full and
# one row over, two blocks and one row over, and the benchmark's largest N
BLOCK_EDGE_SIZES = (1, 2, 127, 128, 129, 257, 400)
GEOMETRY_KINDS = ("box", "near-duplicates", "uniform-line", "cubic-lattice-ball",
                  "clustering")


def _box(n, seed=7):
    return np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 3))


def _geometry_case(kind, n):
    if kind == "box":
        return ScattererSet(_box(n), np.ones(n))
    if kind == "near-duplicates":
        # pairs 3e-12 apart, just above DUPLICATE_EPS, inside the first
        # block and across each block edge
        pts = _box(n)
        for i, j, axis in ((1, 0, 0), (128, 127, 0), (n - 1, 0, 1)):
            if i < n:
                pts[i] = pts[j]
                pts[i, axis] += 3e-12
        return ScattererSet(pts, np.ones(n))
    params = {"p": 2, "q": 6} if kind == "clustering" else {"spacing": 0.7}
    return generate_family(kind, params, n)


def _norm_distances(pts):
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("kind", GEOMETRY_KINDS)
def test_block_geometry_equals_the_distance_matrix(kind, n):
    # eta, the profile, the pair list, the distance matrix and the
    # diameter, of the set and of every prefix, against the distance matrix
    # (norm(axis=-1), which pairwise_distances equals bit for bit) and the
    # running minimum over its rows
    s = _geometry_case(kind, n)
    d = _norm_distances(s.points)
    assert pairwise_distances(s.points).tobytes() == d.tobytes()
    eta = np.minimum.accumulate([np.inf] + [np.min(d[m, :m]) for m in range(1, n)])
    low = np.tri(n, k=-1, dtype=bool)
    for m in range(1, n + 1):
        sub = s.prefix(m)
        lead = d[:m, :m]
        assert sub.eta.tobytes() == np.array(
            [eta[min(1, m - 1)], *eta[1:m]]).tobytes()
        assert separation_profile(sub).tobytes() == eta[1:m].tobytes()
        assert sub.pair_distances().tobytes() == lead[low[:m, :m]].tobytes()
        assert sub.pair_distances().tobytes() == \
            s.pair_distances()[:m * (m - 1) // 2].tobytes()
        assert pairwise_distances(sub.points).tobytes() == lead.tobytes()
        assert sub.diameter() == float(np.max(lead))
    assert not s.pair_distances().flags.writeable


@pytest.mark.parametrize("far", [3, 127, 128, 399])
def test_overflow_in_any_block_raises_before_a_duplicate(far):
    # a duplicate pair in the first block, and a pair whose squared
    # distance overflows (1.5e154^2 > 1.8e308) in the block of row ``far``
    pts = _box(400)
    pts[2] = pts[0]
    pts[far] = [1.5e154, 0.0, 0.0]
    with pytest.raises(BadParams) as exc:
        ScattererSet(pts, np.ones(400))
    assert str(exc.value) == "pairwise distances must be finite (points too far apart)"


@pytest.mark.parametrize("i, j", [(1, 0), (127, 126), (128, 127), (399, 3)])
def test_near_duplicate_in_any_block_names_the_least_distance(i, j):
    pts = _box(400)
    pts[i] = pts[j] + [5e-13, 0.0, 0.0]
    d = _norm_distances(pts)
    least = np.min(d[np.tri(400, k=-1, dtype=bool)])
    with pytest.raises(DuplicatePoint) as exc:
        ScattererSet(pts, np.ones(400))
    assert str(exc.value) == f"two points are within 1e-12 (min distance {least:g})"


def test_ten_thousand_sites_validate_in_a_few_row_blocks():
    # the bound is fixed from the block size, before any measurement: four
    # (BLOCK_ROWS, N) float blocks, 41 MB at N = 1e4, where the distance
    # matrix alone is 800 MB
    n = 10_000
    bound = 4 * scatterers.BLOCK_ROWS * n * 8
    tracemalloc.start()
    try:
        s = generate_family("clustering", {"p": 2, "q": 6}, n)
        report = check_admissibility(s, 25.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    assert report.passed and len(report.tail) == n
    # the set holds its points, weights and eta, and no pair array
    arrays = [v for v in vars(s).values() if v is not None]
    assert all(np.size(v) <= 3 * n for v in arrays)


def test_lattice_sites_are_kept_read_only_and_unchanged():
    # the sorted sites of the smallest cube holding n, as generated before
    # they were kept
    for n in (1, 7, 27, 28, 125, 400):
        k = 1
        while (2 * k + 1) ** 3 < n:
            k += 1
        g = np.arange(-k, k + 1)
        xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
        sites = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        order = np.lexsort((sites[:, 2], sites[:, 1], sites[:, 0],
                            np.sum(sites**2, axis=1)))
        s = generate_family("cubic-lattice-ball", {"spacing": 0.7}, n)
        assert s.points.tobytes() == (0.7 * sites[order[:n]].astype(float)).tobytes()
        assert scatterers._lattice_ball(k) is scatterers._lattice_ball(k)
        assert not scatterers._lattice_ball(k).flags.writeable
