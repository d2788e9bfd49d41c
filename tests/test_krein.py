"""Krein matrices: Green function, Q, weighting, inverses, Gram, bounds."""

import pickle

import numpy as np
import pytest

from zrs import (
    BadParams,
    NonPositiveGram,
    ScattererSet,
    SingularMatrix,
    SingularSchurComplement,
    TailNotContractive,
    ZeroDistance,
    branch_sqrt,
    build_q,
    build_weighted,
    c_matrix,
    check_admissibility,
    gamma_at,
    gamma_continuity_scan,
    gamma_direct,
    gamma_schur,
    generate_family,
    gram_matrix,
    green_at_distance,
    krein_matrices,
    m_sampled,
    smatrix,
    tail_bound,
)
from zrs import krein
from zrs.krein import STACK_ENTRIES, _checked_inv, check_rcond, gamma_levels

from conftest import bordering_bound, explicit_gram, explicit_gram_cases, make_config

FOUR_PI = 4 * np.pi


def test_branch_sqrt():
    assert branch_sqrt(-1.0) == 1j
    assert branch_sqrt(4.0) == 2.0
    for z in (2 + 3j, 2 - 3j, -1 - 0.5j, -4.0):
        s = branch_sqrt(z)
        assert s.imag >= 0
        assert np.isclose(s * s, z)
    assert np.isclose(branch_sqrt(np.pi**2), np.pi)
    # an array of points: each root as at the single point, bit for bit,
    # conjugate pairs and the negative axis included
    zs = np.array([np.pi**2, 2 + 3j, 2 - 3j, -1 - 0.5j, -1 + 0.5j, -4.0, 0.0,
                   -4.0 - 0.0j, 1e-300j, -1e300])
    roots = branch_sqrt(zs)
    assert roots.shape == zs.shape and roots.dtype == complex
    assert np.all(roots.imag >= 0)
    for z, r in zip(zs, roots):
        assert _same(r, branch_sqrt(z))
    assert isinstance(branch_sqrt(2 - 3j), np.complexfloating)


@pytest.mark.parametrize("fn", [smatrix, gram_matrix, c_matrix])
@pytest.mark.parametrize("z", [np.nan, np.inf])
def test_non_finite_spectral_point_rejected(fn, z, two_scatterers):
    with pytest.raises(BadParams):
        fn(z, two_scatterers)


@pytest.mark.parametrize("fn", [branch_sqrt, build_q, gram_matrix, gamma_at, c_matrix])
def test_non_finite_point_in_a_stack_rejected(fn, two_scatterers):
    zs = np.array([1.0, 2.0, np.nan, 4.0, np.inf])
    args = () if fn is branch_sqrt else (two_scatterers,)
    with pytest.raises(BadParams, match=r"must be finite, got \(nan\+0j\)"):
        fn(zs, *args)


def test_free_green_trivials():
    # z = -1: e^-1 / (4 pi)
    assert np.isclose(green_at_distance(-1.0, 1.0), np.exp(-1) / FOUR_PI)
    # boundary value at lambda = pi^2, r = 1: e^{i pi}/(4 pi)
    assert np.isclose(green_at_distance(np.pi**2, 1.0), -1 / FOUR_PI)


def test_free_green_extended_precision_oracle():
    # frozen from a 50-digit mpmath evaluation of the same formula
    val = complex(green_at_distance(2 + 3j, 0.7))
    assert val == pytest.approx(
        0.023582280955952852138 + 0.055950116172967170704j, rel=1e-14
    )
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    sq = mp.sqrt(mp.mpc(2, 3))
    if mp.im(sq) < 0:
        sq = -sq
    ref = mp.exp(1j * sq * mp.mpf("0.7")) / (4 * mp.pi * mp.mpf("0.7"))
    assert val == pytest.approx(complex(ref), rel=1e-14)


def test_free_green_zero_distance():
    with pytest.raises(ZeroDistance):
        green_at_distance(1.0, 0.0)


def test_build_q_diagonal_and_offdiagonal():
    s = make_config(0, 3)
    q = build_q(-1.0, s)
    assert np.allclose(np.diag(q), -1 / FOUR_PI)
    s2 = ScattererSet([[0, 0, 0], [1, 0, 0]], [1, 1])
    q2 = build_q(np.pi**2, s2)
    assert np.isclose(q2[0, 1], -1 / FOUR_PI)
    assert np.isclose(q2[0, 1], q2[1, 0])


def test_q_conjugation_symmetry():
    s = make_config(11, 4)
    for z in (1 + 2j, -0.7 + 0.1j, 3 - 4j):
        assert np.allclose(build_q(z, s).conj().T, build_q(np.conj(z), s),
                           atol=1e-15)


def test_build_weighted():
    s = make_config(1, 3)
    q = build_q(2.0, s)
    qt, j = build_weighted(ScattererSet(s.points, np.ones(3)), q)
    assert np.allclose(qt, q)
    assert np.allclose(j, 1.0)
    s_neg = ScattererSet([[0, 0, 0]], [-4.0])
    lam = 2.0
    qt, j = build_weighted(s_neg, build_q(lam, s_neg))
    assert np.isclose(qt[0, 0], 1j * np.sqrt(lam) / (16 * np.pi))
    assert j[0] == -1.0
    s_mix = ScattererSet([[0, 0, 0], [1, 0, 0]], [2.0, -3.0])
    _, j = build_weighted(s_mix, build_q(1.0, s_mix))
    assert np.allclose(j, [1.0, -1.0])


def test_gamma_direct_scalar_cases():
    lam = 16 * np.pi**2
    s = ScattererSet([[0, 0, 0]], [1.0])
    qt, j = build_weighted(s, build_q(lam, s))
    gamma = gamma_direct(qt, j)
    assert np.allclose(gamma, (1 - 1j) / 2)  # 1/(1+i)
    # w > 0 general: |w| / (w + i sqrt(lam)/(4 pi))
    w = 2.7
    lam = 5.0
    sw = ScattererSet([[0, 0, 0]], [w])
    qt, j = build_weighted(sw, build_q(lam, sw))
    assert np.allclose(gamma_direct(qt, j)[0, 0],
                       w / (w + 1j * np.sqrt(lam) / FOUR_PI))


def _stack_config(n):
    if n == 1:
        return ScattererSet([[0, 0, 0]], [1.3])
    if n == 5:
        return make_config(31, 5)
    return generate_family("cubic-lattice-ball", {"spacing": 1.0}, n)


def _same(a, b):
    """Equal shape, dtype and bytes (no tolerance, -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 5, 100])
@pytest.mark.parametrize("extra", [None, 0, 1], ids=["K=1", "K=chunk", "K=chunk+1"])
def test_stacked_builders_equal_per_point(n, extra):
    chunk = max(1, STACK_ENTRIES // n**2)
    k = 1 if extra is None else chunk + extra
    s = _stack_config(n)
    lams = np.linspace(0.5, 50.0, k)
    q = build_q(lams, s)
    qt, j = build_weighted(s, q)
    gammas = gamma_direct(qt, j)
    gd = gram_matrix(lams, s)
    assert q.shape == gammas.shape == gd.g.shape == (k, n, n)
    # every member of small stacks; about 256 spread over the N = 1 stacks
    for i in sorted(set(range(0, k, max(1, k // 256))) | {k - 1}):
        lam = lams[i]
        one = gram_matrix(lam, s)
        assert _same(q[i], build_q(lam, s))
        assert _same(gammas[i], gamma_at(lam, s))
        assert _same(gd.g[i], one.g) and gd.mu[i] == one.mu and gd.lam[i] == one.lam
    # a complex stack of the same length: off-axis points next to their
    # conjugates, and points of the negative axis
    w = lams[::-1] * np.exp(2.5j)
    zs = np.stack([w, w.conj(), -lams], axis=1).ravel()[:k]
    r = np.linspace(0.25, 3.0, 7)
    qz = build_q(zs, s)
    gz = green_at_distance(zs, r)
    assert qz.shape == (k, n, n) and gz.shape == (k, 7)
    for i in sorted(set(range(0, k, max(1, k // 256))) | {k - 1}):
        assert _same(qz[i], build_q(zs[i], s))
        assert _same(gz[i], green_at_distance(zs[i], r))


def test_q_diagonal_rounds_as_python_complex_division():
    # numpy's complex division by 4 pi multiplies by the reciprocal; the
    # diagonal keeps the rounding of Python's i sqrt(z) / (4 pi)
    s = ScattererSet([[0, 0, 0]], [1.0])
    rng = np.random.default_rng(5)
    zs = rng.standard_normal(4000) * 10.0 ** rng.uniform(-3, 4, 4000)
    zs = zs + 1j * np.where(np.arange(zs.size) % 2, 0.0, zs[::-1])
    want = np.array([1j * complex(branch_sqrt(z)) / FOUR_PI for z in zs])
    assert _same(build_q(zs, s)[:, 0, 0], want)


def test_m_sampled_equals_per_point_max_across_stacks():
    # 64 points of order 20 fill two stacks
    s = _stack_config(20)
    assert 64 > STACK_ENTRIES // 400
    worst = max(float(np.linalg.norm(np.linalg.inv(gram_matrix(lam, s).g), 2))
                for lam in np.geomspace(0.5, 40.0, 64))
    assert m_sampled(s, 20, (0.5, 40.0)) == worst


def test_stacked_gamma_raises_for_first_singular_member():
    a = np.stack([np.eye(3) * (1 + 1j)] * 5)
    a[1] = np.diag([1.0, 1.0, 1e-15])
    # exactly singular: np.linalg.inv alone would raise LinAlgError
    a[3] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularMatrix) as err:
        gamma_direct(a, np.zeros(3))
    assert err.value.rcond == 1e-15
    a[1] = np.eye(3)
    with pytest.raises(SingularMatrix) as err:
        gamma_direct(a, np.zeros(3))
    assert err.value.rcond == 0.0
    check_rcond(a[:3], "J + Qtilde")  # no failing member: no error


@pytest.fixture
def svd_inputs(monkeypatch):
    """Records every matrix (or stack) handed to np.linalg.svd."""
    seen, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def test_checked_inv_certificate_skips_svd(svd_inputs):
    s = generate_family("cubic-lattice-ball", {}, 20)
    a = build_weighted(s, build_q(np.linspace(1.0, 30.0, 7), s))[0] + np.eye(20)
    for m in (a[3], a):
        assert _same(_checked_inv(m, "J + Qtilde"), np.linalg.inv(m))
    assert svd_inputs == []


@pytest.mark.parametrize("a", [
    np.diag([1.0, 1e-15]),
    np.diag([1.0, 0.0]),
    np.array([[1.0, 1.0], [1.0, 1.0]]),
    np.zeros((2, 2), dtype=complex),
], ids=["rcond-1e-15", "zero-pivot", "rank-one", "zero"])
def test_checked_inv_fallback_raises_with_svd_rcond(a, svd_inputs):
    with pytest.raises(SingularMatrix) as want:
        check_rcond(a, "A")
    with pytest.raises(SingularMatrix) as got:
        _checked_inv(a, "A")
    assert str(got.value) == str(want.value)
    assert got.value.rcond == want.value.rcond


def test_checked_inv_fallback_passes_regular_matrix(svd_inputs):
    a = np.diag([1.0, 1e-13])
    assert _same(_checked_inv(a, "A"), np.linalg.inv(a))
    assert len(svd_inputs) == 1


def test_checked_inv_stack_checks_only_uncertified_members(svd_inputs):
    a = np.stack([np.eye(3) * (1 + 1j)] * 6)
    a[1] = np.diag([1.0, 1.0, 1e-13])  # fails the certificate, regular
    a[4] = np.diag([1.0, 1.0, 1e-15])
    with pytest.raises(SingularMatrix) as err:
        _checked_inv(a, "J + Qtilde")
    assert err.value.rcond == 1e-15
    assert len(svd_inputs) == 1 and _same(svd_inputs[0], a[[1, 4]])


def _adjugate_3x3(a):
    out = np.empty_like(a)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(a, i, 0), j, 1)
            out[j, i] = (-1) ** (i + j) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    return out


def test_gamma_direct_cofactor_oracle():
    s = make_config(7, 3)
    qt, j = build_weighted(s, build_q(3.3, s))
    a = qt + np.diag(j)
    gamma = gamma_direct(qt, j)
    oracle = _adjugate_3x3(a) / np.linalg.det(a)
    assert np.allclose(gamma, oracle, atol=1e-13)
    # residual of the inversion
    assert np.linalg.norm(a @ gamma - np.eye(3), 2) < 1e-10 * np.linalg.cond(a)


def test_gamma_direct_singular():
    qt = -np.eye(2, dtype=complex)
    with pytest.raises(SingularMatrix) as err:
        gamma_direct(qt, np.ones(2))
    assert err.value.rcond is not None


def _level_families():
    """Lattices, clustering chains and mixed-sign boxes for the N-sweep
    levels."""
    return ([generate_family("cubic-lattice-ball", {"spacing": d}, 120)
             for d in (0.7, 1.0, 1.6)]
            + [generate_family("clustering", {"p": p, "q": q}, 120)
               for p, q in ((1, 4), (2, 7), (0.5, 3))]
            + [make_config(seed, 60, ws) for seed, ws in ((3, 1.0), (17, 0.1), (29, 0.02))])


def test_gamma_levels_within_the_bordering_bound():
    rng = np.random.default_rng(23)
    for s in _level_families():
        for lam in (0.9, 7.3, 40.0):
            qt, j = build_weighted(s, build_q(lam, s))
            levels = [int(v) for v in rng.integers(1, s.n + 1, rng.integers(2, 7))]
            # unsorted, with a repeated level
            levels.insert(int(rng.integers(len(levels) + 1)), levels[0])
            got = gamma_levels(qt, j, levels)
            assert sorted(got) == sorted(set(levels))
            for n, gamma in got.items():
                ref = gamma_direct(qt[:n, :n], j[:n])
                bound = bordering_bound(qt[:n, :n] + np.diag(j[:n]), ref)
                assert np.linalg.norm(gamma - ref, 2) <= bound


@pytest.mark.parametrize("fault, levels, direct", [
    # level 20 fails the certificate; 30 grows from the uncertified 20, so
    # it is inverted directly too; 40 is bordered again
    ("certificate", [40, 20, 10, 30], [10, 20, 30]),
    # the order-15 Schur complements of 10 -> 25 and 25 -> 40 are singular
    ("singular-schur", [10, 25, 40], [10, 25, 40]),
])
def test_gamma_levels_inverts_a_failed_level_directly(monkeypatch, fault, levels,
                                                      direct):
    s = generate_family("cubic-lattice-ball", {}, 40)
    qt, j = build_weighted(s, build_q(5.0, s))
    expect = {n: gamma_direct(qt[:n, :n], j[:n]) for n in levels}
    if fault == "certificate":
        real = krein._certified
        monkeypatch.setattr(krein, "_certified",
                            lambda a, x: real(a, x) & (a.shape[-1] != 20))
    else:
        inv = np.linalg.inv

        def singular_schur(a):
            if a.shape[-1] == 15:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)
        monkeypatch.setattr(np.linalg, "inv", singular_schur)
    seen = []
    real_direct = krein.gamma_direct

    def recorded(qtilde, j):
        seen.append(len(j))
        return real_direct(qtilde, j)

    monkeypatch.setattr(krein, "gamma_direct", recorded)
    got = gamma_levels(qt, j, levels)
    assert seen == direct
    for n in levels:
        if n in direct:
            assert _same(got[n], expect[n])
        else:
            bound = bordering_bound(qt[:n, :n] + np.diag(j[:n]), expect[n])
            assert np.linalg.norm(got[n] - expect[n], 2) <= bound


def test_gamma_levels_rejects_a_level_outside_the_matrix():
    qt, j = build_weighted(make_config(4, 3), build_q(2.0, make_config(4, 3)))
    for levels in ([0, 2], [2, 4]):
        with pytest.raises(BadParams, match="outside 1..3"):
            gamma_levels(qt, j, levels)


def test_gamma_schur_degenerate_split():
    # an empty tail: the general step inverts W = J + Qt as its complement,
    # bit for bit as the direct route does
    s = make_config(21, 4)
    qt, j = build_weighted(s, build_q(2.0, s))
    gamma, factors = gamma_schur(qt, j, split=4, tail_bound=tail_bound(s, 4, 2.0))
    assert gamma.tobytes() == gamma_direct(qt, j).tobytes()
    assert factors.r_block.shape == (0, 0)
    assert factors.product().tobytes() == (qt + np.diag(j)).tobytes()
    # so a singular J + Qt is a singular complement there
    with pytest.raises(SingularSchurComplement, match="^Schur complement W_ring "):
        gamma_schur(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                    np.ones(2), split=2, tail_bound=0.0)


def _heavy_tail_config(seed, n, n0, b=50.0, factor0=1e3):
    """Battery config with tail weights scaled until p_{N0,L}(b) < 1."""
    base = make_config(seed, n)
    w = base.weights.copy()
    factor = factor0
    for _ in range(8):
        w2 = w.copy()
        w2[n0:] = w[n0:] * factor
        s = ScattererSet(base.points, w2)
        if tail_bound(s, n0, b) < 0.9:
            return s
        factor *= 10
    raise AssertionError("could not build a contractive tail")


def test_gamma_schur_matches_direct_with_contractive_tail():
    s = _heavy_tail_config(33, 6, 3)
    p = tail_bound(s, 3, 50.0)
    assert p < 1
    qt, j = build_weighted(s, build_q(7.0, s))
    gamma, factors = gamma_schur(qt, j, split=3, tail_bound=p)
    gd = gamma_direct(qt, j)
    assert np.linalg.norm(gamma - gd, 2) / np.linalg.norm(gd, 2) < 1e-10
    assert np.allclose(factors.product(), qt + np.diag(j), atol=1e-14)


# each library call with an integer argument: (the name its BadParams
# gives the argument, the call of a set s with that argument v)
INTEGER_ARGUMENTS = {
    "prefix": ("n", lambda s, v: s.prefix(v).to_dict()),
    "m_sampled": ("n", lambda s, v: m_sampled(s, v, (1, 9))),
    "gamma_continuity_scan": ("n", lambda s, v: vars(
        gamma_continuity_scan(s, v, (1, 9), 5))),
    "check_admissibility": ("n0", lambda s, v: check_admissibility(
        s, 25.0, n0=v).to_dict()),
    "tail_bound": ("n0", lambda s, v: tail_bound(s, v, 25.0)),
    "smatrix": ("split", lambda s, v: smatrix(2.0, s, split=v).gamma),
    "gamma_levels": ("level", lambda s, v: gamma_levels(
        *build_weighted(s, build_q(2.0, s)), [v, 5])),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
def test_integer_arguments_convert_as_the_config_n_does(call):
    # an integral float or a digit string gives the bytes of the int;
    # other values raise BadParams naming the argument
    name, run = INTEGER_ARGUMENTS[call]
    s = _heavy_tail_config(33, 6, 3)
    want = pickle.dumps(run(s, 3))
    for v in (3.0, "3"):
        assert pickle.dumps(run(s, v)) == want
    for v in (2.5, "x", True):
        with pytest.raises(BadParams, match=f"^bad value for {name}: "):
            run(s, v)


def _gamma_schur_blocks(qtilde, j, split):
    """Gamma of the Schur route by its block formula, each block formed on
    its own: the reference for the in-place Schur step's round-off."""
    a = qtilde + np.diag(j)
    w, r, p = a[:split, :split], a[split:, split:], qtilde[split:, :split]
    rinv = np.linalg.inv(r)
    wri = np.linalg.inv(w - p.T @ rinv @ p)
    return np.block([[wri, -wri @ p.T @ rinv],
                     [-rinv @ p @ wri, rinv + rinv @ p @ wri @ p.T @ rinv]])


def test_gamma_schur_within_the_bordering_bound_of_the_block_formula(battery25):
    # the battery and random boxes with heavy tails, at three head sizes
    rng = np.random.default_rng(41)
    boxes = [(s.n, 1000 + i) for i, s in enumerate(battery25) if s.n >= 2]
    boxes += [(int(rng.integers(2, 13)), int(rng.integers(10**6))) for _ in range(20)]
    checked = 0
    for n, seed in boxes:
        for n0 in sorted({1, n // 2, n - 1}):
            s = _heavy_tail_config(seed, n, n0)
            p = tail_bound(s, n0, 50.0)
            for lam in (0.9, 7.0, 40.0):
                qt, j = build_weighted(s, build_q(lam, s))
                gamma, _ = gamma_schur(qt, j, n0, tail_bound=p)
                gd = gamma_direct(qt, j)
                bound = bordering_bound(qt + np.diag(j), gd)
                ref = _gamma_schur_blocks(qt, j, n0)
                assert np.linalg.norm(gamma - ref, 2) <= bound
                # acceptance criterion 2
                assert np.linalg.norm(gamma - gd, 2) / np.linalg.norm(gd, 2) < 1e-9
                checked += 1
    assert checked >= 300


@pytest.mark.parametrize("corner, rcond", [
    (1 + 1e-15, (1 + 1e-15) - 1),  # W_ring = diag(1, 1.1e-15): inverted, then checked
    (1.0, 0.0),  # W_ring = diag(1, 0): np.linalg.inv raises
], ids=["rcond-1e-15", "zero-pivot"])
def test_gamma_schur_singular_schur_complement(corner, rcond):
    # the tail R = [1] is regular, and W - P^T R^{-1} P is exact
    qt = np.array([[1.0, 1.0, 1.0], [1.0, corner - 1, 1.0], [1.0, 1.0, 0.0]],
                  dtype=complex)
    j = np.ones(3)
    with pytest.raises(SingularSchurComplement) as err:
        gamma_schur(qt, j, split=2, tail_bound=0.5)
    assert str(err.value) == ("Schur complement W_ring is numerically "
                              f"singular (rcond {rcond:.2e})")
    assert err.value.rcond == rcond
    # a singular tail block R is reported first
    with pytest.raises(SingularMatrix) as err:
        gamma_schur(qt, np.array([1.0, 1.0, 0.0]), split=2, tail_bound=0.5)
    assert type(err.value) is SingularMatrix
    assert str(err.value).startswith("tail block R is numerically singular")


def test_gamma_schur_two_point_example():
    # N=2, split 1, well separated, large tail weight
    s = ScattererSet([[0, 0, 0], [2.0, 0, 0]], [1.0, 5e4])
    p = tail_bound(s, 1, 25.0)
    assert p < 1
    qt, j = build_weighted(s, build_q(4.0, s))
    gamma, _ = gamma_schur(qt, j, split=1, tail_bound=p)
    gd = gamma_direct(qt, j)
    assert np.linalg.norm(gamma - gd, 2) < 1e-10


def test_gamma_schur_tail_not_contractive():
    # tiny tail weights push the bound over 1
    s = ScattererSet([[0, 0, 0], [0.4, 0, 0], [0, 0.5, 0]], [1.0, 1e-3, 2e-3])
    p = tail_bound(s, 1, 25.0)
    assert p >= 1
    qt, j = build_weighted(s, build_q(4.0, s))
    with pytest.raises(TailNotContractive) as err:
        gamma_schur(qt, j, split=1, tail_bound=p)
    assert err.value.bound == pytest.approx(p)


def test_schur_imag_positivity():
    # (ShFr7): Im W_ring >= mu_(n0)(lam) (1 - eps) I for a passing tail,
    # with mu taken from the weighted Gram of the head block
    s = _heavy_tail_config(9, 6, 3)
    lam = 4.0
    qt, j = build_weighted(s, build_q(lam, s))
    _, factors = gamma_schur(qt, j, split=3,
                             tail_bound=tail_bound(s, 3, 25.0))
    head = s.prefix(3)
    rootw = np.sqrt(head.abs_weights)
    gw = gram_matrix(lam, head).g / np.outer(rootw, rootw)
    mu_w = float(np.linalg.eigvalsh(gw)[0])
    assert factors.imag_w_ring_min() >= mu_w * (1 - 0.5)


def test_tail_bound_with_empty_head_values():
    s1 = ScattererSet([[0, 0, 0]], [1.0])
    # with no head the tail bound at b = |z| is p_L(z): here z = -1
    assert np.isclose(tail_bound(s1, 0, 1.0), 1 / FOUR_PI)
    s2 = ScattererSet([[0, 0, 0], [1, 0, 0]], [2.0, 2.0])
    assert np.isclose(tail_bound(s2, 0, 1.0), 3 / (8 * np.pi))


def test_norm_bound_battery(battery25):
    zs = [0.5, 2.0, 7.7, 50.0, 1 + 2j, -1.0, 4j, 2 - 3j]
    for s in battery25:
        for z in zs:
            qt, _ = build_weighted(s, build_q(z, s))
            measured = np.linalg.norm(qt, 2)
            # equality holds for N = 1; allow rounding there
            assert measured <= tail_bound(s, 0, abs(z)) * (1 + 1e-12)


def test_norm_bound_lattice():
    from zrs import generate_family

    s = generate_family("cubic-lattice-ball", {"spacing": 1.0}, 10)
    for z in (1.0, 9.0, 2 + 1j):
        qt, _ = build_weighted(s, build_q(z, s))
        assert np.linalg.norm(qt, 2) <= tail_bound(s, 0, abs(z))


def test_gram_examples():
    s = ScattererSet([[0, 0, 0], [1, 0, 0]], [1.0, 1.0])
    gd = gram_matrix(np.pi**2, s)
    assert np.allclose(gd.g, 0.25 * np.eye(2), atol=1e-16)
    assert np.isclose(gd.mu, 0.25)
    s1 = ScattererSet([[0, 0, 0]], [1.0])
    gd1 = gram_matrix(4.0, s1)
    assert np.isclose(gd1.g[0, 0], 1 / (2 * np.pi))
    assert np.isclose(gd1.mu, 1 / (2 * np.pi))


def test_gram_is_boundary_imaginary_part(battery25):
    for s in battery25[:10]:
        for lam in (3.0, 17.0):
            g = gram_matrix(lam, s).g
            q = build_q(lam, s)
            assert np.array_equal(np.imag(q), g)


def test_gram_matches_explicit_entries(battery25):
    """Each entry of Im Q is within 2 eps of sqrt(lam)/(4 pi) or
    sin(sqrt(lam) r)/(4 pi r): the two differ only in how sin(kr) is
    rounded (through e^{ikr} or directly)."""
    eps = np.finfo(float).eps
    for s, lams in explicit_gram_cases(battery25):
        ref = explicit_gram(lams, s)
        g = gram_matrix(lams, s).g
        assert np.all(np.abs(g - ref) <= 2 * eps * np.abs(ref))


def test_gram_mu_moves_within_round_off_of_explicit_gram(battery25):
    """|mu(Im Q) - mu(explicit G_N)| <= 4 N eps ||G_N||_2 (Weyl's bound for
    a perturbation of <= 2 eps per entry, plus the eigvalsh round-off)."""
    eps = np.finfo(float).eps
    for s, lams in explicit_gram_cases(battery25):
        ref = explicit_gram(lams, s)
        ev = np.linalg.eigvalsh(ref)
        norm = np.maximum(-ev[:, 0], ev[:, -1])
        mu = gram_matrix(lams, s).mu
        assert np.all(np.abs(mu - ev[:, 0]) <= 4 * s.n * eps * norm)


def test_gram_mu_equals_inverse_norm():
    s = make_config(2, 5)
    gd = gram_matrix(3.0, s)
    assert np.isclose(gd.mu, 1 / np.linalg.norm(np.linalg.inv(gd.g), 2),
                      rtol=1e-10)
    assert gd.mu > 0


def test_gram_norm_taken_only_for_negative_mu(monkeypatch):
    s = make_config(2, 5)
    calls = []
    norm = np.linalg.norm

    def counting_norm(x, ord=None, **kwargs):
        if ord == 2:  # the spectral norm; distances use vector norms
            calls.append(1)
        return norm(x, ord, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    gd = gram_matrix(np.linspace(1.0, 20.0, 30), s)
    assert np.all(gd.mu > 0) and calls == []


@pytest.mark.parametrize("s, lams", [
    (generate_family("clustering", {"p": 2, "q": 7}, 16), np.linspace(0.7, 45, 64)),
    (ScattererSet([[0, 0, 0], [1e-8, 0, 0]], [1.0, 1.0]), np.geomspace(1e-3, 1e3, 64)),
])
@pytest.mark.parametrize("shift", [0.0, 0.999, 1.001])
def test_gram_floor_matches_svd_rule(monkeypatch, s, lams, shift):
    """NonPositiveGram is raised exactly where the floor with ||G||_2 taken
    by SVD raises.  ``shift`` moves the spectrum down by that many floors,
    so that both sides of the floor are exercised."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def shifted(g):
        floor = 1e-12 * np.maximum(1.0, np.linalg.norm(g, 2, axis=(-2, -1)))
        ev = eigvalsh(g) - shift * np.asarray(floor)[..., None]
        seen.append((g, ev))
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    negative = 0
    for lam in lams:
        try:
            gram_matrix(lam, s)
            raised = False
        except NonPositiveGram:
            raised = True
        g, ev = seen[-1]
        assert g.ndim == 2
        mu = ev[0]
        negative += mu < 0
        svd_floor = -1e-12 * max(1.0, np.linalg.norm(g, 2))
        assert raised == (mu < 0 and mu <= svd_floor)
    assert negative > 0
    if shift > 1:
        assert negative == len(lams)


def test_m_sampled_scalar():
    s = ScattererSet([[0, 0, 0]], [1.0])
    # sup over [1,4] of 4 pi / sqrt(lam) is 4 pi at lam = 1
    assert np.isclose(m_sampled(s, 1, (1.0, 4.0)), FOUR_PI)


def test_m_sampled_two_points_eigen_oracle():
    s = ScattererSet([[0, 0, 0], [1, 0, 0]], [1.0, 1.0])
    interval = (np.pi**2 - 0.1, np.pi**2 + 0.1)
    val = m_sampled(s, 2, interval)
    # oracle: 2x2 symmetric [[d, o], [o, d]] has eigenvalues d +- o
    worst = 0.0
    for lam in np.geomspace(*interval, 64):
        k = np.sqrt(lam)
        d, o = k / FOUR_PI, np.sin(k) / FOUR_PI
        worst = max(worst, 1 / min(abs(d + o), abs(d - o)))
    assert np.isclose(val, worst, rtol=1e-12)


def test_nevanlinna_positivity():
    rng = np.random.default_rng(8)
    for seed, n in ((1, 2), (2, 5), (3, 10)):
        s = make_config(seed, n)
        for z in (1j, 2 + 0.3j, -1 + 1j):
            qt, _ = build_weighted(s, build_q(z, s))
            h = (qt - qt.conj().T) / (2j * np.imag(z))
            for _ in range(5):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                quad = np.real(v.conj() @ h @ v)
                assert quad >= -1e-12 * np.linalg.norm(v) ** 2


def test_q_increment_identity():
    # Q(z1) - Q(z2) = (z1 - z2) G(conj z2)* G(z1): verified through the
    # resolvent coefficient identity C(z1) - C(z2) = -(z1-z2) C1 Phi C2
    s = make_config(17, 4)
    z1, z2 = 1 + 1j, -2 + 0.5j
    c1, c2 = c_matrix(z1, s), c_matrix(z2, s)
    phi = (build_q(z1, s) - build_q(z2, s)) / (z1 - z2)
    assert np.linalg.norm(c1 - c2 + (z1 - z2) * c1 @ phi @ c2, 2) < 1e-12


def test_krein_matrices_bundle_consistency():
    s = make_config(23, 4)
    z = 2 + 1j
    km = krein_matrices(z, s)
    n = s.n
    gd = gamma_direct(km.qtilde, km.j)
    assert np.allclose(km.gamma, gd)
    # residual of both inverses
    assert np.linalg.norm((km.qtilde + np.diag(km.j)) @ km.gamma - np.eye(n), 2) < 1e-12
    assert np.linalg.norm((km.q + FOUR_PI * np.diag(s.weights)) @ km.c - np.eye(n), 2) < 1e-12
    # weighted Gamma equals (Q + L)^{-1}: the strength-w parameterization
    rootw = np.sqrt(s.abs_weights)
    lhs = km.gamma / np.outer(rootw, rootw)
    rhs = np.linalg.inv(km.q + np.diag(s.weights))
    assert np.allclose(lhs, rhs, atol=1e-12)
