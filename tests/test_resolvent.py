"""Resolvent kernel identities, boundary conditions, free-resolvent checks."""

import io

import numpy as np
import pytest

from zrs import (
    BadParams,
    BumpProfile,
    FitUnstable,
    ScattererSet,
    boundary_condition_residual,
    cross_section,
    free_resolvent_reproduction,
    green_at_distance,
    hilbert_identity_residual,
    resolvent_kernel,
    smatrix,
    symmetry_residual,
)
from zrs import krein, resolvent
from zrs.krein import FOUR_PI, branch_sqrt, build_q, c_matrix
from zrs.resolvent import default_fit_radii, write_kernel_slice_csv

from conftest import battery, make_config


def test_c_scalar_formula():
    w, z = 1.9, 1j
    s = ScattererSet([[0, 0, 0]], [w])
    kern = resolvent_kernel(z, s)
    assert kern.z == z
    assert np.allclose(kern.c[0, 0],
                       1 / (1j * branch_sqrt(z) / FOUR_PI + FOUR_PI * w))


def test_c_cofactor_oracle_2x2():
    s = make_config(1, 2)
    z = 0.7 + 1.3j
    kern = resolvent_kernel(z, s)
    a = build_q(z, s) + FOUR_PI * np.diag(s.weights)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    oracle = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    assert np.allclose(kern.c, oracle, atol=1e-15)


def test_unperturbed_limit_kernel():
    s = ScattererSet([[0, 0, 0], [0.6, 0, 0]], [1e12, 1e12])
    kern = resolvent_kernel(2j, s)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (50, 3))
    xp = rng.uniform(-1, 1, (50, 3))
    free = green_at_distance(2j, np.linalg.norm(x - xp, axis=-1))
    assert np.max(np.abs(kern.evaluate(x, xp) - free)) < 1e-9
    # rate O(1/min|w|): scaling the weights by 100 shrinks the gap ~100x
    s2 = ScattererSet(s.points, s.weights / 100)
    gap2 = np.max(np.abs(resolvent_kernel(2j, s2).evaluate(x, xp) - free))
    gap1 = np.max(np.abs(kern.evaluate(x, xp) - free))
    assert gap1 < 3 * gap2 / 50


def test_kernel_symmetric_not_hermitian():
    s = make_config(2, 3)
    kern = resolvent_kernel(1 + 2j, s)
    x = np.array([0.9, -0.1, 0.2])
    xp = np.array([-0.4, 0.8, -0.7])
    assert np.isclose(kern.evaluate(x, xp), kern.evaluate(xp, x))
    assert not np.isclose(kern.evaluate(x, xp),
                          np.conj(kern.evaluate(xp, x)))


def test_c_has_no_zero_singular_value(battery25):
    for s in battery25[:8]:
        sv = np.linalg.svd(resolvent_kernel(1j, s).c, compute_uv=False)
        assert sv[-1] > 1e-10


def test_hilbert_identity():
    s1 = ScattererSet([[0, 0, 0]], [1.0])
    assert hilbert_identity_residual(1j, -1j, s1) < 1e-11
    s3 = make_config(5, 3)
    assert hilbert_identity_residual(1 + 1j, -2 + 0.5j, s3) < 1e-10


def test_hilbert_identity_scalar_closed_form():
    # 1x1: C(z) = 1/(i sqrt(z)/4pi + 4 pi w); the identity telescopes exactly
    w = 0.8
    s = ScattererSet([[0, 0, 0]], [w])
    z1, z2 = 1j, -1j

    def c(z):
        return 1 / (1j * complex(branch_sqrt(z)) / FOUR_PI + FOUR_PI * w)

    phi = (1j * complex(branch_sqrt(z1)) - 1j * complex(branch_sqrt(z2))) / (
        FOUR_PI * (z1 - z2))
    res = abs(c(z1) - c(z2) + (z1 - z2) * c(z1) * phi * c(z2))
    assert res < 1e-18
    assert hilbert_identity_residual(z1, z2, s) == pytest.approx(res, abs=1e-14)


def test_hilbert_residual_builds_each_q_once(monkeypatch):
    s = make_config(1010, 10)
    z1, z2 = 1 + 1j, -2 + 0.5j
    c1, c2 = c_matrix(z1, s), c_matrix(z2, s)
    phi = (build_q(z1, s) - build_q(z2, s)) / (z1 - z2)
    expect = float(np.linalg.norm(c1 - c2 + (z1 - z2) * c1 @ phi @ c2, 2))
    calls = []

    def counting_build_q(z, sub):
        calls.append(z)
        return build_q(z, sub)

    for module in (krein, resolvent):
        monkeypatch.setattr(module, "build_q", counting_build_q)
    assert hilbert_identity_residual(1 + 1j, -2 + 0.5j, s) == expect
    assert calls == [z1, z2]


def test_hilbert_residual_continuity_in_gap():
    s = make_config(6, 2)
    z2 = 1 + 1j
    vals = [hilbert_identity_residual(z2 + eps, z2, s) for eps in (1e-2, 1e-4)]
    assert vals[1] < vals[0] + 1e-12  # stays tiny as z1 -> z2


def test_symmetry_residual():
    for seed, n in ((1, 1), (2, 3), (3, 5)):
        s = make_config(seed, n)
        assert symmetry_residual(1j, s) < 1e-12
        assert symmetry_residual(-2 + 0.7j, s) < 1e-12
    # N=1 scalar: conj(C(z)) = C(conj z) analytically
    s1 = ScattererSet([[0, 0, 0]], [2.0])
    assert symmetry_residual(0.3 + 2j, s1) < 1e-16


def test_symmetry_residual_rejects_the_positive_axis():
    # C(lambda + i0) is taken for both z and conj z there, so the identity
    # does not apply; the rest of the real axis and points just off it pass
    s = ScattererSet([[0, 0, 0], [1, 0, 0]], [1.0, 2.0])
    with pytest.raises(BadParams, match="off \\(0, inf\\)"):
        symmetry_residual(2.0, s)
    for z in (-2.0, 0.0, 2 + 1e-9j):
        assert symmetry_residual(z, s) == 0.0


def test_boundary_condition_single_scatterer():
    s = ScattererSet([[0, 0, 0]], [1.0])
    res = boundary_condition_residual(1j, s, source=[0.5, 0.4, 0.8])
    assert res[0] < 1e-6


def test_boundary_condition_fit_matches_expansion_oracle():
    # closed-form expansion of K near x_1: a = -C gamma, regular part gamma
    w, z = 1.3, 1j
    s = ScattererSet([[0, 0, 0]], [w])
    kern = resolvent_kernel(z, s)
    src = np.array([0.4, 0.7, -0.3])
    gamma = green_at_distance(z, np.linalg.norm(-src))
    radii = default_fit_radii(s)
    ik = 1j * complex(branch_sqrt(kern.z))
    design = np.stack([np.exp(ik * radii) / (FOUR_PI * radii),
                       np.ones_like(radii, complex), radii.astype(complex)], 1)
    d_hat = np.array([1.0, 0, 0])
    f = kern.evaluate(s.points[0] + radii[:, None] * d_hat, src)
    coef, *_ = np.linalg.lstsq(design, f, rcond=None)
    assert np.isclose(coef[0], -kern.c[0, 0] * gamma, rtol=1e-6)
    assert np.isclose(coef[1], gamma, rtol=1e-6)


def test_boundary_condition_symmetric_pair():
    s = ScattererSet([[0, 0, 0.5], [0, 0, -0.5]], [2.0, 2.0])
    # source and approach rays in the mirror plane: residuals must agree
    res = boundary_condition_residual(1j, s, source=[1.0, 0.0, 0.0],
                                      direction=[1.0, 0.0, 0.0])
    assert res[0] == pytest.approx(res[1], rel=1e-6, abs=1e-12)
    assert np.all(res < 1e-6)


def test_boundary_condition_unperturbed_limit():
    s = ScattererSet([[0, 0, 0]], [1e12])
    res = boundary_condition_residual(1j, s, source=[0.5, 0.4, 0.8])
    assert res[0] < 1e-5  # kernel is essentially regular, a ~ 0


def _residuals_per_site(z, s, source, direction):
    """Reference for boundary_condition_residual: one kernel evaluation,
    one least-squares fit and one branch per site.  Returns the residuals
    and the condition number of the unit-column design."""
    kern = resolvent_kernel(z, s)
    ik = 1j * complex(branch_sqrt(kern.z))
    radii = default_fit_radii(s)
    sing_col = np.exp(ik * radii) / (FOUR_PI * radii)
    design = np.stack([sing_col, np.ones_like(radii, complex),
                       radii.astype(complex)], 1)
    sing_sup = float(np.max(np.abs(sing_col)))
    q_self = ik / FOUR_PI
    out = np.empty(s.n)
    for m in range(s.n):
        f = kern.evaluate(s.points[m] + radii[:, None] * direction, source)
        coef, *_ = np.linalg.lstsq(design, f, rcond=None)
        a, b = coef[0], coef[1]
        content = abs(a) * sing_sup / (abs(a) * sing_sup + abs(b))
        if content < 1e-4:
            out[m] = content
        else:
            out[m] = (abs(a * q_self + b + FOUR_PI * s.weights[m] * a)
                      / (abs(a) + abs(b)))
    scaled = design / np.linalg.norm(design, axis=0)
    return out, np.linalg.cond(scaled)


def test_boundary_fits_in_one_solve_match_per_site_fits():
    # the batched fit may differ from the per-site one by round-off only
    ray = resolvent._RAY_DIRECTION
    cases = [(s, None, ray) for s in battery()]
    cases += [
        (ScattererSet([[0, 0, 0]], [1.0]), [0.5, 0.4, 0.8], ray),
        (ScattererSet([[0, 0, 0.5], [0, 0, -0.5]], [2.0, 2.0]),
         [1.0, 0.0, 0.0], np.array([1.0, 0.0, 0.0])),
        (ScattererSet([[0, 0, 0]], [1e12]), [0.5, 0.4, 0.8], ray),
        (ScattererSet([[0, 0, 0], [0.6, 0.1, -0.2]], [1e12, -0.7]),
         [0.5, 0.4, 0.8], ray),
    ]
    for s, source, direction in cases:
        src = (np.mean(s.points, axis=0) + np.array([0.53, 0.71, 0.83])
               if source is None else np.asarray(source, dtype=float))
        ref, cond = _residuals_per_site(1j, s, src, direction)
        res = boundary_condition_residual(1j, s, source=source,
                                          direction=direction)
        assert res.shape == (s.n,)
        assert np.max(np.abs(res - ref)) <= 16 * cond * np.finfo(float).eps


def test_fit_unstable():
    s = ScattererSet([[0, 0, 0]], [1.0])
    # collapsed radii make the design rank-deficient
    with pytest.raises(FitUnstable):
        boundary_condition_residual(1j, s, radii=np.full(6, 1e-4))


def test_bump_laplacian_finite_difference_oracle():
    bump = BumpProfile(radius=1.0, sigma=0.3)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(12):
        x = rng.uniform(-0.9, 0.9, 3)
        if np.linalg.norm(x) > 0.93:
            continue
        acc = -6 * bump.value(x)
        for k in range(3):
            for sgn in (1, -1):
                xp = x.copy()
                xp[k] += sgn * h
                acc += bump.value(xp)
        fd = acc / h**2
        assert np.isclose(bump.laplacian(x), fd, rtol=2e-4, atol=1e-6)


def test_bump_compact_support():
    bump = BumpProfile(radius=1.0, sigma=0.3)
    pts = np.array([[1.0, 0, 0], [0, 1.5, 0], [0.999999, 0, 0]])
    assert np.allclose(bump.value(pts), [0, 0, 0], atol=1e-300)
    assert np.allclose(bump.laplacian(pts), 0.0)


def test_free_resolvent_reproduction():
    pts = [[0, 0, 0], [0.3, 0.1, -0.2], [-0.5, 0.4, 0.2],
           [0.05, -0.8, 0.1], [0.9, 0.2, -0.3]]
    res = free_resolvent_reproduction(2 + 0.5j, pts)
    assert np.max(res) < 1e-6


@pytest.mark.parametrize("direction", [[0, 0, 0], [np.nan, 0, 1], [0, np.inf, 0],
                                       [1e300, 0, 0], [1, 0], [[0, 0, 1]]])
@pytest.mark.parametrize("entry", ["cross_section", "boundary_condition_residual",
                                   "write_kernel_slice_csv"])
def test_bad_direction_rejected(entry, direction):
    # a zero, non-finite or overflowing length, or a shape other than (3,),
    # raises before any division, where it used to give NaN output
    s = make_config(9, 2)
    call = {
        "cross_section": lambda: cross_section(smatrix(2.0, s), direction),
        "boundary_condition_residual":
            lambda: boundary_condition_residual(1j, s, direction=direction),
        "write_kernel_slice_csv":
            lambda: write_kernel_slice_csv(resolvent_kernel(1j, s), [1.0, 1.0, 1.0],
                                           direction, [0.1, 0.2], io.StringIO()),
    }[entry]
    with pytest.raises(BadParams, match="direction must be a 3-vector"):
        call()


def test_kernel_slice_csv_golden_header():
    s = make_config(9, 2)
    kern = resolvent_kernel(1j, s)
    buf = io.StringIO()
    write_kernel_slice_csv(kern, [1.0, 1.0, 1.0], [0, 0, 1.0],
                           np.geomspace(0.01, 1.0, 5), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rho,re_k,im_k"
    assert len(lines) == 6
