"""Scattering matrix assembly, application, unitarity, Omega, scans."""

import dataclasses
import io
import json
import re
import warnings

import numpy as np
import pytest

from zrs import (
    BadParams,
    GramData,
    GridMismatch,
    ScattererSet,
    SingularMatrix,
    SphereFunction,
    apply_smatrix,
    apply_smatrix_adjoint,
    build_q,
    cross_section,
    default_grid,
    default_order,
    gamma_at,
    gamma_continuity_scan,
    generate_family,
    gram_matrix,
    kernel_correction,
    m_sampled,
    make_grid,
    omega_unitary,
    overlap_error,
    plane_wave_block,
    resolvent_kernel,
    smatrix,
    smatrix_minus_identity_norm,
    unitarity_defect_quadrature,
    unitarity_defect_reduced,
)
from zrs import scattering
from zrs.cli import main
from zrs.krein import STACK_ENTRIES, stack_chunks
from zrs.scattering import (
    lambda_rows,
    write_cross_section_csv,
    write_defect_csv,
    write_kernel_csv,
)
from zrs.spherical import direction_angles, gram_overlap, weighted_gram_target

from conftest import (count_linalg_calls, explicit_gram, explicit_gram_cases,
                      kernel_error_bound, make_config)

FOUR_PI = 4 * np.pi


def test_smatrix_scalar_coefficient():
    lam = 16 * np.pi**2
    s = ScattererSet([[0, 0, 0]], [1.0])
    rep = smatrix(lam, s)
    # T = i sqrt(lam)/(8 pi^2) * Gamma with Gamma = 1/(1+i); the sign of
    # the prefactor is fixed by unitarity (see test_unitary_scalar below)
    assert np.allclose(rep.coeff[0, 0], (1 + 1j) / FOUR_PI)


def test_unitary_scalar():
    # single scatterer: the s-wave eigenvalue is (4 pi w - i k)/(4 pi w + i k)
    for w, lam in ((1.0, 16 * np.pi**2), (2.5, 3.0), (-1.3, 7.0)):
        s = ScattererSet([[0, 0, 0]], [w])
        rep = smatrix(lam, s)
        eig = 1 - rep.coeff[0, 0] * FOUR_PI / abs(w)
        k = np.sqrt(lam)
        assert np.isclose(eig, (FOUR_PI * w - 1j * k) / (FOUR_PI * w + 1j * k))
        assert abs(abs(eig) - 1) < 1e-14


def test_identity_limit():
    s = ScattererSet([[0, 0, 0], [0.5, 0, 0]], [1e12, -1e12])
    rep = smatrix(4.0, s)
    assert smatrix_minus_identity_norm(rep) < 1e-9


def test_kernel_direct_sum_oracle():
    s = make_config(3, 3)
    lam = 5.0
    rep = smatrix(lam, s)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((4, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    vals = kernel_correction(rep, dirs, dirs)
    k = np.sqrt(lam)
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for m in range(3):
                for mp in range(3):
                    u_m = np.exp(-1j * k * np.dot(s.points[m], dirs[i]))
                    u_mp = np.exp(1j * k * np.dot(s.points[mp], dirs[j]))
                    acc += (rep.coeff[m, mp] * u_m * u_mp
                            / np.sqrt(abs(s.weights[m]) * abs(s.weights[mp])))
            assert np.isclose(vals[i, j], -acc, atol=1e-14)


def _far_field(k, points, dirs):
    """The exact far field of the Green columns, lim_{R -> inf} 4 pi R
    e^{-ikR} g_m(k^2 + i0; R n) = e^{-ik n . x_m}, as an (a, N) array over
    the unit vectors ``dirs``."""
    return np.exp(-1j * k * (np.atleast_2d(dirs) @ points.T))


def _resolvent_far_field(lam, s, dirs_out, dirs_in, weights):
    """(ik / 8 pi^2) times the far field of the scattered part of the
    resolvent kernel at lambda + i0, for x = R n and x' = -R n' with R ->
    inf: -sum C_mn e^{-ik n . x_m} e^{ik n' . x_n}, where C is the
    resolvent's at strengths ``weights``.  Returns that matrix and C."""
    k = np.sqrt(lam)
    c = resolvent_kernel(lam, ScattererSet(s.points, weights)).c
    far = -(_far_field(k, s.points, dirs_out) @ c @ _far_field(k, s.points, -dirs_in).T)
    return 1j * k / (8.0 * np.pi**2) * far, c


def test_far_field_is_the_green_columns_limit(battery25):
    lam, big = 7.3, 1e6
    k = np.sqrt(lam)
    dirs = make_grid(4).nodes
    for s in battery25:
        kern = resolvent_kernel(lam, s)
        scaled = FOUR_PI * big * np.exp(-1j * k * big) * kern.green_columns(big * dirs)
        # |R n - x| = R - n.x + O(|x|^2 / R): a phase error of at most
        # k |x|^2 / 2R and an amplitude error of at most |x| / R
        r = np.max(np.linalg.norm(s.points, axis=1))
        bound = 2.0 * (k * r**2 / 2.0 + r) / big
        assert np.max(np.abs(scaled - _far_field(k, s.points, dirs))) <= bound


def test_smatrix_kernel_is_the_far_field_of_the_resolvent(battery25):
    # S - I at strengths w is the far field of the resolvent kernel at
    # strengths w / 4 pi: both invert Q + L, L = diag(w), the S side as
    # D^{1/2} (J + Qt)^{-1} D^{1/2} and the resolvent side as
    # (Q + 4 pi L')^{-1} with L' = L / 4 pi
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((2, 8, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    out, inc = dirs
    for s in battery25:
        for lam in (0.9, 7.3, 40.0):
            rep = smatrix(lam, s)
            got = kernel_correction(rep, out, inc)
            want, c = _resolvent_far_field(lam, s, out, inc, s.weights / FOUR_PI)
            # fixed before measuring: the round-off of each side
            bound = (kernel_error_bound(lam, s.points, rep.gamma,
                                        np.min(s.abs_weights))
                     + kernel_error_bound(lam, s.points, c))
            assert np.max(np.abs(got - want)) <= bound
            # the check tells the strength map and the orientation apart
            wrong_map, _ = _resolvent_far_field(lam, s, out, inc, s.weights)
            flipped, _ = _resolvent_far_field(lam, s, -out, -inc, s.weights / FOUR_PI)
            assert np.max(np.abs(got - wrong_map)) > 1e3 * bound
            if s.n > 1:
                assert np.max(np.abs(got - flipped)) > 1e3 * bound


def test_apply_identity_cases():
    s = make_config(4, 2)
    lam = 3.0
    rep = smatrix(lam, s)
    grid = default_grid(lam, s)
    zero_rep = dataclasses.replace(rep, coeff=np.zeros_like(rep.coeff))
    f = SphereFunction(values=np.cos(grid.nodes[:, 2]) + 0j, grid=grid)
    assert np.allclose(apply_smatrix(zero_rep, f).values, f.values)
    # f orthogonal to every conj(u): a high azimuthal harmonic (below the
    # phi-grid aliasing limit 2*order) survives S untouched
    _, phi = direction_angles(grid.nodes)
    m_high = grid.order + 1
    g = SphereFunction(values=np.exp(1j * m_high * phi), grid=grid)
    assert np.allclose(apply_smatrix(rep, g).values, g.values, atol=1e-12)


def test_apply_matches_kernel_quadrature(monkeypatch):
    # applying S must equal quadrature of the reconstructed kernel
    s = make_config(10, 3)
    lam = 5.5
    rep = smatrix(lam, s)
    grid = default_grid(lam, s)
    rng = np.random.default_rng(2)
    f = SphereFunction(
        values=rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size),
        grid=grid,
    )
    u = plane_wave_block(lam, s, grid).u
    # the kernel takes the plane waves from the block's formula bit for bit,
    # without building a block
    with monkeypatch.context() as m:
        m.delattr(scattering, "plane_wave_block")
        corr = kernel_correction(rep, grid.nodes, grid.nodes)
    assert corr.tobytes() == (-(u.T @ rep.coeff @ u.conj())).tobytes()
    via_kernel = f.values + corr @ (grid.qweights * f.values)
    assert np.allclose(apply_smatrix(rep, f).values, via_kernel, atol=1e-13)


def test_apply_rank_one_oracle():
    # constant input against a single scatterer: Sf = 1 - T 4 pi / |w|
    w, lam = 1.7, 2.0
    s = ScattererSet([[0, 0, 0]], [w])
    rep = smatrix(lam, s)
    grid = default_grid(lam, s)
    f = SphereFunction(values=np.ones(grid.size, complex), grid=grid)
    out = apply_smatrix(rep, f)
    assert np.allclose(out.values, 1 - rep.coeff[0, 0] * FOUR_PI / w)


def test_grid_mismatch():
    g1, g2 = make_grid(8), make_grid(9)
    for size in (3, g2.size):
        with pytest.raises(GridMismatch):
            SphereFunction(values=np.ones(size, complex), grid=g1)


def test_reduced_defect_examples():
    s = ScattererSet([[0, 0, 0]], [1.0])
    assert unitarity_defect_reduced(smatrix(16 * np.pi**2, s)) < 1e-12
    s5 = make_config(19, 5)
    assert unitarity_defect_reduced(smatrix(2.0, s5)) < 1e-10


def test_defect_matrix_coefficients_round_as_scalar_arithmetic():
    # with Gamma = B = I the defect matrix is a^2 I, a = sqrt(lam)/(8 pi^2);
    # a^2 must round as numpy's scalar power, which the array power a**2
    # misses in the last bit for some lambda
    lams = np.geomspace(1e-3, 1e4, 20000)
    eye = np.broadcast_to(np.eye(1, dtype=complex), (lams.size, 1, 1))
    got = scattering._defect_matrix(lams, eye, eye)[:, 0, 0]
    want = [(np.sqrt(v) / (8.0 * np.pi**2)) ** 2 for v in lams]
    assert got.real.tobytes() == np.array(want).tobytes()
    assert not got.imag.any()
    one = scattering._defect_matrix(lams[7], np.eye(1), np.eye(1))
    assert one.shape == (1, 1) and one[0, 0] == want[7]


def test_reduced_defect_sensitivity():
    # perturbing the coefficient matrix must push the defect up
    s = make_config(19, 5)
    lam = 2.0
    rep = smatrix(lam, s)
    grid = default_grid(lam, s)
    bad = dataclasses.replace(rep, coeff=rep.coeff * (1 + 1e-3))
    assert unitarity_defect_quadrature(bad, grid) >= 1e-4


def test_reduced_vs_quadrature_oracle_small_n():
    # mandated validation of the finite reduction on N <= 3
    for seed, n in ((1, 1), (2, 2), (3, 3)):
        s = make_config(seed, n)
        for lam in (0.9, 6.0):
            rep = smatrix(lam, s)
            grid = make_grid(default_order(lam, s) + 8)
            d_red = unitarity_defect_reduced(rep)
            d_quad = unitarity_defect_quadrature(rep, grid)
            err = overlap_error(plane_wave_block(lam, s, grid))
            # both are zero up to quadrature error and round-off
            assert d_red < 1e-12
            assert d_quad <= 10 * err + 1e-10


def _quadrature_per_trial(rep, grid, seed=0):
    """unitarity_defect_quadrature with S and S* applied through the public
    functions, each of which builds its own plane-wave block."""
    rng = np.random.default_rng(seed)
    u = plane_wave_block(rep.lam, rep.scatterers, grid).u
    worst = 0.0
    for t in range(8):
        if t % 2 == 0:
            c = rng.standard_normal(u.shape[0]) + 1j * rng.standard_normal(u.shape[0])
            vals = u.T @ c
        else:
            vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        f = SphereFunction(values=vals, grid=grid)
        nf = f.norm()
        if nf == 0.0:
            continue
        g = apply_smatrix_adjoint(rep, apply_smatrix(rep, f))
        worst = max(worst, SphereFunction(g.values - f.values, grid).norm() / nf)
    return worst


def test_quadrature_builds_one_block_per_call(battery25, monkeypatch):
    blocks = []

    def counting_block(*args):
        blocks.append(1)
        return plane_wave_block(*args)

    for s in battery25:
        lam = 7.3
        rep = smatrix(lam, s)
        grid = make_grid(default_order(lam, s))
        expected = _quadrature_per_trial(rep, grid)
        monkeypatch.setattr(scattering, "plane_wave_block", counting_block)
        blocks.clear()
        got = unitarity_defect_quadrature(rep, grid)
        monkeypatch.undo()
        assert len(blocks) == 1
        assert got.hex() == expected.hex()


def _apply_weighting_per_call(rep, f, coeff):
    """f - u^T coeff <f, u> with the plane-wave block and its weighted
    conjugate formed at this application."""
    u = plane_wave_block(rep.lam, rep.scatterers, f.grid).u
    v = (u.conj() * f.grid.qweights) @ f.values
    return SphereFunction(values=f.values - u.T @ (coeff @ v), grid=f.grid)


def test_quadrature_equals_per_application_weighting(battery25):
    # the weighted conjugate block is formed once per call; the defect must
    # keep the bits of forming it at each of the 16 applications
    for s in battery25:
        for lam in (0.9, 40.0):
            rep = smatrix(lam, s)
            grid = make_grid(default_order(lam, s))
            rng = np.random.default_rng(0)
            n = s.n
            worst = 0.0
            for t in range(8):
                if t % 2 == 0:
                    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    vals = plane_wave_block(lam, s, grid).u.T @ c
                else:
                    vals = (rng.standard_normal(grid.size)
                            + 1j * rng.standard_normal(grid.size))
                f = SphereFunction(values=vals, grid=grid)
                g = _apply_weighting_per_call(
                    rep, _apply_weighting_per_call(rep, f, rep.coeff),
                    rep.coeff.conj().T)
                worst = max(worst,
                            SphereFunction(g.values - vals, grid).norm() / f.norm())
            assert unitarity_defect_quadrature(rep, grid).hex() == worst.hex()


def _lower_hermitian(d):
    """The Hermitian matrices eigvalsh reads from the lower triangles of
    ``d``: the strict lower triangle, its mirror and the real diagonal."""
    low = np.tril(d, -1)
    h = low + np.swapaxes(low.conj(), -1, -2)
    idx = np.arange(d.shape[-1])
    h[..., idx, idx] = d[..., idx, idx].real
    return h


def _assert_defect_within_bound(defect, d):
    """|max|eig(H_L)| - ||D||_2| <= ||D - H_L||_F + 16 N eps ||D||_2: the
    distance of ``d`` from H_L moves the 2-norm by at most its 2-norm (<= its
    Frobenius norm), and the backward-stable eigvalsh and SVD each add an
    O(N eps ||D||_2) round-off (Golub & Van Loan, 8.4 and 8.6)."""
    svd_norm = np.linalg.norm(d, 2, axis=(-2, -1))
    asym = np.linalg.norm(d - _lower_hermitian(d), axis=(-2, -1))
    bound = asym + 16 * d.shape[-1] * np.finfo(float).eps * svd_norm
    assert np.all(np.abs(defect - svd_norm) <= bound)


def test_hermitian_defect_norm_matches_svd_norm_battery(battery25):
    for s in battery25:
        for lam in (0.9, 7.3, 40.0):
            d = scattering._defect_matrix(lam, gamma_at(lam, s),
                                          weighted_gram_target(lam, s))
            _assert_defect_within_bound(unitarity_defect_reduced(smatrix(lam, s)), d)


def test_hermitian_defect_norm_matches_svd_norm_stacks():
    s = _lattice20()
    lams = np.linspace(0.7, 45.0, 57)
    defect = np.array([row[1] for row in lambda_rows(s, lams)])
    chunks = list(stack_chunks(lams, s.n))
    d = np.concatenate([scattering._defect_matrix(
        c, gamma_at(c, s), gram_overlap(gram_matrix(c, s), s)) for c in chunks])
    _assert_defect_within_bound(defect, d)
    assert len(chunks) == 2


def test_defect_moves_within_round_off_of_explicit_gram(battery25):
    """The defect column, on B from G_N = Im Q, stays within
    4 N eps (a ||Gamma||_2 + a^2 ||Gamma||_2^2 ||B||_2) of the defect on B
    from the explicit sin(sqrt(lam) r)/(4 pi r) entries."""
    eps = np.finfo(float).eps
    for s, lams in explicit_gram_cases(battery25):
        defect = np.array([row[1] for row in lambda_rows(s, lams)])
        gammas = gamma_at(lams, s)
        b = gram_overlap(GramData(g=explicit_gram(lams, s), mu=None, lam=lams), s)
        ref = scattering._defect_reduced(lams, gammas, b)
        a = np.sqrt(lams) / (8 * np.pi**2)
        gn = np.linalg.norm(gammas, 2, axis=(1, 2))
        bn = np.linalg.norm(b, 2, axis=(1, 2))
        bound = 4 * s.n * eps * (a * gn + a**2 * gn**2 * bn)
        assert np.all(np.abs(defect - ref) <= bound)


def test_lambda_rows_chunk_takes_two_svds_and_two_eigvalsh(monkeypatch):
    s = make_config(1005, 5)
    calls = count_linalg_calls(monkeypatch, "svd", "eigvalsh")
    lams = np.linspace(0.7, 12.0, 9)
    assert len(list(stack_chunks(lams, s.n))) == 1
    assert len(list(lambda_rows(s, lams))) == 9
    # the SVDs of Gamma (gamma_norm/gamma_cond) and of the Gamma differences
    # (increment); eigvalsh of the defect and G_N
    assert calls == {"svd": 2, "eigvalsh": 2}


def test_smatrix_takes_the_gamma_svd_on_first_gamma_cond_read(monkeypatch):
    s = make_config(1005, 5)
    expect = np.linalg.cond(gamma_at(4.0, s))
    calls = count_linalg_calls(monkeypatch, "svd")
    rep = smatrix(4.0, s)
    assert calls["svd"] == 0
    assert rep.gamma_cond == expect
    assert rep.gamma_cond == expect
    assert calls["svd"] == 1


def test_quadrature_defect_identity_rep():
    s = ScattererSet([[0, 0, 0]], [1.0])
    rep = smatrix(2.0, s)
    zero = dataclasses.replace(rep, coeff=np.zeros((1, 1), complex))
    grid = default_grid(2.0, s)
    assert unitarity_defect_quadrature(zero, grid) == 0.0
    # single scatterer at default order: deep below 1e-8
    assert unitarity_defect_quadrature(rep, grid) < 1e-8


def test_unitarity_mixed_signs_battery(battery25):
    for s in battery25:
        if s.n < 2 or np.all(s.signs == s.signs[0]):
            continue
        assert unitarity_defect_reduced(smatrix(11.0, s)) < 1e-10


def test_rank_bound():
    # S - I has rank <= N on any grid
    s = make_config(6, 3)
    lam = 4.0
    rep = smatrix(lam, s)
    grid = make_grid(8)
    u = plane_wave_block(lam, s, grid).u
    corr = -u.T @ rep.coeff @ (u.conj() * grid.qweights)
    sv = np.linalg.svd(corr, compute_uv=False)
    assert np.sum(sv > 1e-12 * sv[0]) <= s.n


def test_omega_unitary_trivials():
    assert np.allclose(omega_unitary(np.eye(1), np.zeros((1, 1))), -1.0)
    assert np.allclose(omega_unitary(np.eye(2), np.eye(2)), -1j * np.eye(2))
    om = omega_unitary(np.eye(3), np.diag([0.0, 1.0, -2.0]))
    assert np.allclose(om.conj().T @ om, np.eye(3), atol=1e-14)


def test_omega_gram_metric_battery():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 9)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ups = a.conj().T @ a + 0.1 * np.eye(n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = (h + h.conj().T) / 2
        om = omega_unitary(ups, lam)
        assert np.linalg.norm(om.conj().T @ ups @ om - ups, 2) < 1e-11


def test_omega_singular():
    # Lambda + i Upsilon = 0 when Lambda = 0, Upsilon -> 0 is not allowed;
    # engineer exact singularity with a zero Gram direction
    ups = np.diag([1.0, 0.0])
    lam = np.zeros((2, 2))
    with pytest.raises(SingularMatrix):
        omega_unitary(ups, lam)


def test_cross_section_patterns():
    s1 = ScattererSet([[0, 0, 0]], [1.0])
    rep1 = smatrix(2.0, s1)
    pat = cross_section(rep1, [0, 0, 1.0])
    assert np.ptp(pat.values.real) < 1e-14  # isotropic
    zero = dataclasses.replace(rep1, coeff=np.zeros((1, 1), complex))
    assert np.allclose(cross_section(zero, [0, 0, 1.0]).values, 0.0)


def test_cross_section_fringes():
    # two scatterers along z: fringes in cos(theta) with spatial
    # frequency sqrt(lam) * d
    d, lam = 1.4, 36.0
    s = ScattererSet([[0, 0, d / 2], [0, 0, -d / 2]], [1.0, 1.0])
    rep = smatrix(lam, s)
    k = np.sqrt(lam)
    ct = np.linspace(-1, 1, 4001)
    dirs = np.stack([np.sqrt(1 - ct**2), np.zeros_like(ct), ct], axis=1)
    amp = kernel_correction(rep, dirs, np.array([[0.0, 0.0, 1.0]]))[:, 0]
    pattern = np.abs(amp) ** 2
    # oracle: direct kernel evaluation predicts A + B cos(k d ct + phase);
    # count interior extrema to check the fringe period
    sign_changes = np.sum(np.abs(np.diff(np.sign(np.diff(pattern)))) > 0)
    expected_extrema = k * d * 2 / np.pi  # extrema of cos over ct in [-1,1]
    assert abs(sign_changes - expected_extrema) <= 2


def test_continuity_scan():
    s = ScattererSet([[0, 0, 0]], [1.0])
    scan_c = gamma_continuity_scan(s, 1, (1.0, 4.0), 33)
    scan_f = gamma_continuity_scan(s, 1, (1.0, 4.0), 65)
    assert 0.4 < scan_f.max_increment / scan_c.max_increment < 0.6
    # single interval
    single = gamma_continuity_scan(s, 1, (1.0, 4.0), 2)
    assert single.increments.shape == (1,)
    # a passing N=2 config completes without failures
    s2 = make_config(8, 2)
    scan2 = gamma_continuity_scan(s2, 2, (0.5, 25.0), 64)
    assert not np.any(np.isnan(scan2.increments))


def test_kernel_csv_matches_per_pair_angle_formula():
    # write_kernel_csv takes each direction's angles once; its text must be
    # the bytes of the formula applied to both directions of every pair
    def ang(v):
        return (np.arccos(np.clip(v[2], -1, 1)),
                np.mod(np.arctan2(v[1], v[0]), 2 * np.pi))

    rng = np.random.default_rng(11)
    dirs = rng.standard_normal((6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    above_one = np.nextafter(1.0, 2.0)
    special = np.array([
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],       # poles
        [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0],     # -x axis, phi = pi
        [-0.0, -0.0, -1.0], [-0.0, 1.0, -0.0],   # negative zeros
        [0.0, 0.0, above_one], [0.0, -0.0, -above_one],  # clipped |z|
    ])
    dirs_out = np.vstack([dirs, special])
    dirs_in = dirs_out[::-1]  # a reversed view: negative strides
    rep = smatrix(2.5, make_config(4, 3))
    buf = io.StringIO()
    write_kernel_csv(rep, dirs_out, dirs_in, buf)
    vals = kernel_correction(rep, dirs_out, dirs_in)
    rows = ["theta,phi,theta_p,phi_p,re_s,im_s"]
    for no, row in zip(dirs_out, vals):
        for ni, v in zip(dirs_in, row):
            rows.append(",".join(format(x, ".17g")
                                 for x in (*ang(no), *ang(ni), v.real, v.imag)))
    assert buf.getvalue() == "\n".join(rows) + "\n"


def test_csv_emitters_golden_headers():
    s = make_config(4, 2)
    rep = smatrix(3.0, s)
    buf = io.StringIO()
    write_kernel_csv(rep, np.eye(3)[:2], np.eye(3)[:2], buf)
    assert buf.getvalue().splitlines()[0] == "theta,phi,theta_p,phi_p,re_s,im_s"
    buf2 = io.StringIO()
    write_cross_section_csv(cross_section(rep, [0, 0, 1.0]), buf2)
    assert buf2.getvalue().splitlines()[0] == "theta,phi,value"
    buf3 = io.StringIO()
    write_defect_csv(s, np.linspace(1, 4, 5), buf3)
    lines = buf3.getvalue().splitlines()
    assert lines[0] == "lambda,defect_reduced,gamma_norm,gamma_cond,mu,increment"
    assert len(lines) == 6
    assert all(float(r.split(",")[1]) < 1e-12 for r in lines[1:])


def _lattice20():
    # 40 lambdas per stack
    return generate_family("cubic-lattice-ball", {"spacing": 1.0}, 20)


def test_lambda_rows_and_scan_equal_per_point_across_stacks():
    s = _lattice20()
    lams = np.linspace(0.7, 45.0, 97)
    rows = list(lambda_rows(s, lams))
    gammas = [gamma_at(lam, s) for lam in lams]
    per_point = np.array([np.linalg.norm(b - a, 2) for a, b in zip(gammas, gammas[1:])])
    for lam, g, row, inc in zip(lams, gammas, rows, [np.nan, *per_point]):
        expect = [lam, unitarity_defect_reduced(smatrix(lam, s)), np.linalg.norm(g, 2),
                  np.linalg.cond(g), gram_matrix(lam, s).mu, inc]
        assert np.array(row).tobytes() == np.array(expect).tobytes()
    scan = gamma_continuity_scan(s, None, (0.7, 45.0), 97)
    assert scan.increments.tobytes() == per_point.tobytes()


def test_first_failing_lambda_decides_the_error():
    s = make_config(4, 2)
    # -1 fails only the G_N check; nan fails Gamma before G_N
    with pytest.raises(BadParams, match="positive and finite, got -1.0"):
        write_defect_csv(s, [1.0, -1.0, np.nan], io.StringIO())
    with pytest.raises(BadParams, match="spectral point must be finite"):
        write_defect_csv(s, [1.0, np.nan, -1.0], io.StringIO())


@pytest.mark.parametrize("points", [2.7, True])
def test_scan_points_must_be_an_integer(points, two_scatterers):
    with pytest.raises(BadParams, match="points"):
        gamma_continuity_scan(two_scatterers, None, (1.0, 4.0), points)
    scan = gamma_continuity_scan(two_scatterers, None, (1.0, 4.0), 3.0)
    assert len(scan.increments) == 2


def test_scan_names_first_singular_lambda(monkeypatch):
    s = _lattice20()
    lams = np.linspace(1.0, 40.0, 100)
    # the Q diagonal i sqrt(lam)/(4 pi) names the lambda of a Q
    bad = build_q(lams[[70, 90]], s)[:, 0, 0]
    real = scattering._gamma_from_q

    def gamma_singular_on_bad(q, sub):
        if np.isin(q[..., 0, 0], bad).any():
            raise SingularMatrix("J + Qtilde is numerically singular (rcond 0.00e+00)",
                                 rcond=0.0)
        return real(q, sub)

    monkeypatch.setattr(scattering, "_gamma_from_q", gamma_singular_on_bad)
    msg = re.escape(f"Gamma inversion failed at lambda={lams[70]:g}: J + Qtilde")
    with pytest.raises(SingularMatrix, match=msg) as err:
        gamma_continuity_scan(s, None, (1.0, 40.0), 100)
    assert err.value.rcond == 0.0


@pytest.mark.parametrize("scan", [
    lambda s, interval: gamma_continuity_scan(s, None, interval, 4),
    lambda s, interval: m_sampled(s, 2, interval),
], ids=["gamma_continuity_scan", "m_sampled"])
@pytest.mark.parametrize("interval", [(1.0, np.inf), (2.0, 1.0)])
def test_scan_interval_must_be_finite(scan, interval, two_scatterers):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match=re.escape("0 < a < b < inf")):
            scan(two_scatterers, interval)


def test_sweep_svd_calls_scale_with_stacks_not_points(tmp_path, monkeypatch):
    cfg = tmp_path / "lattice5.json"
    cfg.write_text(json.dumps(
        {"family": {"kind": "cubic-lattice-ball", "N": 5, "params": {}}}))
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    points = 256
    assert main(["sweep", "--config", str(cfg), "--interval", "0.7", "45",
                 "--grid-points", str(points), "--out", str(tmp_path / "s.csv")]) == 0
    stacks = -(-points // (STACK_ENTRIES // 25))
    # one rcond check and one Gamma SVD per stack; a per-point loop makes 2 * 256
    assert 0 < len(calls) <= 2 * stacks
