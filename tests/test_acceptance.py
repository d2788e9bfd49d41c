"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The battery is 25 random admissible configurations
(N in {1, 2, 3, 5, 10}, mixed-sign weights) from conftest.
"""

import numpy as np
import pytest

from zrs import (
    ScattererSet,
    TailNotContractive,
    boundary_condition_residual,
    build_q,
    build_weighted,
    free_resolvent_reproduction,
    gamma_continuity_scan,
    gamma_direct,
    gamma_schur,
    gram_matrix,
    green_at_distance,
    hilbert_identity_residual,
    make_grid,
    omega_unitary,
    overlap_error,
    plane_wave_block,
    resolvent_kernel,
    smatrix,
    smatrix_minus_identity_norm,
    symmetry_residual,
    tail_bound,
    unitarity_defect_quadrature,
    unitarity_defect_reduced,
    weighted_gram_target,
)
from zrs.spherical import default_order

from conftest import battery, explicit_gram, make_config

LAMBDAS_8 = np.geomspace(0.5, 50.0, 8)
Z_BATTERY = [0.5, 2.0, 7.7, 50.0, 1 + 2j, -1.0, 4j, 2 - 3j]


def report(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def configs():
    return battery()


def test_criterion_1_unitarity(configs):
    worst_ratio = 0.0
    worst_gap = 0.0
    worst_bound = np.inf
    for s in configs:
        for lam in LAMBDAS_8:
            rep = smatrix(lam, s)
            d_red = unitarity_defect_reduced(rep)
            worst_ratio = max(worst_ratio, d_red / rep.gamma_cond)
            grid = make_grid(default_order(lam, s))
            d_quad = unitarity_defect_quadrature(rep, grid, trials=4, seed=7)
            err = overlap_error(plane_wave_block(lam, s, grid))
            a = np.sqrt(lam) / (8 * np.pi**2)
            gnorm = np.linalg.norm(rep.coeff, 2) / a
            bnorm = np.linalg.norm(weighted_gram_target(lam, s), 2)
            # quadrature agreement bound: the defect matrices differ by
            # a^2 Gamma^H (B_quad - B) Gamma, measured in the B metric
            tol = 20 * (1 + bnorm) * a**2 * (1 + gnorm) ** 2 * err + 1e-9
            gap = abs(d_quad - d_red)
            worst_gap = max(worst_gap, gap)
            worst_bound = min(worst_bound, tol - gap)
    report("1 unitarity (reduced < 1e-9 cond, quadrature agreement)",
           worst_ratio < 1e-9 and worst_bound >= 0,
           f"worst defect/cond {worst_ratio:.3e}, "
           f"worst |red - quad| {worst_gap:.3e}, slack {worst_bound:.3e}")


def _heavy_tail(s, n0, b=50.0):
    w = s.weights.copy()
    factor = 1e3
    for _ in range(8):
        w2 = w.copy()
        w2[n0:] = w[n0:] * factor
        cand = ScattererSet(s.points, w2)
        if tail_bound(cand, n0, b) < 0.9:
            return cand
        factor *= 10
    raise AssertionError("no contractive tail found")


def test_criterion_2_schur_consistency(configs):
    worst = 0.0
    raised = 0
    checked = 0
    for s in configs:
        if s.n < 2:
            continue
        n0 = s.n // 2
        # contractive tail: Schur and direct must agree
        heavy = _heavy_tail(s, n0)
        p = tail_bound(heavy, n0, 50.0)
        assert p < 1
        qt, j = build_weighted(heavy, build_q(7.0, heavy))
        gs, _ = gamma_schur(qt, j, n0, tail_bound=p)
        gd = gamma_direct(qt, j)
        worst = max(worst, float(np.linalg.norm(gs - gd, 2)
                                 / np.linalg.norm(gd, 2)))
        checked += 1
        # the plain battery config has p >= 1 at b = 50: must raise
        p_plain = tail_bound(s, n0, 50.0)
        if p_plain >= 1.0:
            qt2, j2 = build_weighted(s, build_q(7.0, s))
            with pytest.raises(TailNotContractive):
                gamma_schur(qt2, j2, n0, tail_bound=p_plain)
            raised += 1
    report("2 Schur-Frobenius consistency (< 1e-9 when p < 1)",
           worst < 1e-9 and checked == 20,
           f"worst rel diff {worst:.3e} over {checked} configs, "
           f"{raised} non-contractive raises")


def test_criterion_3_resolvent_identities(configs):
    rng = np.random.default_rng(31)
    worst_h = 0.0
    worst_s = 0.0
    for s in configs:
        for _ in range(10):
            re1, re2 = rng.uniform(-3, 3, 2)
            im1, im2 = rng.uniform(0.2, 2.0, 2) * rng.choice([-1, 1], 2)
            z1, z2 = complex(re1, im1), complex(re2, im2)
            worst_h = max(worst_h, hilbert_identity_residual(z1, z2, s))
            worst_s = max(worst_s, symmetry_residual(z1, s),
                          symmetry_residual(z2, s))
    report("3 resolvent identities (hilbert < 1e-10, symmetry < 1e-12)",
           worst_h < 1e-10 and worst_s < 1e-12,
           f"worst hilbert {worst_h:.3e}, worst symmetry {worst_s:.3e}")


def test_criterion_4_boundary_conditions(configs):
    worst = 0.0
    for s in configs:
        res = boundary_condition_residual(1j, s)
        worst = max(worst, float(np.max(res)))
    report("4 boundary conditions (< 1e-5 at z = i)",
           worst < 1e-5, f"worst residual {worst:.3e}")


def test_criterion_5_gram_boundary_identity(configs):
    worst = 0.0
    mu_min = np.inf
    for s in configs:
        for lam in (0.5, 2.0, 7.7, 50.0):
            # G_N is read off Im Q, so Im Q is measured against the
            # explicit sin(sqrt(lam) r)/(4 pi r) entries
            g = gram_matrix(lam, s)
            q = build_q(lam, s)
            worst = max(worst, float(np.max(np.abs(np.imag(q)
                                                   - explicit_gram([lam], s)[0]))))
            mu_min = min(mu_min, g.mu)
    report("5 Gram boundary identity (max diff < 1e-13, mu > 0)",
           worst < 1e-13 and mu_min > 0,
           f"worst entry diff {worst:.3e}, min mu {mu_min:.3e}")


def test_criterion_6_norm_bound(configs):
    worst = -np.inf
    for s in configs:
        for z in Z_BATTERY:
            qt, _ = build_weighted(s, build_q(z, s))
            measured = float(np.linalg.norm(qt, 2))
            bound = tail_bound(s, 0, abs(z))
            # equality holds for N = 1; allow 1e-12 relative rounding
            worst = max(worst, measured - bound * (1 + 1e-12))
    report("6 tail bound (||Qt||_2 <= tail_bound(s, 0, |z|) on the battery)",
           worst <= 0, f"worst excess {worst:.3e}")


def test_criterion_7_gamma_continuity(configs):
    lo, hi = np.inf, -np.inf
    for s in configs:
        coarse = gamma_continuity_scan(s, s.n, (1.0, 25.0), 193)
        fine = gamma_continuity_scan(s, s.n, (1.0, 25.0), 385)
        ratio = fine.max_increment / coarse.max_increment
        lo, hi = min(lo, ratio), max(hi, ratio)
    report("7 Gamma continuity (increment halves within 20%)",
           0.4 <= lo and hi <= 0.6,
           f"halving ratios in [{lo:.4f}, {hi:.4f}]")


def test_criterion_8_unperturbed_limit():
    worst_s = 0.0
    worst_k = 0.0
    rng = np.random.default_rng(81)
    for n in (1, 2, 3, 5, 10):
        base = make_config(2000 + n, n)
        s = ScattererSet(base.points, np.sign(base.weights) * 1e12)
        worst_s = max(worst_s, smatrix_minus_identity_norm(smatrix(4.0, s)))
        kern = resolvent_kernel(2j, s)
        x = rng.uniform(-1.1, 1.1, (100, 3))
        xp = rng.uniform(-1.1, 1.1, (100, 3))
        free = green_at_distance(2j, np.linalg.norm(x - xp, axis=-1))
        worst_k = max(worst_k, float(np.max(np.abs(kern.evaluate(x, xp) - free))))
    report("8 unperturbed limit (both gaps < 1e-9 at |w| = 1e12)",
           worst_s < 1e-9 and worst_k < 1e-9,
           f"||S - I|| {worst_s:.3e}, sup|K - G0| {worst_k:.3e}")


def test_criterion_9_omega_unitary():
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ups = a.conj().T @ a + 0.05 * np.eye(n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = (h + h.conj().T) / 2
        om = omega_unitary(ups, lam)
        worst = max(worst, float(np.linalg.norm(om.conj().T @ ups @ om - ups, 2)))
    report("9 Omega Gram-metric unitarity (< 1e-11 over 50 pairs)",
           worst < 1e-11, f"worst defect {worst:.3e}")


def test_criterion_10_free_resolvent_reproduction():
    pts = [[0, 0, 0], [0.3, 0.1, -0.2], [-0.5, 0.4, 0.2],
           [0.05, -0.8, 0.1], [0.9, 0.2, -0.3]]
    res = free_resolvent_reproduction(2 + 0.5j, pts)
    report("10 free-resolvent reproduction (< 1e-6 at 5 points)",
           float(np.max(res)) < 1e-6, f"worst residual {np.max(res):.3e}")
