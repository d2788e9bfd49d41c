"""Shared fixtures: the random configuration battery used across suites.

Battery parameters (box size, separation floor, weight range) are kept
inside the regime where the a-priori norm bound p_L(z) dominates the
measured norm; see test_krein.py::test_norm_bound_battery.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zrs
from zrs import ScattererSet

BOX_HALF = 0.55
MIN_SEP = 0.18
W_LO, W_HI = 0.3, 1.2
BATTERY_SIZES = (1, 2, 3, 5, 10)
SEEDS_PER_SIZE = 5


def make_config(seed, n, w_scale=1.0):
    """Deterministic random configuration with mixed-sign weights."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        c = rng.uniform(-BOX_HALF, BOX_HALF, 3)
        if all(np.linalg.norm(c - p) >= MIN_SEP for p in pts):
            pts.append(c)
    w = rng.uniform(W_LO, W_HI, n) * rng.choice([-1.0, 1.0], n)
    if n >= 2:
        w[0] = abs(w[0])
        w[1] = -abs(w[1])
    return ScattererSet(np.array(pts), w * w_scale)


def battery():
    """The 25-configuration acceptance battery (N in {1,2,3,5,10} x 5 seeds)."""
    return [
        make_config(1000 + 7 * i + n, n)
        for n in BATTERY_SIZES
        for i in range(SEEDS_PER_SIZE)
    ]


def explicit_gram(lams, s):
    """The (K, N, N) stack of G_N at each of ``lams``, assembled from its
    entries sqrt(lam)/(4 pi) and sin(sqrt(lam) r)/(4 pi r) apart from Q:
    the reference for G_N = Im Q(lam + i0)."""
    k = np.sqrt(np.asarray(lams, dtype=float))[:, None, None]
    d = s.distances()
    with np.errstate(invalid="ignore"):  # 0/0 on the diagonal, replaced
        off = np.sin(k * d) / (4.0 * np.pi * d)
    return np.where(np.eye(s.n, dtype=bool), k / (4.0 * np.pi), off)


def explicit_gram_cases(battery):
    """(config, lambdas) pairs on which Im Q is held to ``explicit_gram``:
    the battery at three lambdas, and two sweeps that span more than one
    lambda stack."""
    stacked = [zrs.generate_family("cubic-lattice-ball", {"spacing": 1.0}, 20),
               zrs.generate_family("clustering", {"p": 2, "q": 7}, 16)]
    return ([(s, np.array([0.9, 7.3, 40.0])) for s in battery]
            + [(s, np.linspace(0.7, 45.0, 97)) for s in stacked])


@pytest.fixture(scope="session")
def battery25():
    return battery()


@pytest.fixture
def two_scatterers():
    return ScattererSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [2.0, 2.0])


@pytest.fixture
def single_scatterer():
    return ScattererSet([[0.0, 0.0, 0.0]], [1.0])


def bordering_bound(a, gamma):
    """Round-off bound 4 n eps kappa_F(A) ||Gamma||_2, with kappa_F =
    ||A||_F ||Gamma||_F and ``gamma`` the direct inverse of the order-n
    block ``a`` of J + Qt, on the distance between two Schur-complement
    inverses of ``a``, or between one and ``gamma``: the Gamma that
    ``zrs.krein.gamma_levels`` borders up to order n, and the Schur route's
    Gamma of one step against its block formula."""
    kappa = np.linalg.norm(a, "fro") * np.linalg.norm(gamma, "fro")
    return 4 * a.shape[0] * np.finfo(float).eps * kappa * np.linalg.norm(gamma, 2)


def run_child(argv, cwd):
    """Run ``argv`` in a fresh interpreter that imports this ``zrs``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(zrs.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=60)


def count_linalg_calls(monkeypatch, *names):
    """Count calls of the named ``numpy.linalg`` functions, also those made
    inside numpy (``norm(., 2)`` and ``cond`` call ``svd`` through the
    implementation module); returns the name -> count dict."""
    impl = sys.modules[np.linalg.norm.__wrapped__.__module__]
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(impl, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(impl, name, counting)
    return calls
