"""Shared fixtures: the random configuration battery used across suites.

Battery parameters (box size, separation floor, weight range) are kept
inside the regime where the a-priori norm bound p_L(z) dominates the
measured norm; see test_krein.py::test_norm_bound_battery.
"""

import os
import subprocess
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


@pytest.fixture(scope="session")
def battery25():
    return battery()


@pytest.fixture
def two_scatterers():
    return ScattererSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [2.0, 2.0])


@pytest.fixture
def single_scatterer():
    return ScattererSet([[0.0, 0.0, 0.0]], [1.0])


def run_child(argv, cwd):
    """Run ``argv`` in a fresh interpreter that imports this ``zrs``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(zrs.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=60)
