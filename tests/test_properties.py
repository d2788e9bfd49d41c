"""Symmetry laws of the Krein matrices and of S(lambda), as properties over
generated configurations (Albeverio, Gesztesy, Hoegh-Krohn & Holden,
*Solvable Models in Quantum Mechanics*, ch. II.1).

Sites lie on the grid of spacing 1/16 in [-1, 1]^3, at least 3/16 apart,
with weights 0.3 <= |w| <= 3.  A grid translation by a multiple of 1/16
is exact, so the site differences, and with them Q and Gamma, are
unchanged bit for bit; the translation law then tests the phases alone.
Every tolerance is a round-off bound fixed before the first run.  The
examples are derived from the test names (``derandomize``), so every run
checks the same inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zrs import ScattererSet, build_q, c_matrix, kernel_correction, smatrix

from conftest import inverse_error_bound, kernel_error_bound

SPACING = 1.0 / 16.0
MIN_GAP = 3  # grid steps
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                             database=None)


def _apart(cells):
    cells = np.array(cells)
    gaps = np.linalg.norm(cells[:, None] - cells[None], axis=-1)
    return bool(np.all(gaps[np.triu_indices(len(cells), 1)] >= MIN_GAP))


_cell = st.tuples(*[st.integers(-16, 16)] * 3)
_weight = st.tuples(st.floats(0.3, 3.0), st.booleans()).map(
    lambda pair: pair[0] if pair[1] else -pair[0])


@st.composite
def configs(draw, max_n=6):
    """A ScattererSet of 1..max_n grid sites."""
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(_cell, min_size=n, max_size=n, unique=True).filter(_apart))
    weights = draw(st.lists(_weight, min_size=n, max_size=n))
    return ScattererSet(SPACING * np.array(cells, dtype=float), weights)


_nonreal = st.builds(complex, st.floats(-20.0, 20.0),
                     st.floats(0.05, 10.0) | st.floats(-10.0, -0.05))
# off the positive axis: Im z bounded away from 0, or z < 0
_off_axis = _nonreal | st.builds(complex, st.floats(-20.0, -0.05))
_lam = st.floats(0.5, 40.0)
_unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))
_dirs = st.lists(_unit, min_size=1, max_size=4).map(np.array)


@PROPERTY_SETTINGS
@given(configs(), _off_axis)
def test_q_of_conjugate_is_the_adjoint(s, z):
    q = build_q(z, s)
    # entrywise: the conjugate point rounds each Green entry on its own
    err = np.abs(build_q(z.conjugate(), s) - q.conj().T)
    assert np.all(err <= 4 * np.finfo(float).eps * np.abs(q))


@PROPERTY_SETTINGS
@given(configs(), _nonreal)
def test_c_of_conjugate_is_the_adjoint(s, z):
    # Q(conj z) + 4 pi L is the adjoint of Q(z) + 4 pi L, so the two
    # inverses differ by round-off only
    c = c_matrix(z, s)
    c_bar = c_matrix(z.conjugate(), s)
    err = np.linalg.norm(c.conj().T - c_bar, 2)
    assert err <= inverse_error_bound(c) + inverse_error_bound(c_bar)


@PROPERTY_SETTINGS
@given(configs(), _lam, _dirs, _dirs, st.randoms(use_true_random=False))
def test_kernel_is_unchanged_by_a_joint_permutation(s, lam, out, inc, rnd):
    perm = list(range(s.n))
    rnd.shuffle(perm)
    rep = smatrix(lam, s)
    rep_p = smatrix(lam, ScattererSet(s.points[perm], s.weights[perm]))
    wmin = np.min(s.abs_weights)
    bound = (kernel_error_bound(lam, s.points, rep.gamma, wmin)
             + kernel_error_bound(lam, s.points, rep_p.gamma, wmin))
    err = np.abs(kernel_correction(rep_p, out, inc) - kernel_correction(rep, out, inc))
    assert np.all(err <= bound)


@PROPERTY_SETTINGS
@given(configs(), _lam, _dirs, _dirs, _cell)
def test_translation_multiplies_the_kernel_by_a_phase(s, lam, out, inc, cell):
    a = SPACING * np.array(cell, dtype=float)
    moved = ScattererSet(s.points + a, s.weights)
    rep, rep_a = smatrix(lam, s), smatrix(lam, moved)
    assert rep_a.gamma.tobytes() == rep.gamma.tobytes()
    k = np.sqrt(lam)
    phase = np.exp(-1j * k * (out @ a)[:, None]) * np.exp(1j * k * (inc @ a)[None, :])
    wmin = np.min(s.abs_weights)
    # the moved sites' phases, and the factor's own, round with |x + a|
    bound = (kernel_error_bound(lam, s.points, rep.gamma, wmin)
             + kernel_error_bound(lam, moved.points, rep_a.gamma, wmin)
             + 8 * np.finfo(float).eps * (2 * k * np.linalg.norm(a) + 1)
             * np.max(np.abs(kernel_correction(rep, out, inc))))
    err = np.abs(kernel_correction(rep_a, out, inc)
                 - phase * kernel_correction(rep, out, inc))
    assert np.all(err <= bound)
