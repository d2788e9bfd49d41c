"""Symmetry laws of the Krein matrices and of S(lambda), as properties over
generated configurations (Albeverio, Gesztesy, Hoegh-Krohn & Holden,
*Solvable Models in Quantum Mechanics*, ch. II.1), and the exit-code
contract of the command line over configurations of any scale.

Sites lie on the grid of spacing 1/16 in [-1, 1]^3, at least 3/16 apart,
with weights 0.3 <= |w| <= 3.  A grid translation by a multiple of 1/16
is exact, so the site differences, and with them Q and Gamma, are
unchanged bit for bit; the translation law then tests the phases alone.
Every tolerance is a round-off bound fixed before the first run.  The
examples are derived from the test names (``derandomize``), so every run
checks the same inputs.
"""

import functools
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from zrs import (ScattererSet, SingularMatrix, build_q, build_weighted, c_matrix,
                 hilbert_identity_residual, kernel_correction,
                 separation_profile, smatrix, smatrix_minus_identity_norm,
                 tail_bound)
from zrs.cli import main
from zrs.krein import resolvent_strengths
from zrs.scatterers import pairwise_distances

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


EPS = np.finfo(float).eps


@PROPERTY_SETTINGS
@given(st.tuples(*[st.floats(-100.0, 100.0)] * 3), st.floats(-300.0, 300.0),
       st.booleans(), st.floats(-3.0, 3.0))
def test_one_site_multiplies_its_s_wave_by_the_closed_form(x0, w_exp, negative,
                                                           lam_exp):
    # S maps the s-wave e^{-i k x0.n} about the site to mu times itself:
    # S f = f - T u <f, u> with u = sqrt(4 pi / |w|) f gives
    # mu = 1 - 4 pi T / |w| = (4 pi w - i k)/(4 pi w + i k), of modulus 1
    w = (-1.0 if negative else 1.0) * 10.0 ** w_exp
    lam = 10.0 ** lam_exp
    rep = smatrix(lam, ScattererSet([x0], [w]))
    mu = 1.0 - 4.0 * np.pi * rep.coeff[0, 0] / abs(w)
    ik = 1j * np.sqrt(lam)
    assert abs(mu - (4.0 * np.pi * w - ik) / (4.0 * np.pi * w + ik)) <= 16 * EPS
    assert abs(abs(mu) - 1.0) <= 16 * EPS


# relative rounding of the computed ||S - I|| and of 2q/(1 - q): Q, Qt,
# Gamma, B, its root and the norms each round by a few eps per order
S_MINUS_I_ROUNDING = 32


@PROPERTY_SETTINGS
@given(configs(max_n=8), st.floats(0.0, 12.0), st.floats(-2.0, 2.0))
# one site, the largest weight and the least lambda: q ~ 3e-15, where the
# bound is tightest (the exact ratio to it is 1 - q + O(q^2))
@example(ScattererSet([[0.0, 0.0, 0.0]], [3.0]), 12.0, -2.0)
def test_s_tends_to_the_identity_as_the_weights_grow(s, w_exp, lam_exp):
    # with q = ||Qt(lam)||_2 < 1: ||S - I|| = ||B^{1/2} T B^{1/2}|| <= ||B|| ||T||,
    # B = (16 pi^2 / sqrt(lam)) Im Qt gives ||B|| <= (16 pi^2 / sqrt(lam)) q,
    # T = i sqrt(lam) / (8 pi^2) Gamma, and Gamma = (J + Qt)^{-1}
    # = (I + J Qt)^{-1} J with J a signature matrix gives ||Gamma|| <= 1/(1 - q);
    # so ||S - I|| <= 2q/(1 - q), which tends to 0 as |w| grows
    s = ScattererSet(s.points, s.weights * 10.0 ** w_exp)
    lam = 10.0 ** lam_exp
    q = np.linalg.norm(build_weighted(s, build_q(lam, s))[0], 2)
    assume(q < 1.0)
    bound = 2.0 * q / (1.0 - q) * (1.0 + S_MINUS_I_ROUNDING * s.n * EPS)
    assert smatrix_minus_identity_norm(smatrix(lam, s)) <= bound


@st.composite
def hilbert_cases(draw):
    """1..12 sites on the grid of 16 steps in a box of side 10^U(-2, 1),
    weights +-10^U(-3, 3), and two points z with Re z in [-5, 5]
    and |Im z| = 10^U(-2, 1)."""
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 16)] * 3),
                          min_size=n, max_size=n, unique=True))
    side = 10.0 ** draw(st.floats(-2.0, 1.0))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    z = [complex(draw(st.floats(-5.0, 5.0)),
                 draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 1.0)))
         for _ in range(2)]
    s = ScattererSet(side / 16 * np.array(cells, dtype=float),
                     np.array(signs) * 10.0 ** np.array(exponents))
    return s, *z


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(hilbert_cases())
def test_hilbert_identity_holds_to_round_off(case):
    # C1 - C2 + (z1 - z2) C1 Phi C2 = C1 (A2 - A1 + (A1 - A2)) C2 = 0 for
    # A_k = Q(z_k) + 4 pi L and C_k = A_k^{-1}; the bound adds the
    # backward error of each inverse and carries it through the product
    s, z1, z2 = case
    assume(z1 != z2)
    try:
        c1, c2 = c_matrix(z1, s), c_matrix(z2, s)
    except SingularMatrix:
        assume(False)
    a1, a2 = (build_q(z, s) + np.diag(resolvent_strengths(s)) for z in (z1, z2))
    norm = functools.partial(np.linalg.norm, ord=2)
    da, nc1, nc2 = norm(a1 - a2), norm(c1), norm(c2)
    bound = 16 * s.n * EPS * (norm(a1) * nc1**2 * (1 + da * nc2)
                              + norm(a2) * nc2**2 * (1 + da * nc1))
    assert hilbert_identity_residual(z1, z2, s) <= bound


@st.composite
def admitted_splits(draw):
    """2..8 sites on the grid of 16 steps in a box of side 10^U(-3, 3),
    weights +-10^U(-6, 6), a split 1 <= N0 < N and a window top
    b = 10^U(-2, 2); the tail weights are doubled until the tail bound
    p_{N0,L}(b) < 1 admits the split."""
    n = draw(st.integers(2, 8))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 16)] * 3),
                          min_size=n, max_size=n, unique=True))
    side = 10.0 ** draw(st.floats(-3.0, 3.0))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n))
    n0 = draw(st.integers(1, n - 1))
    b = 10.0 ** draw(st.floats(-2.0, 2.0))
    points = side / 16 * np.array(cells, dtype=float)
    weights = np.array(signs) * 10.0 ** np.array(exponents)
    # each term of p falls as the tail weights grow, so this ends
    while tail_bound(ScattererSet(points, weights), n0, b) >= 1.0:
        weights[n0:] *= 2.0
    return ScattererSet(points, weights), n0, b


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(admitted_splits(), st.floats(1e-3, 1.0))
def test_an_admitted_tail_is_a_contraction(split, fraction):
    # p_{N0,L}(b) < 1 admits the Schur route; the inversion through R
    # needs ||Qt_tail(lambda)||_2 < 1 at every 0 < lambda <= b
    s, n0, b = split
    qt, _ = build_weighted(s, build_q(fraction * b, s))
    assert np.linalg.norm(qt[n0:, n0:], 2) < 1.0


# each command at fixed settings; the small grid order keeps smatrix cheap
# for sites spread over a box of side 1000
_COMMANDS = {
    "validate": lambda n: ["validate"],
    "smatrix": lambda n: ["smatrix", "--lambda", "5", "--grid-order", "8"],
    "smatrix-schur": lambda n: ["smatrix", "--lambda", "5", "--n0", "1",
                                "--grid-order", "8"],
    "lambda-sweep": lambda n: ["sweep", "--interval", "1", "9", "--grid-points", "3"],
    "n-sweep": lambda n: ["sweep", "--lambda", "5", "--n-sweep", f"1,{n}"],
    "resolvent": lambda n: ["resolvent"],
}
_unit = st.floats(0.0, 1.0)


def _ten_to(e):
    """10^e as a float, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.power(10.0, e))


@st.composite
def command_runs(draw):
    """A config and the argv of one command on it.  The config is 1..6
    points in a box of side 10^U(-3, 3) with weights +-10^U(-300, 300), or
    a family of 1..30 sites: spacing 10^U(-320, 320) and weight
    +-10^U(-320, 320), or exponents p, q in U(-500, 500) and w0
    +-10^U(-320, 320)."""
    sign = st.sampled_from([-1.0, 1.0])
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        side = 10.0 ** draw(st.floats(-3.0, 3.0))
        points = draw(st.lists(st.tuples(_unit, _unit, _unit), min_size=n, max_size=n))
        signs = draw(st.lists(sign, min_size=n, max_size=n))
        exponents = draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
        data = {"points": (side * np.array(points)).tolist(),
                "weights": [s * 10.0 ** e for s, e in zip(signs, exponents)]}
    else:
        n = draw(st.integers(1, 30))
        kind = draw(st.sampled_from(["uniform-line", "cubic-lattice-ball", "clustering"]))
        weight = draw(sign) * _ten_to(draw(st.floats(-320.0, 320.0)))
        if kind == "clustering":
            params = {"p": draw(st.floats(-500.0, 500.0)),
                      "q": draw(st.floats(-500.0, 500.0)), "w0": weight}
        else:
            params = {"spacing": _ten_to(draw(st.floats(-320.0, 320.0))),
                      "weight": weight}
        data = {"family": {"kind": kind, "N": n, "params": params}}
    return data, _COMMANDS[draw(st.sampled_from(sorted(_COMMANDS)))](n)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# terms spanning the float range in the convergence flags, and a weight
# whose Qt overflows
_SPANNING = {"points": [[m, 0, 0] for m in range(8)],
             "weights": [1, 1, 1, 1, 1e300, 1, 1, 1e-300]}
_SUBNORMAL = {"points": [[0, 0, 0], [1, 0, 0]], "weights": [5e-324, 1.0]}


def _family(kind, n, **params):
    return {"family": {"kind": kind, "N": n, "params": params}}


# weights whose overlap B overflows, or (the last) the quadrature defect
_OVERLAP = [
    ({"points": [[0, 0, 0], [10, 0, 0]], "weights": [1e-308, 1e-308]},
     ["sweep", "--interval", "1", "4", "--grid-points", "5"]),
    ({"points": [[0, 0, 0], [10, 0, 0]], "weights": [1e-308, 1e-308]},
     ["smatrix", "--lambda", "3", "--grid-order", "8"]),
    (_family("clustering", 27, p=-3.2577747906236976, q=1.8430980705772795,
             w0=7.582444187883444e-309),
     ["sweep", "--interval", "1", "4", "--grid-points", "5"]),
    (_family("clustering", 15, p=0.17993963505631339, q=-2.081051786705026,
             w0=5.9203753264245e-305),
     ["smatrix", "--lambda", "3", "--grid-order", "8"]),
]
# families whose coordinates or weights overflow
_FAMILY_OVERFLOWS = [
    _family("clustering", 300, p=2, q=400),
    _family("clustering", 10, p=-400, q=3),
    _family("clustering", 5, p=2, q=5, w0=1e308),
    _family("cubic-lattice-ball", 30, spacing=1e308),
    _family("uniform-line", 3, spacing=1e308),
]


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_runs())
@example((_SPANNING, ["validate", "--n0", "8"]))
@example((_SUBNORMAL, _COMMANDS["smatrix"](2)))
@example((_SUBNORMAL, _COMMANDS["lambda-sweep"](2)))
@example(_OVERLAP[0])
@example(_OVERLAP[1])
@example(_OVERLAP[2])
@example(_OVERLAP[3])
@example((_FAMILY_OVERFLOWS[0], ["validate"]))
@example((_FAMILY_OVERFLOWS[1], ["validate"]))
@example((_FAMILY_OVERFLOWS[2], ["validate"]))
@example((_FAMILY_OVERFLOWS[3], ["validate"]))
@example((_FAMILY_OVERFLOWS[4], ["validate"]))
def test_every_generated_config_runs_or_exits_with_one_line(tmp_path, run):
    data, argv = run
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    # an exception out of main fails the example with its traceback
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([*argv, "--config", str(cfg)])
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    if argv[0] in ("validate", "resolvent") and out:
        payload = json.loads(out, parse_constant=_no_constant)
    if code in (0, 2) or (argv[0] == "resolvent" and code == 3 and out):
        assert err == ""
        if code == 3:
            assert payload["pass"] is False
    else:
        assert out == ""
        assert err.startswith("zrs: ") and err.count("\n") == 1


@PROPERTY_SETTINGS
@given(configs(max_n=8))
def test_eta_and_prefixes_match_brute_force(s):
    # eta_m is the least pairwise distance among the first max(m, 2)
    # points, inf where there is no pair (a single site); ref is bit-equal
    # to the set's distance matrix (test_scatterers.py)
    ref = np.linalg.norm(s.points[:, None] - s.points[None], axis=-1)

    def least(k):
        return min((ref[i, j] for i in range(min(k, s.n)) for j in range(i)),
                   default=np.inf)

    eta = s.eta
    assert eta.tolist() == [least(max(m, 2)) for m in range(1, s.n + 1)]
    assert separation_profile(s).tobytes() == eta[1:].tobytes()
    assert np.all(np.diff(eta) <= 0)
    # a prefix is built as any set: the leading points and weights, the
    # leading block of the distances and the leading eta (a single site's
    # is inf)
    for n in range(1, s.n + 1):
        sub = s.prefix(n)
        assert sub.points.tobytes() == s.points[:n].tobytes()
        assert sub.weights.tobytes() == s.weights[:n].tobytes()
        assert pairwise_distances(sub.points).tobytes() == \
            pairwise_distances(s.points)[:n, :n].tobytes()
        assert sub.eta.tolist() == (eta[:n].tolist() if n > 1 else [np.inf])
