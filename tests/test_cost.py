"""Cost census: every dense ``numpy.linalg`` call, every Q build, every
call of a Gamma builder (``gamma_direct``, ``gamma_levels``,
``gamma_schur``), every ScattererSet built, every distance-matrix build
(none) and every pair-list build (one per set whose Q is built) that a
command makes, pinned as a function of N, the grid size and the N-sweep
levels.  A change that adds or removes a call updates CENSUS.

Each call is counted as (routine, order, batch): order n and batch K of
its (K, n, n) argument.  A count catches a structural cost (a second Q
build, one SVD per lambda instead of one per stack, an inversion of the
full order where a Schur step inverts a block) where a timing cannot.

A repeated in-process N-sweep is also held to the page faults it takes
once the heap has grown: none beyond a small allowance.
"""

import json
import resource
from collections import Counter

import pytest

from zrs import _blas, generate_family, scatterers
from zrs.cli import main
from zrs.krein import stack_chunks
from zrs.spherical import default_order

from conftest import count_linalg_calls

ROUTINES = ("build_q", "gamma_direct", "gamma_levels", "gamma_schur",
            "pairwise_distances", "inv", "svd", "eigvalsh", "eigh", "solve",
            "lstsq")
LAM = 5.0


def _smatrix(n, split=None):
    s = generate_family("cubic-lattice-ball", {}, n)
    census = Counter({
        # Q once; Gamma and G_N come from it
        ("build_q", n, 1): 1,
        # gamma_cond of the header
        ("svd", n, 1): 1,
        # the defect's Hermitian norm and the least eigenvalue of G_N
        ("eigvalsh", n, 1): 2,
        # the Gauss-Legendre nodes of the quadrature grid
        ("eigvalsh", default_order(LAM, s), 1): 1,
    })
    if split is None:
        census["gamma_direct", n, 1] += 1
        census["inv", n, 1] += 1
    else:
        # the tail block as the pivot, then its Schur complement
        census["gamma_schur", n, 1] += 1
        census["inv", n - split, 1] += 1
        census["inv", split, 1] += 1
    return census


def _sweep(n, points):
    census = Counter()
    lams = list(range(points))
    for i, chunk in enumerate(stack_chunks(lams, n)):
        k = len(chunk)
        for routine in ("build_q", "gamma_direct", "inv", "svd"):
            census[routine, n, k] += 1
        census["eigvalsh", n, k] += 2
        # the increments: the first stack has no earlier Gamma
        census["svd", n, k - (i == 0)] += 1
    return census


def _nsweep(levels):
    # the levels grown from the smallest, which gamma_direct inverts
    census = Counter({("build_q", max(levels), 1): 1,
                      ("gamma_levels", max(levels), 1): 1,
                      ("gamma_direct", levels[0], 1): 1,
                      ("inv", levels[0], 1): 1})
    for lo, hi in zip(levels, levels[1:]):
        # one bordering step per level, then the gamma_diff on the head
        census["inv", hi - lo, 1] += 1
        census["svd", lo, 1] += 1
    return census


def _resolvent(n):
    return Counter({
        # C at z1 and z2 (Hilbert), z and conj z (symmetry), z (boundary)
        ("build_q", n, 1): 5,
        ("inv", n, 1): 5,
        # the two residual norms
        ("svd", n, 1): 2,
        # the condition number and the solve of the six-radius fit
        ("svd", 3, 1): 1,
        ("lstsq", 3, 1): 1,
    })


# name -> (config N, config weight, argv after --config, expected census)
CENSUS = {
    # the admissibility report is sums over sites: no dense call
    "validate-20": (20, 1.0, ["validate"], Counter()),
    "validate-n-20": (20, 1.0, ["validate", "--n", "12"], Counter()),
    "smatrix-20": (20, 1.0, ["smatrix", "--lambda", "5"], _smatrix(20)),
    "smatrix-n0-20": (20, 100.0, ["smatrix", "--lambda", "5", "--n0", "8"],
                      _smatrix(20, split=8)),
    "sweep-20": (20, 1.0, ["sweep", "--interval", "1", "9", "--grid-points", "64"],
                 _sweep(20, 64)),
    "sweep-8": (8, 1.0, ["sweep", "--interval", "1", "9", "--grid-points", "300"],
                _sweep(8, 300)),
    "sweep-n-20": (20, 1.0, ["sweep", "--interval", "1", "9", "--grid-points", "64",
                             "--n", "12"], _sweep(12, 64)),
    "nsweep-400": (400, 1.0, ["sweep", "--lambda", "5",
                              "--n-sweep", "25,50,100,200,400"],
                   _nsweep([25, 50, 100, 200, 400])),
    "nsweep-30": (30, 1.0, ["sweep", "--lambda", "5", "--n-sweep", "4,10,30"],
                  _nsweep([4, 10, 30])),
    "resolvent-20": (20, 1.0, ["resolvent"], _resolvent(20)),
}


@pytest.mark.parametrize("n, weight, argv, expected", list(CENSUS.values()),
                         ids=list(CENSUS))
def test_command_cost_census(tmp_path, monkeypatch, n, weight, argv, expected):
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps({"family": {"kind": "cubic-lattice-ball", "N": n,
                                          "params": {"weight": weight}}}))
    calls = count_linalg_calls(monkeypatch, *ROUTINES)
    construct = scatterers.ScattererSet.__post_init__
    pair_lists = scatterers.lower_pair_distances

    def counting_construct(s):
        construct(s)
        calls.log.append(("ScattererSet", s.n, 1))

    def counting_pair_lists(points):
        calls.log.append(("lower_pair_distances", len(points), 1))
        return pair_lists(points)
    monkeypatch.setattr(scatterers.ScattererSet, "__post_init__", counting_construct)
    monkeypatch.setattr(scatterers, "lower_pair_distances", counting_pair_lists)
    command, *settings = argv
    # a lattice of equal weights fails the summability verdict
    assert main([command, "--config", str(cfg), *settings,
                 "--out", str(tmp_path / "out")]) == (2 if command == "validate" else 0)
    # the config's set and the prefix that --n asks for, each validated in
    # one row-block pass; an N-sweep builds only its largest level, the set
    # itself.  No distance matrix, and one pair list, of the set whose Q is
    # built: the admissibility report reads eta alone.
    size = int(settings[settings.index("--n") + 1]) if "--n" in settings else n
    builds = Counter({("ScattererSet", n, 1): 1})
    if size != n:
        builds["ScattererSet", size, 1] += 1
    if command != "validate":
        builds["lower_pair_distances", size, 1] = 1
    assert Counter(calls.log) == expected + builds


@pytest.mark.skipif(_blas._mallopt() is None,
                    reason="the heap thresholds are glibc's")
@pytest.mark.parametrize("n", [200, 400])
def test_repeated_nsweep_takes_no_fresh_pages(tmp_path, n):
    # with glibc's own thresholds each N-sweep refaulted what the previous
    # job freed: about 570 (N = 200, alone in a process) and 2320 (N = 400)
    # minor faults per call
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps({"family": {"kind": "cubic-lattice-ball", "N": n}}))
    levels = ",".join(str(v) for v in (25, 50, 100, 200, 400) if v <= n)
    out = str(tmp_path / "out")
    faults = []
    for _ in range(6):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(["sweep", "--config", str(cfg), "--lambda", "5",
                     "--n-sweep", levels, "--out", out]) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert main(["validate", "--config", str(cfg), "--out", out]) == 2
    # the first two runs grow the heap
    assert max(faults[2:]) <= 50, faults
