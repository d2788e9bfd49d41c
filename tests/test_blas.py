"""Serial BLAS regions: the OpenBLAS thread count is restored on every
exit path, and sweep outputs do not depend on the host's thread count."""

import contextlib
import json
import sys

import numpy as np
import pytest

from zrs import SingularMatrix, _blas, build_q, generate_family, scattering
from zrs._blas import SERIAL_BLAS_MAX_N, serial_blas
from zrs.cli import main

from conftest import run_child


class FakeOpenBLAS:
    """Stands in for the library's get/set pair and records each set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


# the real library where numpy's OpenBLAS is found, and a fake everywhere
THREADS = ["fake"] + (["openblas"] if _blas._controls() is not None else [])


@pytest.fixture(params=THREADS)
def get_threads(request, monkeypatch):
    """The getter of a two-thread BLAS that serial_blas acts on."""
    if request.param == "fake":
        fake = FakeOpenBLAS(2)
        monkeypatch.setattr(_blas, "_controls", lambda: (fake.get, fake.set))
        yield fake.get
        return
    get, set_ = _blas._controls()
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


def _lattice(tmp_path, n, weight=1.0):
    cfg = tmp_path / f"lattice{n}-{weight:g}.json"
    cfg.write_text(json.dumps({"family": {"kind": "cubic-lattice-ball", "N": n,
                                          "params": {"weight": weight}}}))
    return str(cfg)


def _run_under_one_and_two_threads(tmp_path, monkeypatch, argv):
    """The stdout of ``zrs argv`` in a fresh interpreter under one and under
    two OpenBLAS threads; each run must exit 0."""
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = run_child([sys.executable, "-m", "zrs", *argv], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_sweep_runs_serially_and_restores_the_count(tmp_path, monkeypatch, get_threads):
    seen = []
    svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        seen.append(get_threads())
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert main(["sweep", "--config", _lattice(tmp_path, 20), "--interval", "1", "9",
                 "--grid-points", "8", "--out", str(tmp_path / "s.csv")]) == 0
    assert seen and set(seen) == {1}
    assert get_threads() == 2


def test_singular_matrix_mid_sweep_restores_the_count(tmp_path, monkeypatch,
                                                      get_threads):
    lams = np.linspace(1.0, 9.0, 40)
    s = generate_family("cubic-lattice-ball", {}, 20)
    real = scattering._gamma_from_q
    # the Q diagonal i sqrt(lam)/(4 pi) names the lambda of a Q
    bad = build_q(lams[30], s)[0, 0]
    calls = []

    def gamma_singular_late(q, sub):
        calls.append(get_threads())
        if np.isin(q[..., 0, 0], bad).any():
            raise SingularMatrix("J + Qtilde is numerically singular (rcond 0.00e+00)",
                                 rcond=0.0)
        return real(q, sub)

    monkeypatch.setattr(scattering, "_gamma_from_q", gamma_singular_late)
    # N = 20 takes 40 lambdas per stack, so lambda 30 fails in mid-stack and
    # the stack is replayed one lambda at a time before the error leaves
    assert main(["sweep", "--config", _lattice(tmp_path, 20), "--interval", "1", "9",
                 "--grid-points", "40", "--out", str(tmp_path / "s.csv")]) == 3
    assert len(calls) > 1 and set(calls) == {1}
    assert get_threads() == 2
    with pytest.raises(SingularMatrix):
        scattering.gamma_continuity_scan(s, None, (1.0, 9.0), 40)
    assert get_threads() == 2


def test_nested_and_overlapping_regions_restore_the_first_count(get_threads):
    with serial_blas(10):
        assert get_threads() == 1
        with serial_blas(SERIAL_BLAS_MAX_N + 1):
            assert get_threads() == 1
        with serial_blas(SERIAL_BLAS_MAX_N):
            assert get_threads() == 1
        assert get_threads() == 1
    assert get_threads() == 2
    # regions of two threads may close in either order: the count returns
    # when the last one closes
    with contextlib.ExitStack() as first:
        first.enter_context(serial_blas(10))
        second = contextlib.ExitStack()
        second.enter_context(serial_blas(10))
    assert get_threads() == 1
    second.close()
    assert get_threads() == 2
    with pytest.raises(RuntimeError):
        with serial_blas(10):
            raise RuntimeError("inside")
    assert get_threads() == 2


def test_large_orders_and_single_thread_are_left_alone(monkeypatch):
    fake = FakeOpenBLAS(2)
    monkeypatch.setattr(_blas, "_controls", lambda: (fake.get, fake.set))
    with serial_blas(SERIAL_BLAS_MAX_N + 1):
        assert fake.count == 2
    fake.count = 1
    with serial_blas(10):
        assert fake.count == 1
    assert fake.sets == []


def test_region_is_a_no_op_without_openblas(monkeypatch):
    # a numpy built on another BLAS, or an OpenBLAS not found next to numpy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    monkeypatch.setitem(blas, "name", "mkl")
    assert _blas._controls.__wrapped__() is None
    monkeypatch.undo()
    monkeypatch.setattr(_blas.glob, "glob", lambda pattern: [])
    assert _blas._controls.__wrapped__() is None
    monkeypatch.setattr(_blas, "_controls", lambda: None)
    ran = []
    with serial_blas(10):
        ran.append(True)
    assert ran == [True] and _blas._depth == 0


def test_sweep_output_does_not_depend_on_blas_threads(tmp_path, monkeypatch):
    runs = [
        (_lattice(tmp_path, 100), ["--interval", "0.7", "45", "--grid-points", "8"], 8),
        # every bordering step of 25 -> ... -> 400 is of order <= 200
        (_lattice(tmp_path, 400), ["--lambda", "5", "--n-sweep", "25,50,100,200,400"], 4),
    ]
    for cfg, mode, rows in runs:
        outs = _run_under_one_and_two_threads(tmp_path, monkeypatch,
                                              ["sweep", "--config", cfg, *mode])
        assert len(outs[0].splitlines()) == rows + 1
        assert outs[0] == outs[1]


@pytest.mark.parametrize("n", [20, 50, 150])
def test_smatrix_output_does_not_depend_on_blas_threads(tmp_path, monkeypatch, n):
    # weight 10 makes the tail block of the Schur split contractive
    runs = [["--config", _lattice(tmp_path, n)],
            ["--config", _lattice(tmp_path, n, 10.0), "--n0", str(n // 2)]]
    for run in runs:
        outs = _run_under_one_and_two_threads(tmp_path, monkeypatch,
                                              ["smatrix", "--lambda", "5", *run])
        # the header and the 8 x 8 kernel sample
        assert len(outs[0].splitlines()) == 2 + 64
        assert outs[0] == outs[1]


def test_resolvent_output_does_not_depend_on_blas_threads(tmp_path, monkeypatch):
    cfg = tmp_path / "lattice150.json"
    cfg.write_text(json.dumps({"family": {"kind": "cubic-lattice-ball", "N": 150},
                               "z": [0.5, 1.0]}))
    outs = _run_under_one_and_two_threads(tmp_path, monkeypatch,
                                          ["resolvent", "--config", str(cfg)])
    assert json.loads(outs[0])["pass"]
    assert outs[0] == outs[1]
