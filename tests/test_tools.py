"""tools/compare_outputs.py: the byte-identity check between two checkouts."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402
import worker  # noqa: E402


def test_self_compare_of_one_warmup_reports_no_difference(tmp_path):
    jobs = compare_outputs._jobs(("smatrix-quadrature",), 1, 0, tmp_path / "configs")
    sides = [compare_outputs._spawn(ROOT, jobs, tmp_path, tag) for tag in ("a", "b")]
    assert len(sides[0]["jobs"]) == 3
    assert compare_outputs.compare(*(side["jobs"] for side in sides)) == ([], 0, 14)
    # the children inherit this process's environment, so its thread count
    assert sides[0]["blas_threads"] == sides[1]["blas_threads"] == worker.blas_threads()
    assert compare_outputs.summary(*sides, 14, 0) == (
        f"3 jobs, 14 fields compared, 0 differ "
        f"(BLAS threads in effect: {worker.blas_threads()})")


def test_threads_option_sets_each_sides_openblas_thread_count(tmp_path, monkeypatch,
                                                              capsys):
    jobs = compare_outputs._jobs(("smatrix-quadrature",), 1, 0, tmp_path / "configs")
    # the option overrides the count the child would inherit
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    side = compare_outputs._spawn(ROOT, jobs[:1], tmp_path, "one", threads=1)
    assert side["blas_threads"] == (None if worker.blas_threads() is None else 1)
    spawned = []

    def fake_spawn(side, jobs, workdir, tag, threads=None):
        spawned.append((side, tag, threads))
        return {"blas_threads": threads, "jobs": {}}

    monkeypatch.setattr(compare_outputs, "_spawn", fake_spawn)
    assert compare_outputs.main(["--threads", "1", "2", str(ROOT), str(ROOT)]) == 0
    assert spawned == [(ROOT, "parent", 1), (ROOT, "change", 2)]
    assert capsys.readouterr().out == (
        "0 jobs, 0 fields compared, 0 differ "
        "(BLAS threads in effect: parent 1, change 2)\n")
    spawned.clear()
    assert compare_outputs.main([str(ROOT), str(ROOT)]) == 0
    assert spawned == [(ROOT, "parent", None), (ROOT, "change", None)]


def test_summary_names_the_thread_count_of_each_side():
    parent = {"blas_threads": 1, "jobs": {"a": None, "b": None}}
    change = {"blas_threads": 2, "jobs": {"a": None, "b": None}}
    assert compare_outputs.summary(parent, change, 9, 1) == (
        "2 jobs, 9 fields compared, 1 differ "
        "(BLAS threads in effect: parent 1, change 2)")


def _result(out, code=0, stderr=""):
    return {"code": code, "error": None, "stdout": "", "stderr": stderr,
            "outputs": {"out": out}}


def test_compare_names_each_differing_column_and_header_key():
    parent = {"sweep": _result("a,b,c\n1,2,3\n4,5,6\n"),
              "smatrix": _result("# lambda=4 defect_reduced=1e-17 gamma_cond=2\n"
                                 "x,y\n1,2\n"),
              "error": _result("", code=1, stderr="zrs: usage error: x\n"),
              "resolvent": _result(json.dumps(
                  {"hilbert_residual": 1e-15, "boundary_residuals": [1e-8, 2e-8, 3e-8],
                   "tolerances": {"boundary": 1e-5}, "pass": True}, indent=2))}
    change = {"sweep": _result("a,b,c\n1,2.5,3\n4,5,7\n"),
              "smatrix": _result("# lambda=4 defect_reduced=3e-17 gamma_cond=2\n"
                                 "x,y\n1,2\n"),
              "error": _result("", code=3, stderr="zrs: numerical failure: y\n"),
              "resolvent": _result(json.dumps(
                  {"hilbert_residual": 1e-15, "boundary_residuals": [1.5e-8, 2e-8, 2e-8],
                   "tolerances": {"boundary": 2e-5}, "pass": False}, indent=2))}
    lines, ndiff, nfields = compare_outputs.compare(parent, change)
    assert (ndiff, nfields) == (5, 20)
    assert lines == [
        "DIFF error code",
        "    first difference at line 1: '1' -> '3'",
        "DIFF error stderr",
        "    first difference at line 1: 'zrs: usage error: x' -> "
        "'zrs: numerical failure: y'",
        "DIFF resolvent out",
        "    key boundary_residuals: 2 values differ, max abs diff 1e-08, "
        "max rel diff 0.333",
        "    key tolerances.boundary: 1 values differ, max abs diff 1e-05, "
        "max rel diff 0.5",
        "    key pass: 1 values differ, max abs diff inf, max rel diff inf",
        "DIFF smatrix out",
        "    column #defect_reduced: 1 values differ, max abs diff 2e-17, "
        "max rel diff 0.667",
        "DIFF sweep out",
        "    column b: 1 values differ, max abs diff 0.5, max rel diff 0.2",
        "    column c: 1 values differ, max abs diff 1, max rel diff 0.143",
    ]


def test_totals_aggregate_each_differing_column_and_key_over_jobs():
    sweep = "lambda,mu\n1,0.5\n2,0.25\n"
    parent = {"a": _result(sweep), "b": _result(sweep), "c": _result(sweep),
              "d": _result('{"x": 1.0, "y": [2.0]}'),
              "e": _result("", code=1, stderr="zrs: x\n")}
    change = {"a": _result("lambda,mu\n1,0.5\n2,0.5\n"),
              "b": _result("lambda,mu\n1,0.75\n2,0.25\n"), "c": _result(sweep),
              "d": _result('{"x": 1.0, "y": [3.0]}'),
              "e": _result("", code=3, stderr="zrs: y\n")}
    assert compare_outputs.totals(parent, change) == [
        "TOTAL column mu: differs in 2 jobs, max abs diff 0.25, max rel diff 0.5",
        "TOTAL key y: differs in 1 jobs, max abs diff 1, max rel diff 0.333",
    ]
    assert compare_outputs.totals(parent, parent) == []
