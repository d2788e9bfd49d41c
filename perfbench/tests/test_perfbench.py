"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from worker import Runner  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_jobs_and_configs(name, tmp_path):
    runs = []
    for sub in ("a", "b"):
        jobs, configs = workloads.make_cycle(name, 7, 3)
        workloads.write_configs(configs, tmp_path / sub)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
        runs.append((workloads.job_list_bytes(jobs), files))
    assert runs[0] == runs[1]
    assert runs[0][1]
    other, _ = workloads.make_cycle(name, 8, 3)
    assert workloads.job_list_bytes(other) != runs[0][0]


def test_cycles_keep_the_same_mix_across_seeds():
    for name in workloads.WORKLOADS:
        shapes = set()
        for seed in (1, 2):
            jobs, _ = workloads.make_cycle(name, seed, 0)
            shapes.add(tuple(sorted((j.kind, j.argv[:1], j.points, j.expect,
                                     j.params.get("n")) for j in jobs)))
        assert len(shapes) == 1, name


def _job(kind, config, argv, points, **params):
    return workloads.Job(kind, config, tuple(argv), points, 0, True, params)


@pytest.fixture
def runner(tmp_path):
    configs = {
        "l5.json": workloads.lattice(5, workloads.random.Random(1)),
        "c16.json": workloads.clustering(16, workloads.random.Random(2)),
    }
    workloads.write_configs(configs, tmp_path)
    return Runner(tmp_path)


SWEEP = _job("sweep", "l5.json", ["sweep", "--interval", "1.0", "9.0",
                                  "--grid-points", "8"], 8,
             interval=[1.0, 9.0], grid_points=8, n=5)
SMATRIX = _job("smatrix", "l5.json", ["smatrix", "--lambda", "3.0"], 1, lam=3.0, n=5)


def test_clean_outputs_pass_gate_and_oracle(runner):
    for job in (SWEEP, SMATRIX):
        out, wall, cpu = runner.run(job)
        assert wall > 0 and cpu >= 0
        assert runner.verify(job, out), runner.failures
    assert runner.failures == [] and runner.attempted == 2


def _corrupt(runner, job, edit):
    out, _, _ = runner.run(job)
    out.text = edit(out.text)
    return runner.verify(job, out)


def test_wrong_header_is_failed(runner):
    assert not _corrupt(runner, SWEEP, lambda t: t.replace("gamma_norm", "gnorm", 1))
    assert runner.failures[-1]["argv"] == list(SWEEP.argv)
    assert "header" in runner.failures[-1]["problems"][0]


def test_defect_set_to_one_is_failed(runner):
    def edit(text):
        head, rest = text.split("\n", 1)
        fields = head.split()
        fields = [f"defect_reduced=1.0" if f.startswith("defect_reduced=") else f
                  for f in fields]
        return " ".join(fields) + "\n" + rest
    assert not _corrupt(runner, SMATRIX, edit)
    assert "defect_reduced" in runner.failures[-1]["problems"][0]


def _set_field(text, line, col, value):
    lines = text.splitlines()
    row = lines[line].split(",")
    row[col] = value(row[col])
    lines[line] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_wrong_row_count_and_nonfinite_are_failed(runner):
    assert not _corrupt(runner, SWEEP, lambda t: t.rsplit("\n", 2)[0] + "\n")
    assert "rows" in runner.failures[-1]["problems"][0]
    assert not _corrupt(runner, SWEEP, lambda t: _set_field(t, 2, 4, lambda v: "nan"))
    assert "non-finite" in runner.failures[-1]["problems"][0]


def test_exit_code_mismatch_is_failed(runner):
    job = workloads.Job("smatrix", "l5.json", ("smatrix", "--lambda", "3.0"), 1,
                        expect=3, params={"lam": 3.0, "n": 5})
    assert not runner.verify(job, runner.run(job)[0])
    assert "exit code 0, expected 3" in runner.failures[-1]["problems"][0]


def test_oracle_catches_a_small_error_the_gate_misses(runner):
    out, _, _ = runner.run(SWEEP)
    out.text = _set_field(out.text, -1, 2, lambda v: repr(float(v) * (1 + 1e-6)))
    assert gate.check(SWEEP, out, {}) == []
    assert not runner.verify(SWEEP, out)
    assert "oracle" in runner.failures[-1]["problems"][0]


def test_self_times_sum_to_at_most_wall_on_a_serial_workload(tmp_path):
    jobs, configs = workloads.make_warmup("truncation", 3)
    workloads.write_configs(configs, tmp_path)
    run = Runner(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        walls = 0.0
        for job in jobs:
            out, wall, _ = run.run(job, tracer)
            assert run.verify(job, out), run.failures
            walls += wall
    finally:
        tracer.uninstall()
    layer_spans = [s for s in tracer.spans if s[3] in LAYERS]
    job_spans = [s for s in tracer.spans if s[3] == "job"]
    assert len(job_spans) == len(jobs) and layer_spans
    self_sum = sum(s[8] for s in layer_spans)
    assert self_sum <= walls
    assert self_sum <= sum(s[8] for s in job_spans)
    assert {s[2] for s in layer_spans} == {s[0] for s in job_spans}
    summary = tracer.summary(1, len(jobs), sum(j.points for j in jobs))
    for layer in ("cli", "scatterers", "krein.assemble", "krein.factorize", "linalg"):
        assert summary[f"{layer}.calls"] > 0


def test_uninstall_restores_every_patched_name():
    import numpy as np
    import zrs
    import zrs.cli
    import zrs.resolvent
    before = (zrs.cli.build_q, zrs.build_q, np.linalg.svd,
              zrs.resolvent.ResolventKernel.evaluate)
    tracer = Tracer()
    tracer.install()
    assert zrs.cli.build_q is not before[0] and zrs.build_q is zrs.cli.build_q
    tracer.uninstall()
    assert (zrs.cli.build_q, zrs.build_q, np.linalg.svd,
            zrs.resolvent.ResolventKernel.evaluate) == before
