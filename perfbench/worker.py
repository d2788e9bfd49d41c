"""One benchmark process: set up, run the closed loop, check every job.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread count
set.  It prints one JSON document as its last stdout line.

Set-up covers the imports, the generation of the first cycle's configs
and one warm-up job per job kind; ``setup_s`` runs from the parent's
spawn time (``--t0``, a ``time.monotonic`` reading) to the first timed
job.  With ``--setup-only`` the process stops there.

The loop sends one job at a time (one client, closed loop) and times
each with ``perf_counter`` and ``process_time`` (CPU over all threads).
Output checks and the oracle run between jobs, outside the timed region.
The loop ends at a cycle boundary once ``--seconds`` of job time have
been measured and at least the workload's minimum number of cycles ran.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import zrs
import zrs.cli
import zrs.scattering

import gate
import workloads
from tracer import Tracer

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)


def blas_threads():
    """OpenBLAS thread count in effect, or None when it cannot be read."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_effect": blas_threads(),
        "zrs": getattr(zrs, "__version__", None),
    }


class Runner:
    """Runs jobs in process and checks them outside the timed region."""

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.out = self.workdir / "out.txt"
        self.oracle = gate.Oracle(zrs)
        self.failures = []
        self.notes = {}
        self.attempted = 0

    def run(self, job, tracer=None):
        """Run one job; returns (Outcome, wall s, cpu s)."""
        cfg = str(self.workdir / job.config)
        if self.out.exists():
            self.out.unlink()
        if job.kind == "scan":
            p = job.params

            def call():
                with open(cfg, encoding="utf-8") as fh:
                    s = zrs.from_config(json.load(fh))
                return zrs.scattering.gamma_continuity_scan(
                    s, None, tuple(p["interval"]), p["grid_points"])
        else:
            argv = [job.argv[0], "--config", cfg, *job.argv[1:], "--out", str(self.out)]

            def call():
                return zrs.cli.main(argv)
        err = io.StringIO()
        value = error = None
        if tracer is not None:
            tracer.begin_job()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(err):
                value = call()
        except Exception as exc:  # a raised error is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        c1, t1 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.end_job()
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else None
        if job.kind == "scan":
            out = gate.Outcome(0 if error is None else None, None, err.getvalue(), value, error)
        else:
            out = gate.Outcome(value, text, err.getvalue(), None, error)
        return out, t1 - t0, c1 - c0

    def verify(self, job, out, oracle=True):
        """Gate (and, for sampled jobs, the oracle); records failures."""
        self.attempted += 1
        probs = gate.check(job, out, self.notes)
        if not probs and oracle and job.oracle and job.expect == 0:
            with open(self.workdir / job.config, encoding="utf-8") as fh:
                probs = self.oracle.check(job, out, json.load(fh))
        if probs:
            argv = list(job.argv) or [f"library:{job.kind}"]
            self.failures.append({"argv": argv, "config": job.config, "problems": probs})
        return not probs


def quantile(values, pct):
    """Harrell-Davis estimate of the ``pct`` percentile.

    A Beta-weighted mean of all order statistics: a job mix has gaps
    between the latencies of its job kinds, and a single order statistic
    jumps across such a gap from run to run where this estimate does not.
    """
    from scipy.stats.mstats import hdquantiles
    return float(hdquantiles(np.asarray(values), prob=[pct / 100.0])[0])


def tail(latencies, pct):
    """Latency at ``pct``, stepped down until >= 10 jobs lie beyond it."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if p <= pct and n * (1.0 - p / 100.0) >= 10:
            break
    return quantile(latencies, p), p


def measure(wl, args, runner, first_cycle):
    lat, per_cycle = [], []
    k, measured = 0, 0.0
    while k < wl.min_cycles or measured < args.seconds:
        jobs = first_cycle if k == 0 else load_cycle(wl, args.seed, k, runner.workdir)
        wall = cpu = 0.0
        points = 0
        for job in jobs:
            out, dt, dc = runner.run(job)
            runner.verify(job, out)
            lat.append(dt)
            wall += dt
            cpu += dc
            points += job.points
        per_cycle.append((points / wall, 1e3 * cpu / points))
        measured += wall
        k += 1
    # read before the quantile estimator imports scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_ms, tail_pct = tail(lat, wl.tail_pct)
    rates = np.array(per_cycle)
    metrics = {
        "points_per_s": float(np.median(rates[:, 0])),
        "job_p50_ms": 1e3 * quantile(lat, 50.0),
        "job_tail_ms": 1e3 * tail_ms,
        "cpu_ms_per_point": float(np.median(rates[:, 1])),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"cycles": k, "jobs": len(lat), "measured_s": measured, "unit": wl.unit,
            "tail_percentile": tail_pct, "tail_samples": len(lat)}
    return metrics, info


def measure_traced(wl, args, runner, first_cycle, tracer):
    """Untraced and traced passes over the same cycles, alternating order."""
    walls = {False: 0.0, True: 0.0}
    jobs_traced = points_traced = 0
    k = 0
    while k < 1 or walls[False] < args.seconds / 2:
        jobs = first_cycle if k == 0 else load_cycle(wl, args.seed, k, runner.workdir)
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            for job in jobs:
                out, dt, _ = runner.run(job, tracer if traced else None)
                # the oracle runs once per job, after the untraced pass
                runner.verify(job, out, oracle=not traced)
                walls[traced] += dt
                if traced:
                    jobs_traced += 1
                    points_traced += job.points
        k += 1
    tracer.uninstall()
    metrics = tracer.summary(k, jobs_traced, points_traced)
    metrics["trace_overhead"] = walls[True] / walls[False]
    silent = [layer for layer in wl.stresses if metrics[f"{layer}.calls"] == 0]
    info = {"cycles": k, "jobs": jobs_traced, "unit": wl.unit, "silent_layers": silent}
    return metrics, info


def load_cycle(wl, seed, k, workdir):
    jobs, configs = workloads.make_cycle(wl.name, seed, k)
    workloads.write_configs(configs, workdir)
    return jobs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    try:
        runner = Runner(workdir)
        first = load_cycle(wl, args.seed, 0, workdir)
        warm, configs = workloads.make_warmup(wl.name, args.seed)
        workloads.write_configs(configs, workdir)
        outcomes = [runner.run(job)[0] for job in warm]
        setup_s = time.monotonic() - args.t0
        for job, out in zip(warm, outcomes):
            runner.verify(job, out)
        result = {"setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                tracer = Tracer()
                metrics, info = measure_traced(wl, args, runner, first, tracer)
                if args.spans:
                    tracer.write(args.spans)
            else:
                metrics, info = measure(wl, args, runner, first)
            result.update(metrics=metrics, info=info, facts=facts())
        result.update(attempted=runner.attempted, failures=runner.failures,
                      notes=runner.notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
