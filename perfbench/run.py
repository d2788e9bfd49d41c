"""Layered benchmark for zrs: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lambda-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the run facts and any failed job.

Every measurement runs in a child process (``worker.py``) started with
``PYTHONPATH=src`` and ``OPENBLAS_NUM_THREADS`` set to the number of CPUs
this process may use, the default a user gets.  ``setup_s`` is the median
over several such processes: each imports the program, writes the first
cycle's configs and runs one warm-up job per job kind; the last one goes
on to the timed loop.  Results, and the spans of a traced run, are kept
under ``.perfbench/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, nproc, tag, extra, deadline):
    """Run one worker process; returns its parsed result document."""
    workdir = OUT / f"work-{os.getpid()}-{tag}"
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc),
               PYTHONPATH=os.pathsep.join(pythonpath))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec):
    nproc = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    docs = []
    if not args.trace:
        docs += [spawn(args, nproc, i, ["--setup-only"], deadline)
                 for i in range(SETUP_SAMPLES - 1)]
    spans = OUT / f"spans-{args.workload}.jsonl.gz"
    docs.append(spawn(args, nproc, "main",
                      ["--spans", str(spans)] if args.trace else [], deadline))
    main = docs[-1]
    attempted = sum(d["attempted"] for d in docs)
    failures = [f for d in docs for f in d["failures"]]
    values = dict(main["metrics"])
    values["setup_s"] = statistics.median(d["setup_s"] for d in docs)
    values["ok_ratio"] = (attempted - len(failures)) / attempted
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    silent = main["info"].get("silent_layers", [])
    facts = dict(main["facts"], nproc=nproc, blas_threads_set=nproc,
                 git_commit=git_commit(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 setup_samples=[d["setup_s"] for d in docs],
                 failed_ratio=len(failures) / attempted, **main["info"],
                 **{k: sum(d["notes"].get(k, 0) for d in docs) for k in main["notes"]})
    # measured only by a traced run of the workload
    facts["trace_overhead"] = values.get("trace_overhead")
    if args.trace:
        facts["spans_file"] = str(spans.relative_to(ROOT))
    result = {"correct": not failures and not silent, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = dict(result, facts=facts, failures=failures)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result, facts, failures


def report(name, result, facts, failures):
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:42s} {v['value']:>14.6g} {v['unit']}")
    print("   facts " + json.dumps(facts, sort_keys=True))
    for f in failures:
        print("   FAILED " + json.dumps(f), file=sys.stderr)
    if facts.get("silent_layers"):
        print(f"   FAILED layers with zero calls: {facts['silent_layers']}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a termination request unwinds through subprocess.run, which kills
    # and reaps the worker before re-raising
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "zrs" / "__init__.py").is_file():
        print("perfbench: no zrs sources under src/; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, facts, failures = run_workload(
            argparse.Namespace(**dict(vars(args), workload=name)), spec)
        report(name, result, facts, failures)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
