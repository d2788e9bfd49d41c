"""Compare what two zrs checkouts print on the benchmark's job lists.

    python3 tools/compare_outputs.py [--threads P C] PARENT CHANGE

PARENT and CHANGE are checkout directories, each holding ``src/zrs``;
they may be one directory, to check a tree against itself.
The jobs are the warm-up and cycles 0 and 1 of every workload's job
list at seed 1, taken from ``perfbench/workloads.py`` of the checkout
holding this script (read and not modified), and the demos of each
side.  Each side runs every job in one child process started with
``PYTHONPATH=<side>/src``:

- a benchmark job runs through the benchmark's own job runner,
  ``perfbench/worker.py``'s ``Runner`` (``zrs.cli.main`` in-process
  with ``--out`` set, or the continuity scan, whose result is kept as a
  ``lambda,increment,flagged`` CSV);
- a demo runs its script from a fresh working directory and keeps the
  files it writes under ``demo_output/``.

Each side also reports the OpenBLAS thread count in effect when its
jobs start (from ``perfbench/worker.py``), and the summary line names
it, since outputs computed with more than one thread may differ in the
last bits.  Both sides inherit ``OPENBLAS_NUM_THREADS``; ``--threads P
C`` sets it to P for the parent's child and to C for the change's, so
``--threads 1 2 TREE TREE`` shows what depends on the thread count.

For each job the tool compares the exit code, the error raised (if
any), stdout, stderr and the output bytes.  For a CSV that differs it
names each differing column, and each differing ``key=value`` of a ``#``
comment line, with its largest absolute and relative difference.  For a
JSON object or list that differs it names each differing key path (the
entries of a list share their list's path) the same way; a differing
non-numeric value counts as an infinite difference.  The report ends
with one ``TOTAL`` line per column, header key or key path that differs
anywhere: the number of jobs it differs in and its largest absolute and
relative difference over all of them.  It exits 0 when every output is
byte-identical and 1 otherwise.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402

WORKLOADS = tuple(sorted(wl.WORKLOADS))
SEED = 1
CYCLES = 2


# -- job lists (parent process) ------------------------------------------

def _jobs(workloads, seed, cycles, configs_dir):
    """The jobs of ``workloads`` (names from perfbench) as JSON records,
    with their configs written under ``configs_dir``."""
    jobs = []
    for name in workloads:
        lists = [("warmup", wl.make_warmup(name, seed))]
        lists += [(f"c{k}", wl.make_cycle(name, seed, k)) for k in range(cycles)]
        directory = configs_dir / name
        for tag, (cycle_jobs, configs) in lists:
            wl.write_configs(configs, directory)
            for i, job in enumerate(cycle_jobs):
                job = dataclasses.replace(job, config=str(directory / job.config))
                jobs.append({"name": f"{name}/{tag}/{i:03d}",
                             **dataclasses.asdict(job)})
    return jobs


def _demo_jobs(side):
    return [{"name": f"demos/{p.name}", "kind": "demo", "script": str(p)}
            for p in sorted((Path(side) / "demos").glob("*.py"))]


# -- one side (child process) --------------------------------------------

def _run_demo(script, run_dir):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = error = None
    run_dir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            runpy.run_path(script, run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raised error is an outcome to compare
        error = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    outputs = {path.name: path.read_bytes().decode("utf-8", "replace")
               for path in sorted(run_dir.glob("demo_output/*"))}
    return {"code": code, "error": error, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "outputs": outputs}


def _run_job(runner, record):
    """Exit code, error, stdout, stderr and output of one benchmark job,
    run by the benchmark's ``Runner``."""
    fields = {k: v for k, v in record.items() if k != "name"}
    job = wl.Job(**{**fields, "argv": tuple(fields["argv"])})
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        out, _, _ = runner.run(job)
    outputs = {}
    if out.text is not None:
        outputs["out"] = out.text
    if out.value is not None:
        scan = out.value
        outputs["result"] = "lambda,increment,flagged\n" + "".join(
            f"{lam:.17g},{inc:.17g},{int(flag)}\n" for lam, inc, flag
            in zip(scan.lambdas, scan.increments, scan.flagged))
    return {"code": out.rc, "error": out.error, "stdout": stdout.getvalue(),
            "stderr": out.stderr, "outputs": outputs}


def run_side(side, jobs_path, result_path):
    """Run the jobs in ``jobs_path`` with the zrs of checkout ``side`` and
    write the BLAS thread count in effect and the jobs' outcomes to
    ``result_path`` (JSON)."""
    import zrs
    import worker

    src = (Path(side) / "src").resolve()
    if src not in Path(zrs.__file__).resolve().parents:
        raise SystemExit(f"imported zrs from {zrs.__file__}, not from {src}")
    jobs = json.loads(Path(jobs_path).read_text())
    threads = worker.blas_threads()
    results = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        runner = worker.Runner(tmpdir)
        for job in jobs:
            if job["kind"] == "demo":
                run_dir = Path(tmpdir) / job["name"].replace("/", "_")
                results[job["name"]] = _run_demo(job["script"], run_dir)
            else:
                results[job["name"]] = _run_job(runner, job)
    Path(result_path).write_text(json.dumps({"blas_threads": threads, "jobs": results}))


def _spawn(side, jobs, workdir, tag, threads=None):
    """Run ``jobs`` on checkout ``side`` in a child process, with
    ``OPENBLAS_NUM_THREADS`` set to ``threads`` unless that is None; returns
    ``{"blas_threads": count or None, "jobs": {name: outcome}}``."""
    jobs_path, result_path = workdir / f"jobs-{tag}.json", workdir / f"result-{tag}.json"
    jobs_path.write_text(json.dumps(jobs))
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import compare_outputs as c; "
            f"c.run_side({str(side)!r}, {str(jobs_path)!r}, {str(result_path)!r})")
    env = dict(os.environ, PYTHONPATH=str(Path(side) / "src"))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    subprocess.run([sys.executable, "-c", code], env=env, cwd=workdir, check=True)
    return json.loads(result_path.read_text())


# -- comparison (parent process) -----------------------------------------

def _numbers(fields):
    try:
        return [float(v) for v in fields]
    except ValueError:
        return None


def _diff(a, b):
    """Absolute and relative difference of two floats: 0 when both are
    nan or equal infinities, infinite when only one is nan."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf, math.inf
    d = abs(a - b)
    return d, d / max(abs(a), abs(b))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _tally():
    """A map ``name -> (differing values, max abs diff, max rel diff)`` and
    the function that adds one pair of values to it (a pair that is not a
    number counts as infinitely apart)."""
    cols = {}

    def add(name, x, y):
        d, r = _diff(x, y) if _is_number(x) else (math.inf, math.inf)
        if d or r:
            n, dmax, rmax = cols.get(name, (0, 0.0, 0.0))
            cols[name] = (n + 1, max(dmax, d), max(rmax, r))
    return cols, add


def _csv_diffs(a, b):
    """``[(column, differing values, max abs diff, max rel diff)]`` of two
    CSV texts, or None when they do not share one layout of numbers."""
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb) or not la:
        return None
    cols, add = _tally()
    header = None
    for ra, rb in zip(la, lb):
        if ra.startswith("#") and rb.startswith("#"):
            pa = dict(t.split("=", 1) for t in ra[1:].split() if "=" in t)
            pb = dict(t.split("=", 1) for t in rb[1:].split() if "=" in t)
            if pa.keys() != pb.keys():
                return None
            for key in pa:
                va, vb = _numbers([pa[key], pb[key]]) or (None, None)
                if va is None:
                    if pa[key] != pb[key]:
                        return None
                else:
                    add(f"#{key}", va, vb)
        elif header is None:
            if ra != rb:
                return None
            header = ra.split(",")
        else:
            va, vb = _numbers(ra.split(",")), _numbers(rb.split(","))
            if va is None or vb is None or not len(va) == len(vb) == len(header):
                return None
            for name, x, y in zip(header, va, vb):
                add(name, x, y)
    return [(name, *v) for name, v in cols.items()]


def _json_diffs(a, b):
    """``[(key path, differing values, max abs diff, max rel diff)]`` of two
    JSON texts, or None when they are not both a JSON object or list of
    one structure."""
    try:
        ja, jb = json.loads(a), json.loads(b)
    except ValueError:
        return None
    if not (isinstance(ja, (dict, list)) and isinstance(jb, (dict, list))):
        return None
    paths, add = _tally()

    def walk(path, x, y):
        """False when ``x`` and ``y`` differ in structure."""
        if isinstance(x, dict) and isinstance(y, dict):
            return x.keys() == y.keys() and all(
                walk(f"{path}.{k}" if path else k, x[k], y[k]) for k in x)
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all(walk(path, u, v) for u, v in zip(x, y))
        if isinstance(x, (dict, list)) or isinstance(y, (dict, list)):
            return False
        if _is_number(x) and _is_number(y):
            add(path, float(x), float(y))
        elif x != y or type(x) is not type(y):
            add(path, None, None)
        return True

    return [(p, *v) for p, v in paths.items()] if walk("", ja, jb) else None


def _named_diffs(a, b):
    """``[(label, differing values, max abs diff, max rel diff)]`` of two
    CSV texts (label ``column NAME``) or JSON texts (``key PATH``), or
    None when they are neither or do not differ in a named value."""
    for kind, diffs in (("column", _csv_diffs), ("key", _json_diffs)):
        found = diffs(a, b) if a and b else None
        if found:
            return [(f"{kind} {name}", *v) for name, *v in found]
    return None


def _describe(a, b):
    """Lines saying how text ``b`` differs from text ``a``."""
    named = _named_diffs(a, b)
    if named:
        return [f"{label}: {n} values differ, max abs diff {d:.3g}, "
                f"max rel diff {r:.3g}" for label, n, d, r in named]
    la, lb = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))

    def show(lines):
        return repr(lines[i][:120]) if i < len(lines) else "(end)"
    return [f"first difference at line {i + 1}: {show(la)} -> {show(lb)}"]


def _fields(a, b):
    """``{field: (parent text, change text)}`` of one job's two outcomes."""
    fields = {"code": (json.dumps(a["code"]), json.dumps(b["code"])),
              "error": (json.dumps(a["error"]), json.dumps(b["error"])),
              "stdout": (a["stdout"], b["stdout"]),
              "stderr": (a["stderr"], b["stderr"])}
    for out in sorted(a["outputs"].keys() | b["outputs"].keys()):
        fields[out] = (a["outputs"].get(out, ""), b["outputs"].get(out, ""))
    return fields


def compare(parent, change):
    """Report lines and the number of differing fields of two result maps."""
    lines, ndiff, nfields = [], 0, 0
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None:
            lines.append(f"DIFF {name}: ran on one side only")
            ndiff += 1
            continue
        for field, (x, y) in _fields(a, b).items():
            nfields += 1
            if x != y:
                ndiff += 1
                lines.append(f"DIFF {name} {field}")
                lines += ["    " + d for d in _describe(x, y)]
    return lines, ndiff, nfields


def totals(parent, change):
    """One ``TOTAL`` line per column, header key or JSON key path that
    differs in any job run on both sides: the number of such jobs and the
    largest absolute and relative difference over all of them."""
    found = {}
    for name in parent.keys() & change.keys():
        for x, y in _fields(parent[name], change[name]).values():
            if x == y:
                continue
            for label, _, d, r in _named_diffs(x, y) or ():
                jobs, dmax, rmax = found.get(label, (set(), 0.0, 0.0))
                found[label] = (jobs | {name}, max(dmax, d), max(rmax, r))
    return [f"TOTAL {label}: differs in {len(jobs)} jobs, max abs diff {d:.3g}, "
            f"max rel diff {r:.3g}" for label, (jobs, d, r) in sorted(found.items())]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--threads", nargs=2, type=int, metavar=("P", "C"),
                    default=(None, None),
                    help="OPENBLAS_NUM_THREADS of the parent's and the change's run")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = _jobs(WORKLOADS, SEED, CYCLES, workdir / "configs")
        sides = [_spawn(side.resolve(), jobs + _demo_jobs(side.resolve()), workdir,
                        tag, threads)
                 for tag, side, threads in zip(("parent", "change"),
                                               (args.parent, args.change), args.threads)]
    results = [side["jobs"] for side in sides]
    lines, ndiff, nfields = compare(*results)
    print("\n".join(lines + totals(*results) + [summary(*sides, nfields, ndiff)]))
    return 1 if ndiff else 0


def summary(parent, change, nfields, ndiff):
    """The last report line: job, field and difference counts, and the
    BLAS thread count each side ran with."""
    p, c = parent["blas_threads"], change["blas_threads"]
    counts = f"{p}" if p == c else f"parent {p}, change {c}"
    return (f"{len(parent['jobs'])} jobs, {nfields} fields compared, {ndiff} differ "
            f"(BLAS threads in effect: {counts})")


if __name__ == "__main__":
    sys.exit(main())
