"""Outside-in tracer: wraps the public functions of each zrs module.

No file of the program changes.  ``install`` replaces every wrapped
function in every ``zrs`` module namespace that bound it (``cli`` and
``scattering`` import ``build_q``, ``gamma_direct`` and others by name)
and the ``numpy.linalg`` functions the package calls through ``np.linalg``;
``uninstall`` puts the originals back.

A span is recorded at each call while a job is in flight: its layer,
function, thread, start and end, and its self wall and self thread-CPU
time (its own minus that of the child spans on the same thread).  The
benchmark runs one job at a time, so spans from the sweep's pool threads
are attributed to the job in flight; their parent is the job span.
Spans stay in memory and are written out when the run ends.
"""

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter, thread_time

import numpy as np

LAYERS = {
    "cli": ("zrs.cli", ("main",)),
    "scatterers": ("zrs.scatterers", (
        "from_config", "check_admissibility", "separation_profile",
        "tail_bound", "pairwise_distances")),
    "krein.assemble": ("zrs.krein", (
        "build_q", "build_weighted", "gram_matrix", "green_at_distance")),
    "krein.factorize": ("zrs.krein", (
        "gamma_direct", "gamma_schur", "c_matrix", "krein_matrices")),
    "spherical": ("zrs.spherical", (
        "make_grid", "plane_wave_block", "weighted_gram_target")),
    "scattering": ("zrs.scattering", (
        "smatrix", "apply_smatrix", "apply_smatrix_adjoint",
        "unitarity_defect_reduced", "unitarity_defect_quadrature",
        "kernel_correction", "gamma_continuity_scan", "write_kernel_csv",
        "write_defect_csv", "write_cross_section_csv")),
    "resolvent": ("zrs.resolvent", (
        "resolvent_kernel", "ResolventKernel.evaluate",
        "hilbert_identity_residual", "symmetry_residual",
        "boundary_condition_residual")),
    "linalg": ("numpy.linalg", (
        "svd", "inv", "cond", "eig", "eigh", "eigvals", "eigvalsh",
        "solve", "lstsq", "norm")),
}

# dense LAPACK-backed calls; norm counts only as the matrix 2-norm
DENSE = {"svd", "inv", "cond", "eig", "eigh", "eigvals", "eigvalsh",
         "solve", "lstsq"}

JOB_LAYER = "job"


def _is_dense(name, args, kwargs):
    if name in DENSE:
        return True
    if name != "norm":
        return False
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2 and np.ndim(x) == 2 and kwargs.get("axis") is None


def _plane_wave_info(a):
    s, grid = a["s"], a["grid"]
    key = (float(a["lam"]), s.points.tobytes(), s.weights.tobytes(),
           grid.kind, grid.order)
    return key, s.n * grid.size * 16


def _kernel_points(a):
    shape = np.broadcast_shapes(np.shape(a["x"])[:-1], np.shape(a["xp"])[:-1])
    return int(np.prod(shape, dtype=np.int64))


# functions whose arguments feed a counter: name -> extractor of the
# bound arguments
_COUNTED = {
    "plane_wave_block": _plane_wave_info,
    "ResolventKernel.evaluate": _kernel_points,
}


class Tracer:
    """Span recorder; one instance per run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span(self, layer, name, fn, sig, args, kwargs):
        job = self.job
        if job is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1][0] if stack else job
        frame = [next(self._ids), 0.0, 0.0]
        if layer == "linalg":
            extra = _is_dense(name, args, kwargs)
        elif sig is not None:
            extra = _COUNTED[name](sig.bind(*args, **kwargs).arguments)
        else:
            extra = None
        stack.append(frame)
        t0, c0 = perf_counter(), thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            c1, t1 = thread_time(), perf_counter()
            stack.pop()
            wall, cpu = t1 - t0, c1 - c0
            if stack:
                stack[-1][1] += wall
                stack[-1][2] += cpu
            self.spans.append((frame[0], parent, job, layer, name,
                               threading.get_ident(), t0, t1,
                               wall - frame[1], cpu - frame[2], extra))

    def begin_job(self):
        """Open the root span of a job; spans until ``end_job`` share its id."""
        self.job = next(self._ids)
        self._job_t0 = perf_counter()
        self._job_c0 = thread_time()
        self._stack().clear()

    def end_job(self):
        t1, c1 = perf_counter(), thread_time()
        self.spans.append((self.job, None, self.job, JOB_LAYER, JOB_LAYER,
                           threading.get_ident(), self._job_t0, t1,
                           t1 - self._job_t0, c1 - self._job_c0, None))
        self.job = None

    # -- patching --------------------------------------------------------

    def _wrapper(self, layer, name, fn):
        sig = inspect.signature(fn) if name in _COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(layer, name, fn, sig, args, kwargs)
        return traced

    def install(self):
        """Patch every wrapped name wherever a ``zrs`` module bound it."""
        if self._patches:
            return
        zrs_mods = [m for k, m in sorted(sys.modules.items())
                    if m is not None and (k == "zrs" or k.startswith("zrs."))]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrapper(layer, name, orig))
                    continue
                orig = getattr(home, name)
                wrapped = self._wrapper(layer, name, orig)
                targets = [home] if modname == "numpy.linalg" else zrs_mods
                for mod in targets:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ---------------------------------------------------------

    def summary(self, cycles, jobs, points):
        """Per-layer metrics over all recorded spans.

        ``cycles``, ``jobs`` and ``points`` are the cycles, jobs and work
        units the traced passes completed; ``calls`` is per cycle, so it
        does not depend on how many cycles fit in the run.
        """
        calls = dict.fromkeys(LAYERS, 0)
        self_ms = dict.fromkeys(LAYERS, 0.0)
        busy_ms = dict.fromkeys(LAYERS, 0.0)
        by_name = {}
        dense = 0
        pw_bytes = 0
        pw_distinct = set()
        kernel_points = 0
        for (_, _, job, layer, name, _, _, _, swall, scpu, extra) in self.spans:
            if layer == JOB_LAYER:
                continue
            calls[layer] += 1
            self_ms[layer] += 1e3 * swall
            busy_ms[layer] += 1e3 * scpu
            by_name[name] = by_name.get(name, 0) + 1
            if layer == "linalg":
                dense += bool(extra)
            elif name == "plane_wave_block":
                pw_distinct.add((job, extra[0]))
                pw_bytes += extra[1]
            elif name == "ResolventKernel.evaluate":
                kernel_points += extra
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / cycles
            out[f"{layer}.self_ms_per_point"] = self_ms[layer] / points
            out[f"{layer}.busy_ms_per_point"] = busy_ms[layer] / points
            out[f"{layer}.wait_ms_per_point"] = (self_ms[layer] - busy_ms[layer]) / points
        pw_blocks = by_name.get("plane_wave_block", 0)
        out["scatterers.distance_builds_per_point"] = by_name.get("pairwise_distances", 0) / points
        out["krein.gamma_builds_per_point"] = (
            by_name.get("gamma_direct", 0) + by_name.get("gamma_schur", 0)) / points
        out["linalg.dense_calls_per_point"] = dense / points
        out["spherical.pw_blocks_per_job"] = pw_blocks / jobs
        out["spherical.pw_mbytes_computed_per_job"] = pw_bytes / 1e6 / jobs
        out["spherical.pw_reuse_ratio"] = len(pw_distinct) / pw_blocks if pw_blocks else 0.0
        out["resolvent.kernel_points_per_job"] = kernel_points / jobs
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "job", "layer", "name", "thread",
                                 "start", "end", "self_wall", "self_cpu"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:10]) + "\n")
