"""Seeded job lists for the four benchmark workloads.

A workload is a closed loop over cycles.  Every cycle holds the same mix
of job kinds and problem sizes, so every run does the same amount of work
per cycle.  The seed and the cycle index draw the continuous inputs
(spectral points, lattice spacings, weights, random geometry) from fixed
ranges, stratified where the cost depends on them, so runs with different
seeds measure the same mix on different inputs.

The program sees only the config JSON files written here and argv.
Random draws use ``random.Random`` so the inputs do not depend on the
numpy version under test.
"""

import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Battery-shaped random configurations (mixed-sign weights in a box),
# the regime the acceptance battery pins its tolerances on.
BOX_HALF = 0.55
MIN_SEP = 0.18
W_LO, W_HI = 0.3, 1.2

LAMBDA_LO, LAMBDA_HI = 0.5, 50.0


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``kind`` selects the entry point and the correctness gate; ``argv``
    is the CLI argument list without ``--config``/``--out`` (empty for
    library jobs); ``points`` is the number of work units the job
    completes; ``expect`` the documented exit code.
    """

    kind: str
    config: str
    argv: tuple
    points: int
    expect: int = 0
    oracle: bool = False
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    # fixed tail percentile, so runs that complete different job counts
    # report the same statistic; it steps down only when fewer than ten
    # jobs lie beyond it
    tail_pct: float
    min_cycles: int
    # layers that must record calls in a traced run of this workload
    stresses: tuple
    make_cycle: object
    make_warmup: object


def _rng(workload, seed, cycle):
    return random.Random(f"{workload}/{seed}/{cycle}")


def _fmt(x):
    return repr(float(x))


def lattice(n, rng):
    return {"family": {"kind": "cubic-lattice-ball", "N": n,
                       "params": {"spacing": rng.uniform(0.9, 1.1),
                                  "weight": rng.uniform(0.8, 1.25)}}}


def clustering(n, rng):
    p = rng.uniform(1.8, 2.2)
    # q > 2p + 1: the summability conditions hold
    q = 2.0 * p + 1.0 + rng.uniform(1.5, 2.5)
    return {"family": {"kind": "clustering", "N": n,
                       "params": {"p": p, "q": q, "w0": rng.uniform(0.8, 1.25)}}}


def mixed(n, rng, tail_from=None):
    """Random points in a box with mixed-sign weights.

    With ``tail_from`` the weights of sites from that index on are
    scaled by 1e4..1e5, which makes the Schur tail contractive.
    """
    pts = []
    while len(pts) < n:
        c = [rng.uniform(-BOX_HALF, BOX_HALF) for _ in range(3)]
        if all(math.dist(c, p) >= MIN_SEP for p in pts):
            pts.append(c)
    w = [rng.uniform(W_LO, W_HI) * rng.choice((-1.0, 1.0)) for _ in range(n)]
    if n >= 2:
        w[0], w[1] = abs(w[0]), -abs(w[1])
    if tail_from is not None:
        w = [x * rng.uniform(1e4, 1e5) if i >= tail_from else x
             for i, x in enumerate(w)]
    return {"points": pts, "weights": w}


def _strata(rng, k, lo=LAMBDA_LO, hi=LAMBDA_HI):
    """``k`` log-uniform draws from [lo, hi], one per equal-ratio stratum."""
    r = math.log(hi / lo)
    return [lo * math.exp(r * (i + rng.random()) / k) for i in range(k)]


def _z(rng):
    im = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
    return [rng.uniform(-3.0, 3.0), im]


class _Cycle:
    """Accumulates the configs and jobs of one cycle."""

    def __init__(self, prefix, rng, oracle_share):
        self.prefix = prefix
        self.rng = rng
        self.oracle_share = oracle_share
        self.configs = {}
        self.jobs = []

    def config(self, data):
        name = f"{self.prefix}{len(self.configs):02d}.json"
        self.configs[name] = data
        return name

    def job(self, kind, config, argv, points, expect=0, **params):
        oracle = self.rng.random() < self.oracle_share
        self.jobs.append(Job(kind, config, tuple(argv), points, expect,
                             oracle, params))


def _sweep_jobs(c, cfg, n, counts):
    for pts in counts:
        a, b = c.rng.uniform(0.5, 1.0), c.rng.uniform(40.0, 50.0)
        c.job("sweep", cfg, ["sweep", "--interval", _fmt(a), _fmt(b),
                             "--grid-points", str(pts)],
              pts, interval=[a, b], grid_points=pts, n=n)


def _scan_jobs(c, cfg, n, counts):
    for pts in counts:
        a, b = c.rng.uniform(0.5, 1.0), c.rng.uniform(40.0, 50.0)
        c.job("scan", cfg, [], pts, interval=[a, b], grid_points=pts, n=n)


def lambda_sweep_cycle(c):
    # three rounds of the small configs, then one N = 100 sweep: the large
    # lattice is a small share of the jobs (1 in 52) and about a quarter
    # of the time, so its run-to-run spread does not dominate the run's
    for _ in range(3):
        small = [(lattice(5, c.rng), 5), (lattice(20, c.rng), 20),
                 (clustering(16, c.rng), 16), (mixed(10, c.rng), 10)]
        for data, n in small:
            cfg = c.config(data)
            _sweep_jobs(c, cfg, n, (64, 256))
            _scan_jobs(c, cfg, n, (193, 385))
        # one resolvent check per round keeps the resolvent layer measured
        # on a gated workload; it is under 0.1% of the time and adds no
        # lambda-points
        _resolvent(c, small[3][0], 10, points=0)
    _sweep_jobs(c, c.config(lattice(100, c.rng)), 100, (64,))


# Warm-up jobs touch the largest matrices of each job kind, so lazy
# first-call costs (LAPACK work buffers, BLAS threads) fall in set-up and
# not in the first timed cycle.

def lambda_sweep_warmup(c):
    _sweep_jobs(c, c.config(lattice(100, c.rng)), 100, (4,))
    _scan_jobs(c, c.config(lattice(20, c.rng)), 20, (17,))


def _smatrix(c, cfg, n, lam, n0=None, expect=0):
    argv = ["smatrix", "--lambda", _fmt(lam)]
    if n0 is not None:
        argv += ["--n0", str(n0)]
    c.job("smatrix", cfg, argv, 1, expect, lam=lam, n=n, n0=n0)


def smatrix_cycle(c):
    for data, n in ((lattice(5, c.rng), 5), (lattice(20, c.rng), 20),
                    (clustering(16, c.rng), 16), (mixed(10, c.rng), 10)):
        cfg = c.config(data)
        for lam in _strata(c.rng, 8):
            _smatrix(c, cfg, n, lam)
    # Schur route: heavy tails are contractive (exit 0), plain weights
    # are not (exit 3)
    heavy = [(c.config(clustering(16, c.rng)), 16, 8),
             (c.config(mixed(10, c.rng, tail_from=5)), 10, 5)]
    for cfg, n, n0 in heavy:
        for lam in _strata(c.rng, 2):
            _smatrix(c, cfg, n, lam, n0=n0)
    for data, n, n0 in ((lattice(20, c.rng), 20, 10), (mixed(10, c.rng), 10, 5)):
        _smatrix(c, c.config(data), n, _strata(c.rng, 1)[0], n0=n0, expect=3)


def smatrix_warmup(c):
    _smatrix(c, c.config(lattice(20, c.rng)), 20, LAMBDA_HI)
    _smatrix(c, c.config(clustering(16, c.rng)), 16, 1.0, n0=8)
    _smatrix(c, c.config(lattice(20, c.rng)), 20, 1.0, n0=10, expect=3)


def _resolvent(c, data, n, points=3):
    zs = {"z": _z(c.rng), "z1": _z(c.rng), "z2": _z(c.rng)}
    c.job("resolvent", c.config(dict(data, **zs)), ["resolvent"], points, n=n, **zs)


def resolvent_cycle(c):
    for n in (1, 2, 3, 5, 10):
        for _ in range(2):
            _resolvent(c, mixed(n, c.rng), n)
    for _ in range(2):
        _resolvent(c, lattice(20, c.rng), 20)


def resolvent_warmup(c):
    _resolvent(c, lattice(20, c.rng), 20)


NSWEEP_LEVELS = (25, 50, 100, 200, 400)


def _validate(c, data, n, expect):
    c.job("validate", c.config(data), ["validate"], 1, expect, n=n)


def _nsweep(c, data, lam, levels):
    c.job("nsweep", c.config(data),
          ["sweep", "--lambda", _fmt(lam), "--n-sweep", ",".join(map(str, levels))],
          len(levels), lam=lam, levels=list(levels), n=levels[-1])


def truncation_cycle(c):
    lam = c.rng.uniform(1.0, 10.0)
    for n in (50, 100, 200, 400):
        # clustering families are admissible; lattices have K0 = sum 1/|w|
        # diverging, so validate reports the documented exit code 2
        _validate(c, clustering(n, c.rng), n, 0)
        _validate(c, lattice(n, c.rng), n, 2)
    _nsweep(c, clustering(400, c.rng), lam, NSWEEP_LEVELS)
    _nsweep(c, lattice(400, c.rng), lam, NSWEEP_LEVELS)


def truncation_warmup(c):
    _validate(c, clustering(400, c.rng), 400, 0)
    _validate(c, lattice(400, c.rng), 400, 2)
    _nsweep(c, lattice(400, c.rng), 4.0, (200, 400))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lambda-sweep", "lambda-point",
            "spectral sweeps and continuity scans: factorization, distance "
            "builds and the sweep thread pool dominate",
            80.0, 2,
            ("cli", "scatterers", "krein.assemble", "krein.factorize",
             "scattering", "resolvent", "linalg"),
            lambda_sweep_cycle, lambda_sweep_warmup),
        Workload(
            "smatrix-quadrature", "lambda-point",
            "S-matrix checks: plane-wave blocks and S application dominate, "
            "factorization is under 1% of the work",
            98.0, 3,
            ("cli", "scatterers", "krein.assemble", "krein.factorize",
             "spherical", "scattering", "linalg"),
            smatrix_cycle, smatrix_warmup),
        Workload(
            "resolvent-identities", "spectral-point",
            "resolvent identities at complex z: the C route, kernel "
            "evaluation and boundary fits, no Gamma and no sphere grids",
            99.0, 3,
            ("cli", "scatterers", "krein.assemble", "krein.factorize",
             "resolvent", "linalg"),
            resolvent_cycle, resolvent_warmup),
        Workload(
            "truncation", "truncation-level",
            "admissibility reports and N-sweeps up to N = 400: the same "
            "factorization used along N instead of lambda",
            95.0, 3,
            ("cli", "scatterers", "krein.assemble", "krein.factorize", "linalg"),
            truncation_cycle, truncation_warmup),
    )
}

ORACLE_SHARE = 0.125


def make_cycle(workload, seed, index):
    """Jobs and configs of cycle ``index``; pure, no I/O.

    Returns ``(jobs, configs)`` with ``configs`` mapping file name to
    JSON data.
    """
    w = WORKLOADS[workload]
    c = _Cycle(f"c{index}-", _rng(workload, seed, index), ORACLE_SHARE)
    w.make_cycle(c)
    c.rng.shuffle(c.jobs)
    return c.jobs, c.configs


def make_warmup(workload, seed):
    """One job per job kind, sized to its largest matrices; every one is
    oracle-checked."""
    w = WORKLOADS[workload]
    c = _Cycle("w-", _rng(workload, seed, "warmup"), 1.0)
    w.make_warmup(c)
    return c.jobs, c.configs


def config_bytes(data):
    return (json.dumps(data, sort_keys=True) + "\n").encode()


def write_configs(configs, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in configs.items():
        (directory / name).write_bytes(config_bytes(data))


def job_list_bytes(jobs):
    return json.dumps([asdict(j) for j in jobs], sort_keys=True).encode()
