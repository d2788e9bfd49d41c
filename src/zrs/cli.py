"""Command-line front end: load configurations, run checks, emit CSV/JSON.

Exit codes: 0 ok, 1 usage error, 2 admissibility failure, 3 numerical
failure.  Outputs are deterministic for a fixed config.
"""

import argparse
import functools
import io
import json
import sys

import numpy as np

from . import resolvent as rsv
from . import scattering as sc
from ._blas import serial_blas
from .errors import (
    FitUnstable,
    NonPositiveGram,
    SingularMatrix,
    TailNotContractive,
    ZrsError,
)
# unused here; perfbench's tracer test reads it as zrs.cli.build_q
from .krein import build_q  # noqa: F401
from .scatterers import (check_admissibility, from_config, integer, number,
                         window, write_text)
from .spherical import default_grid, make_grid


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by every
    later :func:`main` call: parsing leaves it unchanged, and no default
    depends on the process state (``--out`` falls back to the stdout in
    effect when the output is written)."""
    p = _Parser(prog="zrs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="scatterer JSON file")
        for flag in flags:
            q.add_argument(flag, **_FLAG_SPECS[flag])
        q.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _complex(val):
    """A ``[re, im]`` pair as a complex number."""
    re, im = val
    return complex(number(re), number(im))


def _config(cfg, key, convert, default=None):
    """``convert(cfg[key])``, or ``default`` for a missing or null key."""
    val = cfg.get(key)
    if val is None:
        return default
    try:
        return convert(val)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"bad value {val!r} for config key {key!r}") from None


def _cmd_validate(args, cfg, s):
    b = 25.0 if args.lam is None else args.lam
    report = check_admissibility(s.prefix(args.n), b, n0=args.n0,
                                 family=cfg.get("family"))
    fields = report.to_dict()
    # json.dumps(fields, indent=2), but the tail's N >= 1 lines are written
    # here: json prints a finite float (the report holds no other) as
    # float.__repr__, and its indented encoder is pure Python
    tail, fields["tail"] = fields["tail"], []
    text = json.dumps(fields, indent=2).replace(
        '"tail": []',
        '"tail": [\n    ' + ",\n    ".join(map(float.__repr__, tail)) + "\n  ]", 1)
    return (0 if report.passed else 2), text + "\n"


def _cmd_smatrix(args, cfg, s):
    lam = args.lam
    if lam is None:
        raise UsageError("smatrix needs --lambda")
    sub = s.prefix(args.n)
    # settings are checked before Gamma is built, so a bad one is a usage
    # error whatever the numerics would do; the default grid needs a lambda
    # that smatrix has accepted
    grid = None if args.grid_order is None else make_grid(args.grid_order)
    try:
        rep = sc.smatrix(lam, sub, split=args.n0)
    except (SingularMatrix, TailNotContractive) as exc:
        exc.args = (f"lambda={lam:g}: {exc}",)
        raise
    if grid is None:
        grid = default_grid(lam, sub)
    d_red = sc.unitarity_defect_reduced(rep)
    d_quad = sc.unitarity_defect_quadrature(rep, grid)
    idx = np.linspace(0, grid.size - 1, 8).astype(int)
    dirs = grid.nodes[idx]
    buf = io.StringIO()
    buf.write(f"# lambda={lam:.17g} defect_reduced={d_red:.17g} "
              f"defect_quadrature={d_quad:.17g} gamma_cond={rep.gamma_cond:.17g}\n")
    sc.write_kernel_csv(rep, dirs, dirs, buf)
    return 0, buf.getvalue()


def _truncations(val):
    """Truncations from the comma string of --n-sweep."""
    ns = []
    for entry in val.split(","):
        if not entry.strip():
            continue
        try:
            ns.append(integer(entry))
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"bad --n-sweep entry {entry.strip()!r}") from None
    return ns


def _cmd_sweep(args, cfg, s):
    sub = s.prefix(args.n)
    if args.n_sweep is not None:
        if args.lam is None:
            raise UsageError("N-sweep mode needs --lambda")
        buf = io.StringIO()
        sc.write_truncation_csv(sub, args.lam, args.n_sweep, buf)
        return 0, buf.getvalue()

    if args.interval is None:
        raise UsageError("sweep needs --interval A B")
    a, b = window(args.interval)
    points = args.grid_points
    if points < 0:
        raise UsageError(f"grid points must be non-negative, got {points}")
    buf = io.StringIO()
    sc.write_defect_csv(sub, np.linspace(a, b, points), buf)
    return 0, buf.getvalue()


# resolvent's pass thresholds; the payload prints every residual, so a
# caller can judge them against another threshold
TOLERANCES = {"hilbert": 1e-10, "symmetry": 1e-12, "boundary": 1e-5}


def _cmd_resolvent(args, cfg, s):
    sub = s.prefix(args.n)
    z = _config(cfg, "z", _complex, 1j)
    z1 = _config(cfg, "z1", _complex, 1 + 1j)
    z2 = _config(cfg, "z2", _complex, -2 + 0.5j)
    hil = rsv.hilbert_identity_residual(z1, z2, sub)
    sym = rsv.symmetry_residual(z, sub)
    bnd = rsv.boundary_condition_residual(z, sub)
    ok = (hil < TOLERANCES["hilbert"] and sym < TOLERANCES["symmetry"]
          and bool(np.all(bnd < TOLERANCES["boundary"])))
    payload = {
        "z": [z.real, z.imag],
        "z1": [z1.real, z1.imag],
        "z2": [z2.real, z2.imag],
        "hilbert_residual": hil,
        "symmetry_residual": sym,
        "boundary_residuals": bnd.tolist(),
        "tolerances": TOLERANCES,
        "pass": ok,
    }
    return (0 if ok else 3), json.dumps(payload, indent=2) + "\n"


_FLAG_SPECS = {
    "--lambda": dict(dest="lam", type=float,
                     help="spectral parameter (for validate: window top b)"),
    "--interval": dict(nargs=2, type=float, metavar=("A", "B")),
    "--n": dict(type=int, help="truncation"),
    "--n0": dict(type=int, help="Schur split"),
    "--grid-order": dict(type=int),
    "--grid-points": dict(type=int, default=32,
                          help="lambda samples for sweeps"),
    "--n-sweep": dict(type=_truncations,
                      help="comma list of truncations for convergence mode"),
}

# the flags each command reads besides --config and --out; any other flag
# is a usage error
_FLAGS = {
    "validate": ("--lambda", "--n", "--n0"),
    "smatrix": ("--lambda", "--n", "--n0", "--grid-order"),
    "sweep": ("--lambda", "--interval", "--n", "--grid-points", "--n-sweep"),
    "resolvent": ("--n",),
}

# the top-level config keys: the scatterer section (read by from_config)
# and resolvent's spectral points; any other key is a usage error
_CONFIG_KEYS = ("points", "weights", "family", "z", "z1", "z2")

# each command returns (exit code, output text); main writes the text
_COMMANDS = {
    "validate": _cmd_validate,
    "smatrix": _cmd_smatrix,
    "sweep": _cmd_sweep,
    "resolvent": _cmd_resolvent,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        s = from_config(cfg)
        for key in cfg:
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}; expected "
                                 f"{', '.join(_CONFIG_KEYS)}")
        # one BLAS thread: at these orders more do not pay, and the output
        # does not depend on the thread count
        with serial_blas():
            code, text = _COMMANDS[args.command](args, cfg, s)
    except UsageError as exc:
        print(f"zrs: usage error: {exc}", file=sys.stderr)
        return 1
    except (SingularMatrix, TailNotContractive, NonPositiveGram,
            FitUnstable) as exc:
        print(f"zrs: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ZrsError as exc:
        # remaining domain errors are configuration problems
        print(f"zrs: {exc}", file=sys.stderr)
        return 1
    try:
        write_text(sys.stdout if args.out is None else args.out, text)
    except OSError as exc:
        print(f"zrs: cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


def run():
    raise SystemExit(main())
