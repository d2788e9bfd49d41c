"""Per-job correctness gate and the independent reference oracle.

``check`` inspects one job's exit code and output and returns a list of
problems; an empty list means the job passed.  ``oracle`` recomputes
Gamma = (J + D^-1/2 Q D^-1/2)^-1 or C = (Q + 4 pi L)^-1 with plain numpy
(its own Q assembly, then ``np.linalg.solve``) and compares them, and the
job outputs derived from them, with the program at 1e-8 relative.
Both run outside the timed region.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

SWEEP_HEADER = "lambda,defect_reduced,gamma_norm,gamma_cond,mu,increment"
NSWEEP_HEADER = "n_low,n_high,gamma_diff"
KERNEL_HEADER = "theta,phi,theta_p,phi_p,re_s,im_s"
KERNEL_SAMPLES = 8 * 8

DEFECT_PER_COND = 1e-9
ORACLE_RTOL = 1e-8
# A Gram eigenvalue is resolved only above the round-off floor of
# eigvalsh, ~1e-12 ||G||_2 (the floor the program itself applies).
# Below it the sign carries no information: such rows are counted, not
# failed; a value under minus the floor fails.
GRAM_FLOOR = 1e-12
FOUR_PI = 4.0 * math.pi


@dataclass
class Outcome:
    """What a job returned: exit code, output text, stderr, library value,
    and the exception it raised, if any."""

    rc: object
    text: object = None
    stderr: str = ""
    value: object = None
    error: object = None


def _floats(row, width):
    vals = [float(v) for v in row.split(",")]
    if len(vals) != width:
        raise ValueError(f"row has {len(vals)} fields, expected {width}")
    return vals


def _table(text, header, rows, width):
    """Parse a CSV body; returns (array, problems)."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None, [f"header {lines[0] if lines else ''!r} != {header!r}"]
    if len(lines) - 1 != rows:
        return None, [f"{len(lines) - 1} rows, expected {rows}"]
    try:
        return np.array([_floats(r, width) for r in lines[1:]]).reshape(rows, width), []
    except ValueError as exc:
        return None, [f"unparsable row: {exc}"]


def _gram_floor(n, lam):
    # Gershgorin: ||G_N||_2 <= N sqrt(lam) / (4 pi)
    return GRAM_FLOOR * max(1.0, n * math.sqrt(lam) / FOUR_PI)


def _check_sweep(job, out, notes):
    p = job.params
    tab, probs = _table(out.text or "", SWEEP_HEADER, p["grid_points"], 6)
    if probs:
        return probs
    lam, defect, gnorm, gcond, mu, inc = tab.T
    expect = np.linspace(p["interval"][0], p["interval"][1], p["grid_points"])
    if not np.allclose(lam, expect, rtol=1e-12, atol=0.0):
        probs.append("lambda column differs from the requested grid")
    if not np.all(np.isfinite(tab[:, :5])):
        probs.append("non-finite value in lambda..mu columns")
    if not math.isnan(inc[0]):
        probs.append("first increment is not nan")
    if not np.all(np.isfinite(inc[1:])) or np.any(inc[1:] < 0):
        probs.append("increment non-finite or negative")
    if np.any(defect > DEFECT_PER_COND * gcond):
        probs.append(f"defect_reduced exceeds 1e-9 gamma_cond (max ratio "
                     f"{np.max(defect / gcond):.3g})")
    if np.any(gnorm <= 0) or np.any(gcond < 1.0 - 1e-12):
        probs.append("gamma_norm <= 0 or gamma_cond < 1")
    floors = np.array([_gram_floor(p["n"], x) for x in lam])
    if np.any(mu < -floors):
        probs.append(f"Gram eigenvalue mu below -{GRAM_FLOOR:g} ||G|| (min {np.min(mu):.3g})")
    notes["mu_unresolved_rows"] = notes.get("mu_unresolved_rows", 0) + int(np.sum(mu <= 0))
    return probs


def _check_scan(job, out, notes):
    p = job.params
    scan = out.value
    k = p["grid_points"] - 1
    expect = np.linspace(p["interval"][0], p["interval"][1], p["grid_points"])[1:]
    lams = np.asarray(scan.lambdas)
    inc = np.asarray(scan.increments)
    probs = []
    if lams.shape != (k,) or inc.shape != (k,) or np.shape(scan.flagged) != (k,):
        return [f"scan arrays do not have length {k}"]
    if not np.allclose(lams, expect, rtol=1e-12, atol=0.0):
        probs.append("scan lambdas differ from the requested grid")
    if not np.all(np.isfinite(inc)) or np.any(inc < 0):
        probs.append("increment non-finite or negative")
    return probs


def _header_fields(line):
    fields = dict(kv.split("=", 1) for kv in line[2:].split())
    return {k: float(v) for k, v in fields.items()}


def _check_smatrix(job, out, notes):
    if job.expect != 0:
        if "numerical failure" not in out.stderr or out.text is not None:
            return ["expected a numerical failure message and no output"]
        return []
    lines = (out.text or "").splitlines()
    if not lines or not lines[0].startswith("# lambda="):
        return ["missing '# lambda=' summary line"]
    try:
        head = _header_fields(lines[0])
        keys = ("lambda", "defect_reduced", "defect_quadrature", "gamma_cond")
        vals = [head[k] for k in keys]
    except (KeyError, ValueError) as exc:
        return [f"bad summary line: {exc}"]
    probs = []
    if not all(math.isfinite(v) for v in vals):
        probs.append("non-finite value in the summary line")
    if head["lambda"] != job.params["lam"]:
        probs.append(f"lambda {head['lambda']!r} != requested {job.params['lam']!r}")
    if head["defect_reduced"] > DEFECT_PER_COND * head["gamma_cond"]:
        probs.append(f"defect_reduced {head['defect_reduced']:.3g} exceeds 1e-9 "
                     f"gamma_cond ({head['gamma_cond']:.3g})")
    tab, tprobs = _table("\n".join(lines[1:]), KERNEL_HEADER, KERNEL_SAMPLES, 6)
    probs += tprobs
    if tab is not None and not np.all(np.isfinite(tab)):
        probs.append("non-finite kernel sample")
    return probs


def _check_resolvent(job, out, notes):
    try:
        doc = json.loads(out.text or "")
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    keys = ("z", "z1", "z2", "hilbert_residual", "symmetry_residual",
            "boundary_residuals", "pass")
    missing = [k for k in keys if k not in doc]
    if missing:
        return [f"missing keys {missing}"]
    probs = []
    if doc["pass"] is not True:
        probs.append('resolvent reports "pass": false')
    for k in ("z", "z1", "z2"):
        if doc[k] != job.params[k]:
            probs.append(f"{k} echoed as {doc[k]}, requested {job.params[k]}")
    res = [doc["hilbert_residual"], doc["symmetry_residual"], *doc["boundary_residuals"]]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in res):
        probs.append("non-finite residual")
    if len(doc["boundary_residuals"]) != job.params["n"]:
        probs.append(f"{len(doc['boundary_residuals'])} boundary residuals, "
                     f"expected {job.params['n']}")
    return probs


def _check_validate(job, out, notes):
    try:
        doc = json.loads(out.text or "")
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    keys = ("K0", "K1", "tail", "p_tail", "n0", "b", "verdict")
    missing = [k for k in keys if k not in doc]
    if missing:
        return [f"missing keys {missing}"]
    probs = []
    if len(doc["tail"]) != job.params["n"]:
        probs.append(f"tail has {len(doc['tail'])} entries, expected {job.params['n']}")
    for k in ("K0", "K1", "p_tail"):
        if not (isinstance(doc[k], (int, float)) and math.isfinite(doc[k]) and doc[k] > 0):
            probs.append(f"{k} = {doc[k]!r} is not finite and positive")
    if doc["verdict"] != ("pass" if job.expect == 0 else "fail"):
        probs.append(f"verdict {doc['verdict']!r} contradicts exit code {out.rc}")
    return probs


def _check_nsweep(job, out, notes):
    levels = job.params["levels"]
    tab, probs = _table(out.text or "", NSWEEP_HEADER, len(levels) - 1, 3)
    if probs:
        return probs
    if not (np.array_equal(tab[:, 0], levels[:-1]) and np.array_equal(tab[:, 1], levels[1:])):
        probs.append("n_low/n_high do not match the requested levels")
    diff = tab[:, 2]
    if not np.all(np.isfinite(diff)):
        probs.append("non-finite gamma_diff")
    if np.any(diff < 0):
        probs.append("negative gamma_diff")
    return probs


_CHECKS = {
    "sweep": _check_sweep,
    "scan": _check_scan,
    "smatrix": _check_smatrix,
    "resolvent": _check_resolvent,
    "validate": _check_validate,
    "nsweep": _check_nsweep,
}


def check(job, out, notes):
    """Problems with one job's result; ``notes`` collects diagnostic counts."""
    if out.error is not None:
        return [f"raised {out.error}"]
    if out.rc != job.expect:
        return [f"exit code {out.rc}, expected {job.expect}: {out.stderr.strip()[:200]}"]
    return _CHECKS[job.kind](job, out, notes)


# -- reference oracle ------------------------------------------------------


def oracle_q(points, z):
    """Q(z) assembled from scratch: i k/(4 pi) on the diagonal,
    e^{i k r}/(4 pi r) off it, k = sqrt(z) with Im k >= 0."""
    k = np.sqrt(complex(z))
    if k.imag < 0:
        k = -k
    diff = points[:, None, :] - points[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(r, 1.0)
    q = np.exp(1j * k * r) / (FOUR_PI * r)
    np.fill_diagonal(q, 1j * k / FOUR_PI)
    return q


def oracle_gamma(points, weights, z):
    rw = np.sqrt(np.abs(weights))
    a = oracle_q(points, z) / np.outer(rw, rw) + np.diag(np.sign(weights))
    return np.linalg.solve(a, np.eye(len(weights)))


def oracle_c(points, weights, z):
    a = oracle_q(points, z) + FOUR_PI * np.diag(weights)
    return np.linalg.solve(a, np.eye(len(weights)))


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _close(label, got, want, scale, probs):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= ORACLE_RTOL * scale:
        probs.append(f"oracle: {label} off by {err:.3g} (scale {scale:.3g})")


class Oracle:
    """Reference recomputation against the program's own matrices.

    ``zrs`` is the program's package; the oracle takes from it only the
    expanded scatterer set and the matrix under test.
    """

    def __init__(self, zrs):
        self.zrs = zrs

    def _gamma_pair(self, s, lam, probs):
        """(oracle Gamma, program Gamma) at lam; records a mismatch."""
        z = self.zrs
        mine = oracle_gamma(s.points, s.weights, lam)
        prog = z.gamma_direct(*z.build_weighted(s, z.build_q(lam, s)))
        rel = _rel(prog, mine)
        if not rel <= ORACLE_RTOL:
            probs.append(f"oracle: Gamma(lambda={lam:g}, N={s.n}) off by {rel:.3g} relative")
        return mine

    def _lambda_rows(self, s, lams, gnorm, inc, probs):
        idx = sorted(set(np.linspace(1, len(lams) - 1, 4).astype(int).tolist()))
        for i in idx:
            g1 = self._gamma_pair(s, lams[i], probs)
            g0 = oracle_gamma(s.points, s.weights, lams[i - 1])
            n1 = np.linalg.norm(g1, 2)
            if gnorm is not None:
                _close(f"gamma_norm at row {i}", gnorm[i], n1, n1, probs)
            scale = max(n1, np.linalg.norm(g0, 2))
            _close(f"increment at row {i}", inc[i], np.linalg.norm(g1 - g0, 2), scale, probs)

    def check(self, job, out, cfg):
        """Oracle problems for a job that passed the gate."""
        s = self.zrs.from_config(cfg)
        p = job.params
        probs = []
        if job.kind == "sweep":
            tab = np.array([_floats(r, 6) for r in out.text.splitlines()[1:]])
            self._lambda_rows(s, tab[:, 0], tab[:, 2], tab[:, 5], probs)
        elif job.kind == "scan":
            lams = np.linspace(p["interval"][0], p["interval"][1], p["grid_points"])
            self._lambda_rows(s, lams, None, np.concatenate([[np.nan], out.value.increments]),
                              probs)
        elif job.kind == "smatrix" and job.expect == 0:
            self._smatrix(s, p["lam"], out.text, probs)
        elif job.kind == "resolvent":
            for key in ("z", "z1", "z2"):
                zv = complex(*p[key])
                for w in (zv, zv.conjugate()):
                    rel = _rel(self.zrs.c_matrix(w, s), oracle_c(s.points, s.weights, w))
                    if not rel <= ORACLE_RTOL:
                        probs.append(f"oracle: C(z={w}) off by {rel:.3g} relative")
        elif job.kind == "validate":
            self._validate(s, json.loads(out.text), probs)
        elif job.kind == "nsweep":
            levels = p["levels"]
            # the program's Gamma is compared at the largest truncation only;
            # every level enters the differences
            gam = {n: oracle_gamma(s.points[:n], s.weights[:n], p["lam"]) for n in levels[:-1]}
            gam[levels[-1]] = self._gamma_pair(s.prefix(levels[-1]), p["lam"], probs)
            norms = {n: np.linalg.norm(g, 2) for n, g in gam.items()}
            diffs = np.array([_floats(r, 3) for r in out.text.splitlines()[1:]])[:, 2]
            for (lo, hi), d in zip(zip(levels[:-1], levels[1:]), diffs):
                want = np.linalg.norm(gam[hi][:lo, :lo] - gam[lo], 2)
                _close(f"gamma_diff {lo}->{hi}", d, want, max(norms[hi], norms[lo]), probs)
        return probs

    def _smatrix(self, s, lam, text, probs):
        gamma = self._gamma_pair(s, lam, probs)
        tab = np.array([_floats(r, 6) for r in text.splitlines()[2:]])

        def dirs(theta, phi):
            return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                             np.cos(theta)], axis=1)

        k = math.sqrt(lam)
        rw = np.sqrt(np.abs(s.weights))
        u_out = np.exp(-1j * k * (s.points @ dirs(tab[:, 0], tab[:, 1]).T)) / rw[:, None]
        u_in = np.exp(-1j * k * (s.points @ dirs(tab[:, 2], tab[:, 3]).T)) / rw[:, None]
        coeff = 1j * k / (8.0 * math.pi**2) * gamma
        want = -np.einsum("mk,mn,nk->k", u_out, coeff, u_in.conj())
        got = tab[:, 4] + 1j * tab[:, 5]
        _close("S-matrix kernel samples", got, want, float(np.max(np.abs(want))), probs)

    def _validate(self, s, doc, probs):
        absw = np.abs(s.weights)
        diff = s.points[:, None, :] - s.points[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        # eta_m: least distance among the first max(m, 2) points
        eta = np.array([np.min(r[m, :m]) for m in range(1, s.n)])
        eta = np.minimum.accumulate(eta)
        eta = np.concatenate([eta[:1], eta])
        k0 = float(np.sum(1.0 / absw))
        k1 = float(np.sum(1.0 / (eta**2 * absw)))
        _close("K0", doc["K0"], k0, k0, probs)
        _close("K1", doc["K1"], k1, k1, probs)
