"""Scatterer configurations and admissibility diagnostics.

A configuration is a finite list of distinct points in R^3 with nonzero
real coupling weights.  Infinite families are represented by a named
generator truncated to N sites; the summability conditions

    K0 = sum_m 1/|w_m| < inf,    K1 = sum_m 1/(eta_m^2 |w_m|) < inf,

are assessed on partial sums, where eta_m is the minimum pairwise
distance among the first m points (eta_1 aliases eta_2 so that every
site contributes a term).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DuplicatePoint

DUPLICATE_EPS = 1e-12

_FAMILY_KINDS = ("uniform-line", "cubic-lattice-ball", "clustering")


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _no_bool(val):
    """``val``, which must not be or (in nested lists) hold a boolean:
    ``float(True)`` and ``int(True)`` succeed, but a JSON ``true`` is no
    number.  Raises TypeError."""
    if isinstance(val, bool):
        raise TypeError(f"expected a number, got {val!r}")
    if isinstance(val, (list, tuple)):
        for v in val:
            _no_bool(v)
    return val


def _floats(val):
    return np.array(_no_bool(val), dtype=float)


def number(val):
    """``val`` as a float, as ``float`` converts it; a boolean raises
    TypeError."""
    return float(_no_bool(val))


def integer(val):
    """``val`` as an int: integers, integral floats and digit strings.
    Other values (booleans included) raise TypeError, ValueError or
    OverflowError (infinity)."""
    out = int(_no_bool(val))
    if out != float(val):
        raise ValueError(val)
    return out


def _convert(val, what, convert=number):
    """``convert(val)``; a value of the wrong type raises BadParams naming
    ``what``."""
    try:
        return convert(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"bad value for {what}: {exc}") from None


def _section(val, what):
    """``val`` if it is a JSON object (dict), else BadParams."""
    if not isinstance(val, dict):
        raise BadParams(f"{what} must be a JSON object, got {type(val).__name__}")
    return val


@dataclass(frozen=True)
class ScattererSet:
    """Positions x_m in R^3 and nonzero real weights w_m.

    Points must be pairwise distinct (separation above DUPLICATE_EPS);
    the arrays, and the distance matrix and per-point minimum distances
    to the earlier points computed for that check, are stored read-only
    so instances can be shared freely.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(_convert(self.points, "points", _floats))
        w = np.atleast_1d(_convert(self.weights, "weights", _floats))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise BadParams(f"points must be (N, 3), got {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise BadParams("points and weights must have equal length")
        if pts.shape[0] < 1:
            raise BadParams("at least one scatterer is required")
        if np.any(w == 0.0) or not np.all(np.isfinite(w)):
            raise BadParams("weights must be nonzero finite reals")
        if not np.all(np.isfinite(pts)):
            raise BadParams("points must be finite")
        d = pairwise_distances(pts)
        if not np.all(np.isfinite(d)):
            raise BadParams("pairwise distances must be finite (points too far apart)")
        # row m of the strict lower triangle holds the distances from point
        # m to the earlier points; the distance matrix is exactly symmetric,
        # so the mask selects each pair once
        rows = np.min(d, axis=1, initial=np.inf,
                      where=np.tri(pts.shape[0], k=-1, dtype=bool))
        dmin = np.min(rows)
        if dmin <= DUPLICATE_EPS:
            raise DuplicatePoint(
                f"two points are within {DUPLICATE_EPS:g} (min distance {dmin:g})"
            )
        d.flags.writeable = False
        rows.flags.writeable = False
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "_distances", d)
        object.__setattr__(self, "_row_minima", rows)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def abs_weights(self):
        return np.abs(self.weights)

    @property
    def signs(self):
        return np.sign(self.weights)

    def prefix(self, n):
        """First ``n`` scatterers (truncation of a generated family); the
        whole set for ``n`` None.

        A prefix of a valid set is valid, so it shares the leading blocks
        of the arrays and of the distance matrix without checking again.
        """
        if n is None or n == self.n:
            return self
        if not 1 <= n <= self.n:
            raise BadParams(f"prefix length {n} outside 1..{self.n}")
        sub = object.__new__(ScattererSet)
        for name, val in (("points", self.points[:n]),
                          ("weights", self.weights[:n]),
                          ("_distances", self._distances[:n, :n]),
                          ("_row_minima", self._row_minima[:n])):
            object.__setattr__(sub, name, val)
        return sub

    def distances(self):
        """Read-only (N, N) matrix of pairwise distances."""
        return self._distances

    def diameter(self):
        return float(np.max(self._distances))

    def to_dict(self):
        return {"points": self.points.tolist(), "weights": self.weights.tolist()}


def pairwise_distances(points):
    """Distance matrix of ``points``; a distance above the float range is
    inf, without an overflow warning."""
    pts = np.asarray(points, dtype=float)
    # dx^2 + dy^2 + dz^2 in the order norm(axis=-1) sums them, without
    # (N, N, 3) temporaries
    with np.errstate(over="ignore"):
        d = np.subtract.outer(pts[:, 0], pts[:, 0])
        d *= d
        for k in range(1, pts.shape[1]):
            diff = np.subtract.outer(pts[:, k], pts[:, k])
            diff *= diff
            d += diff
    return np.sqrt(d, out=d)


def separation_profile(s):
    """Prefix separation minima of a scatterer set: ``eta[i]`` is the
    minimum pairwise distance among the first ``i + 2`` points, so the
    array has length N - 1 (empty for a single scatterer) and is
    nonincreasing."""
    # the per-point minima over earlier points, kept by ScattererSet; min
    # is exact, so the order of the minima does not matter.  Every minimum
    # is above DUPLICATE_EPS: the set checked its least one.
    return np.minimum.accumulate(s._row_minima)[1:]


def eta_by_index(s):
    """Per-site separation eta_m, m = 1..N, with eta_1 aliased to eta_2.

    eta_m is the minimum pairwise distance among the first max(m, 2)
    points; this is the quantity entering the K1 sum and the tail
    bound.  Returns an empty array for N = 1 (no pairs).
    """
    if s.n == 1:
        return np.empty(0)
    eta = separation_profile(s)
    return np.concatenate([eta[:1], eta])


def _site_terms(s):
    """Per-site summability data: the K0 terms 1/|w_m|, eta_m (as
    :func:`eta_by_index`) and the K1 terms 1/(eta_m^2 |w_m|).

    A K1 term whose denominator overflows is 0, its limit; a term that
    overflows, or whose denominator underflows to 0, is inf.  Neither
    warns.  A single scatterer has no eta and no K1 terms.
    """
    absw = s.abs_weights
    eta = eta_by_index(s)
    with np.errstate(over="ignore", divide="ignore"):
        terms_k0 = 1.0 / absw
        terms_k1 = 1.0 / (eta**2 * absw)
    return terms_k0, eta, terms_k1


@dataclass(frozen=True)
class AdmissibilityReport:
    """Summability diagnostics for a (possibly truncated) family.

    ``tail[j]`` is tau_j = sum_{m > j+1} of the K1 terms, j = 0..N-1,
    so the last entry is zero.  ``p_tail`` is the tail bound
    p_{N0,L}(b), the admission rule of the Schur route.  The convergence
    flags are partial-sum diagnostics (geometric-mean ratio of successive
    terms below 1), meaningful for generated families; short lists
    (N < 8) pass by convention and the verdict carries no information
    for unordered finite sets.
    """

    k0: float
    k1: float
    tail: np.ndarray
    p_tail: float
    n0: int
    b: float
    k0_converges: bool
    k1_converges: bool
    tail_contractive: bool

    @property
    def passed(self):
        return self.k0_converges and self.k1_converges

    def to_dict(self):
        return {
            "K0": self.k0,
            "K1": self.k1,
            "tail": np.asarray(self.tail).tolist(),
            "p_tail": self.p_tail,
            "n0": self.n0,
            "b": self.b,
            "k0_converges": self.k0_converges,
            "k1_converges": self.k1_converges,
            "tail_contractive": self.tail_contractive,
            "verdict": "pass" if self.passed else "fail",
        }


def _ratio_converges(terms):
    # geometric-mean ratio of successive terms over the trailing half;
    # < 1 is taken as evidence the partial sums converge.  Over k steps
    # from the middle term it is (last / middle) ** (1 / k), which is < 1
    # when last < middle (up to the rounding of the quotient; inf and 0
    # terms included), so the two terms are compared without a division
    # that could overflow.
    # Too-short sequences pass by convention (nothing to diagnose).
    terms = np.asarray(terms, dtype=float)
    n = len(terms)
    if n < 8:
        return True
    return bool(terms[-1] < terms[max(1, n // 2)])


def tail_bound(s, n0, b):
    """Tail bound p_{N0,L}(b) = max_{m>N0} (sqrt(b) + K0/eta_m^2 + K1) / (4 pi |w_m|),
    the admission rule of the Schur route: a tail is admitted when p < 1.

    K0 and K1 are taken over the retained scatterers.  A single scatterer
    has no pairs and gives sqrt(b) / (4 pi |w|).  Returns 0.0 for an empty
    tail (N0 = N), and inf, without a warning, for a bound that overflows.
    """
    return _tail_bound(s, n0, b, _site_terms(s))


def _tail_bound(s, n0, b, terms):
    """:func:`tail_bound` from the per-site terms ``_site_terms(s)``."""
    if not 0 < b < np.inf:
        raise BadParams(f"b must be positive and finite, got {b}")
    if not 0 <= n0 <= s.n:
        raise BadParams(f"n0 = {n0} outside 0..{s.n}")
    if n0 == s.n:
        return 0.0
    root = np.sqrt(b)
    absw = s.abs_weights
    with np.errstate(over="ignore"):
        if s.n == 1:
            sites = root / (4.0 * np.pi * absw)
        else:
            terms_k0, eta, terms_k1 = terms
            k0 = float(np.sum(terms_k0))
            k1 = float(np.sum(terms_k1))
            sites = (root + k0 / eta**2 + k1) / (4.0 * np.pi * absw)
    return float(np.max(sites[n0:]))


def check_admissibility(s, b, n0=None):
    """Evaluate the summability conditions on a scatterer set.

    Parameters
    ----------
    s : ScattererSet
    b : float
        Upper end of the spectral window (used in the tail bound).
    n0 : int, optional
        Head size for the tail bound p_{N0,L}(b); defaults to N // 2
        (at least 1).

    Returns
    -------
    AdmissibilityReport
        Carries flags, never raises on a failing condition.  Raises
        BadParams naming the first of K0, K1, the tail entries and p_tail
        that overflows, as no finite report can be given.
    """
    if n0 is None:
        n0 = max(1, s.n // 2)
    terms = _site_terms(s)
    # a single scatterer has no K1 terms, so tail [0]
    terms_k0, _, terms_k1 = terms
    with np.errstate(over="ignore"):
        k0 = float(np.sum(terms_k0))
        k1 = float(np.sum(terms_k1))
        # tail[j] = sum of K1 terms with index m > j+1 (1-based)
        tail = np.concatenate([np.cumsum(terms_k1[::-1])[::-1][1:], [0.0]])
    p = _tail_bound(s, n0, b, terms)
    values = np.concatenate([[k0, k1], tail, [p]])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        names = ["K0", "K1", *(f"tail[{i}]" for i in range(len(tail))), "p_tail"]
        raise BadParams(f"admissibility value {names[bad[0]]} overflows to "
                        f"{values[bad[0]]}")
    return AdmissibilityReport(
        k0=k0,
        k1=k1,
        tail=_freeze(tail),
        p_tail=p,
        n0=n0,
        b=b,
        k0_converges=_ratio_converges(terms_k0),
        k1_converges=_ratio_converges(terms_k1),
        tail_contractive=bool(p < 1.0),
    )


def generate_family(kind, params, n, strict=False):
    """Deterministic point/weight families truncated to ``n`` sites.

    Kinds
    -----
    uniform-line
        Points m*d on the x axis, constant weight.  Params: ``spacing``
        (default 1), ``weight`` (default 1).
    cubic-lattice-ball
        Cubic lattice of the given spacing, sites sorted by distance
        from the origin (ties broken lexicographically), constant
        weight.  Params: ``spacing`` (default 1), ``weight`` (default 1).
    clustering
        Points on the x axis accumulating at the origin with gap
        m^(-p), so eta_m ~ m^(-p), and weights w0 * m^q.  Satisfies the
        summability conditions iff q > 2p + 1 and q > 1; with
        ``strict=True`` parameters violating that raise BadParams.
        Params: ``p``, ``q``, ``w0`` (default 1).
    """
    if n < 1:
        raise BadParams("n must be >= 1")
    if kind in ("uniform-line", "cubic-lattice-ball"):
        d = _convert(params.get("spacing", 1.0), "family parameter 'spacing'")
        w = _convert(params.get("weight", 1.0), "family parameter 'weight'")
        if d <= 0:
            raise BadParams("spacing must be positive")
        if kind == "uniform-line":
            pts = np.zeros((n, 3))
            pts[:, 0] = d * np.arange(n)
            return ScattererSet(pts, np.full(n, w))
        k = 1
        while (2 * k + 1) ** 3 < n:
            k += 1
        g = np.arange(-k, k + 1)
        xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
        sites = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        order = np.lexsort((sites[:, 2], sites[:, 1], sites[:, 0],
                            np.sum(sites**2, axis=1)))
        pts = d * sites[order[:n]].astype(float)
        return ScattererSet(pts, np.full(n, w))

    if kind == "clustering":
        try:
            p = _convert(params["p"], "family parameter 'p'")
            q = _convert(params["q"], "family parameter 'q'")
        except KeyError as exc:
            raise BadParams(f"clustering family needs parameter {exc}") from exc
        w0 = _convert(params.get("w0", 1.0), "family parameter 'w0'")
        if w0 == 0:
            raise BadParams("w0 must be nonzero")
        if strict and not (q > 2 * p + 1 and q > 1):
            raise BadParams(
                f"clustering exponents p={p}, q={q} violate q > 2p+1 and q > 1"
            )
        m = np.arange(1, n + 1, dtype=float)
        gaps = m**(-p)
        # x_m = sum of gaps from m to n, so consecutive gaps are m^(-p)
        x = np.cumsum(gaps[::-1])[::-1]
        pts = np.zeros((n, 3))
        pts[:, 0] = x
        return ScattererSet(pts, w0 * m**q)

    raise BadParams(f"unknown family kind {kind!r}; expected one of {_FAMILY_KINDS}")


def from_config(data):
    """Build a ScattererSet from the JSON scatterer schema.

    Accepts ``{"points": [[x,y,z],...], "weights": [w,...]}`` or
    ``{"family": {"kind": ..., "params": {...}, "N": n, "strict": false}}``
    (``N`` an integer, ``strict`` a JSON boolean); a section or value of the
    wrong type raises BadParams naming it.
    """
    if "family" in _section(data, "scatterer config"):
        fam = _section(data["family"], "family section")
        try:
            kind = fam["kind"]
            n = _convert(fam["N"], "family key 'N'", integer)
        except KeyError as exc:
            raise BadParams(f"family section needs key {exc}") from exc
        params = _section(fam.get("params", {}), "family params")
        strict = fam.get("strict", False)
        if not isinstance(strict, bool):
            raise BadParams(f"family key 'strict' must be true or false, "
                            f"got {strict!r}")
        return generate_family(kind, params, n, strict=strict)
    try:
        return ScattererSet(data["points"], data["weights"])
    except KeyError as exc:
        raise BadParams(f"scatterer config needs key {exc}") from exc


def write_text(out, text):
    """Write ``text`` to ``out``, a path or an open text file object."""
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_csv(out, header, rows):
    """Write a CSV to ``out`` (as :func:`write_text`): the ``header`` line,
    then one line per row with every number in ``.17g``.  Each row holds
    one number per header column; the text is built before ``out`` is
    opened, so a failing ``rows`` iterator writes nothing."""
    # one %-format per table prints the same digits as format(v, ".17g")
    # and costs less per row than an f-string
    fmt = ",".join(["%.17g"] * (header.count(",") + 1))
    lines = [header] + [fmt % tuple(row) for row in rows]
    write_text(out, "\n".join(lines) + "\n")
