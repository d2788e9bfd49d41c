"""Scatterer configurations and admissibility diagnostics.

A configuration is a finite list of distinct points in R^3 with nonzero
real coupling weights.  Infinite families are represented by a named
generator truncated to N sites; the summability conditions

    K0 = sum_m 1/|w_m| < inf,    K1 = sum_m 1/(eta_m^2 |w_m|) < inf,

are decided by the family's law (:func:`_summable`; an explicit set is
finite), where eta_m is the minimum pairwise distance among the first m
points (eta_1 aliases eta_2 so that every site contributes a term).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DuplicatePoint

DUPLICATE_EPS = 1e-12

# each family kind with the parameters it reads
_FAMILY_PARAMS = {
    "uniform-line": ("spacing", "weight"),
    "cubic-lattice-ball": ("spacing", "weight"),
    "clustering": ("p", "q", "w0"),
}

_FAMILY_KEYS = ("kind", "N", "params")


def _family_params(kind, params):
    """``params`` of a ``kind`` family; BadParams for an unknown kind or param."""
    if not (isinstance(kind, str) and kind in _FAMILY_PARAMS):
        raise BadParams(f"unknown family kind {kind!r}; expected one of "
                        f"{tuple(_FAMILY_PARAMS)}")
    return _section(params, "family params", _FAMILY_PARAMS[kind])


def _exponents(params):
    """The gap and weight exponents (p, q) of a clustering family."""
    try:
        return (_convert(params["p"], "family parameter 'p'"),
                _convert(params["q"], "family parameter 'q'"))
    except KeyError as exc:
        raise BadParams(f"clustering family needs parameter {exc}") from exc


def _summable(family):
    """``(K0 < inf, K1 < inf)`` for the infinite family of a config's family
    section by the integral test ((True, True) for None, a finite set): a
    lattice has constant terms, clustering |w_m| ~ m^q, eta_m = m^-max(p, 0)."""
    if family is None:
        return True, True
    fam = _section(family, "family section", _FAMILY_KEYS)
    params = _family_params(fam.get("kind"), fam.get("params", {}))
    if fam["kind"] != "clustering":
        return False, False
    p, q = _exponents(params)
    return q > 1, q > 2 * max(p, 0.0) + 1


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
    return np.array(val, dtype=float)


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
    """``convert(val)``; a boolean (also in nested lists) or a value of the
    wrong type raises BadParams naming ``what``."""
    try:
        return convert(_no_bool(val))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"bad value for {what}: {exc}") from None


# what a real argument of each number of dimensions is called
_RANKS = {0: "a number", 1: "a 1-D array"}


def _positive(val, what, ndims):
    """``val`` as a float, or for ``ndims`` holding 1 a 1-D float array,
    converted as :func:`number` does; BadParams naming ``what`` unless its
    number of dimensions is in ``ndims`` and every value is positive and
    finite."""
    out = _convert(val, what, _floats)
    if out.ndim not in ndims:
        raise BadParams(f"{what} must be {' or '.join(_RANKS[d] for d in ndims)}, "
                        f"got shape {out.shape}")
    bad = out[~((0 < out) & (out < np.inf))]
    if bad.size:
        raise BadParams(f"{what} must be positive and finite, got {bad[0]}")
    return out.item() if out.ndim == 0 else out


def positive(val, what):
    """``val`` as a float, converted as :func:`number` does; BadParams
    naming ``what`` unless it is one positive finite number (an array is
    none: a grid entry takes :func:`_positive`)."""
    return _positive(val, what, (0,))


def window(interval):
    """The spectral window ``(a, b)`` as floats with 0 < a < b < inf, else
    BadParams (also for an interval without exactly two ends)."""
    ends = _convert(interval, "interval", _floats)
    if ends.shape != (2,) or not 0 < ends[0] < ends[1] < np.inf:
        raise BadParams("interval must satisfy 0 < a < b < inf")
    return float(ends[0]), float(ends[1])


def _section(val, what, keys=None):
    """``val`` if it is a JSON object (dict) whose keys are all in ``keys``
    (any keys for None), else BadParams."""
    if not isinstance(val, dict):
        raise BadParams(f"{what} must be a JSON object, got {type(val).__name__}")
    for key in val:
        if keys is not None and key not in keys:
            raise BadParams(f"unknown key {key!r} in {what}; expected "
                            f"{', '.join(keys)}")
    return val


@dataclass(frozen=True)
class ScattererSet:
    """Positions x_m in R^3 and nonzero real weights w_m.

    Points must be pairwise distinct (separation above DUPLICATE_EPS);
    the arrays and the per-site separation ``eta`` computed for that check
    (in row blocks, without the distance matrix) are stored read-only,
    and so is the pair list once read, so instances can be shared freely.

    ``eta[m - 1]`` is eta_m, m = 1..N, the minimum pairwise distance among
    the first max(m, 2) points (eta_1 aliases eta_2); this is the quantity
    entering the K1 sum and the tail bound.  A single scatterer has no
    pairs, and its eta is [inf], the minimum over none: its K1 term is 0,
    so N = 1 needs no branch.
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
        # eta: the running minimum of each point's squared distances to the
        # earlier ones, then its square root (sqrt is monotone and correctly
        # rounded, so the root of the least square is the least distance);
        # eta_1 aliases eta_2, and one site gets [inf]
        eta = np.empty(pts.shape[0])
        for lo, hi, d2, later in _squared_blocks(pts):
            if np.max(d2) == np.inf:
                raise BadParams("pairwise distances must be finite (points too far apart)")
            # only the points before each row
            np.copyto(d2[:, lo:], np.inf, where=later)
            np.min(d2, axis=1, out=eta[lo:hi])
        eta = np.sqrt(np.minimum.accumulate(eta, out=eta), out=eta)
        eta[0] = np.min(eta[:2])
        if eta[-1] <= DUPLICATE_EPS:
            raise DuplicatePoint(
                f"two points are within {DUPLICATE_EPS:g} (min distance {eta[-1]:g})"
            )
        eta.flags.writeable = False
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "_pairs", None)

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
        """First ``n`` scatterers (truncation of a generated family), built
        and checked as any set; the whole set for ``n`` None.  ``n`` is
        converted as :func:`integer` does (BadParams naming it)."""
        if n is None:
            return self
        n = _convert(n, "n", integer)
        if n == self.n:
            return self
        if not 1 <= n <= self.n:
            raise BadParams(f"prefix length {n} outside 1..{self.n}")
        return ScattererSet(self.points[:n], self.weights[:n])

    def pair_distances(self):
        """Read-only distances of the pairs (i, j), j < i, in the row order
        of the strict lower triangle (``np.tri(N, k=-1, dtype=bool)``),
        equal to those of :func:`pairwise_distances`; built on the first
        call and kept.  A prefix of n sites has the first n(n-1)/2."""
        if self._pairs is None:
            pairs = lower_pair_distances(self.points)
            pairs.flags.writeable = False
            object.__setattr__(self, "_pairs", pairs)
        return self._pairs

    def diameter(self):
        """The largest pairwise distance (0 for a single site)."""
        return float(np.max(self.pair_distances(), initial=0.0))

    def to_dict(self):
        return {"points": self.points.tolist(), "weights": self.weights.tolist()}


def _squared(pts, lo, hi, d, diff):
    """Squared distances of points ``lo..hi-1`` (rows) to points
    ``0..hi-1``, written to ``d`` with ``diff`` as work space (both of shape
    (hi - lo, hi)): dx^2 + dy^2 + dz^2 in the order norm(axis=-1) sums
    them, without (rows, hi, 3) temporaries; a square above the float range
    is inf, without an overflow warning.  Returns ``d``."""
    with np.errstate(over="ignore"):
        np.subtract.outer(pts[lo:hi, 0], pts[:hi, 0], out=d)
        d *= d
        for k in range(1, pts.shape[1]):
            np.subtract.outer(pts[lo:hi, k], pts[:hi, k], out=diff)
            diff *= diff
            d += diff
    return d


# Rows per block of the pairwise passes over a set: a pass holds two
# (BLOCK_ROWS, N) blocks, never an (N, N) array
BLOCK_ROWS = 128

# where a block's own columns are not earlier than its row (j >= i)
_NOT_EARLIER = ~np.tri(BLOCK_ROWS, k=-1, dtype=bool)
_NOT_EARLIER.flags.writeable = False


def _squared_blocks(pts):
    """``(lo, hi, d2, later)`` for consecutive row blocks of ``pts``: d2
    holds the squared distances of rows lo..hi-1 to points 0..hi-1, so
    every pair (i, j < i) of those rows, and is overwritten by the next
    block; ``later`` (read-only) masks the entries of the block's own
    columns ``d2[:, lo:]`` that are no such pair (j >= i)."""
    n = pts.shape[0]
    d, diff = np.empty(min(n, BLOCK_ROWS) * n), np.empty(min(n, BLOCK_ROWS) * n)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(n, lo + BLOCK_ROWS)
        # contiguous (r, hi) views of the buffers: ufuncs run slower into
        # row slices of a wider array
        r = hi - lo
        yield lo, hi, _squared(pts, lo, hi, d[:r * hi].reshape(r, hi),
                               diff[:r * hi].reshape(r, hi)), _NOT_EARLIER[:r, :r]


def pairwise_distances(points):
    """Distance matrix of ``points``; a distance above the float range is
    inf, without an overflow warning."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    d = _squared(pts, 0, n, np.empty((n, n)), np.empty((n, n)))
    return np.sqrt(d, out=d)


def lower_pair_distances(points):
    """The strict lower triangle of :func:`pairwise_distances` as a 1-D
    array in row order (pairs (1, 0), (2, 0), (2, 1), ...), built in row
    blocks without the (N, N) matrix."""
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape[0] * (pts.shape[0] - 1) // 2)
    for lo, hi, d2, later in _squared_blocks(pts):
        earlier = np.ones(d2.shape, dtype=bool)
        earlier[:, lo:] = ~later
        out[lo * (lo - 1) // 2:hi * (hi - 1) // 2] = d2[earlier]
    return np.sqrt(out, out=out)


def separation_profile(s):
    """Prefix separation minima of a scatterer set: ``eta[i]`` is the
    minimum pairwise distance among the first ``i + 2`` points, so the
    array has length N - 1 (empty for a single scatterer) and is
    nonincreasing.  It is ``s.eta[1:]``."""
    return s.eta[1:]


def _site_terms(s):
    """Per-site summability terms: the K0 terms 1/|w_m| and the K1 terms
    1/(eta_m^2 |w_m|).

    A K1 term whose denominator overflows is 0, its limit; a term that
    overflows, or whose denominator underflows to 0, is inf.  Neither
    warns.
    """
    absw = s.abs_weights
    with np.errstate(over="ignore", divide="ignore"):
        terms_k0 = 1.0 / absw
        terms_k1 = 1.0 / (s.eta**2 * absw)
    return terms_k0, terms_k1


@dataclass(frozen=True)
class AdmissibilityReport:
    """Summability diagnostics for a (possibly truncated) family.

    ``tail[j]`` is tau_j = sum_{m > j+1} of the K1 terms, j = 0..N-1,
    so the last entry is zero.  ``p_tail`` is the tail bound
    p_{N0,L}(b), the admission rule of the Schur route.  The convergence
    flags come from the family's law (:func:`_summable`), not from the
    N sites held; both hold for an explicit set, which is finite.
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


def tail_bound(s, n0, b):
    """Tail bound p_{N0,L}(b) = max_{m>N0} (sqrt(b) + K0/eta_m^2 + K1) / (4 pi |w_m|),
    the admission rule of the Schur route: a tail is admitted when p < 1.

    K0 and K1 are taken over the retained scatterers.  A single scatterer
    has no pairs and gives sqrt(b) / (4 pi |w|).  Returns 0.0 for an empty
    tail (N0 = N), and inf, without a warning, for a bound that overflows.
    ``n0`` is converted as :func:`integer` does (BadParams naming it).
    """
    return _tail_bound(s, _convert(n0, "n0", integer), positive(b, "b"), _site_terms(s))


def _tail_bound(s, n0, b, terms):
    """:func:`tail_bound` of an int ``n0`` and a checked ``b`` from the
    per-site terms ``_site_terms(s)``."""
    if not 0 <= n0 <= s.n:
        raise BadParams(f"n0 = {n0} outside 0..{s.n}")
    if n0 == s.n:
        return 0.0
    terms_k0, terms_k1 = terms
    with np.errstate(over="ignore"):
        k0 = float(np.sum(terms_k0))
        k1 = float(np.sum(terms_k1))
        # K0 / eta^2 is 0 at eta = inf (no pairs), also where K0 overflows
        pairs = np.divide(k0, s.eta**2, out=np.zeros(s.n), where=s.eta < np.inf)
        sites = (np.sqrt(b) + pairs + k1) / (4.0 * np.pi * s.abs_weights)
    return float(np.max(sites[n0:]))


def check_admissibility(s, b, n0=None, family=None):
    """Evaluate the summability conditions on a scatterer set.

    Parameters
    ----------
    s : ScattererSet
    b : float
        Upper end of the spectral window (used in the tail bound).
    n0 : int, optional
        Head size for the tail bound p_{N0,L}(b), converted as
        :func:`integer` does; defaults to N // 2 (at least 1).
    family : dict, optional
        The config's family section, whose law gives the flags; None for
        an explicit set.

    Returns
    -------
    AdmissibilityReport
        Carries flags, never raises on a failing condition.  Raises
        BadParams naming the first of K0, K1, the tail entries and p_tail
        that overflows, as no finite report can be given.
    """
    b = positive(b, "b")
    n0 = max(1, s.n // 2) if n0 is None else _convert(n0, "n0", integer)
    k0_converges, k1_converges = _summable(family)
    terms = _site_terms(s)
    terms_k0, terms_k1 = terms
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
        k0_converges=k0_converges,
        k1_converges=k1_converges,
        tail_contractive=bool(p < 1.0),
    )


# a few shell counts k: a process generates lattices of few sizes, and
# the entry for N = 10^4 (k = 11) holds 292 KB
@functools.lru_cache(maxsize=8)
def _lattice_ball(k):
    """The integer sites of the cube [-k, k]^3 as floats, sorted by
    distance from the origin (ties broken lexicographically); read-only."""
    g = np.arange(-k, k + 1)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    sites = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    order = np.lexsort((sites[:, 2], sites[:, 1], sites[:, 0],
                        np.sum(sites**2, axis=1)))
    return _freeze(sites[order])


def generate_family(kind, params, n):
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
        m^(-p), so eta_m ~ m^(-p) (1 for p < 0), and weights w0 * m^q.
        Satisfies the summability conditions iff q > 2 max(p, 0) + 1
        (:func:`_summable`).  Params: ``p``, ``q``, ``w0`` (default 1).

    A parameter the kind does not read raises BadParams naming it.
    """
    n = _convert(n, "n", integer)
    if n < 1:
        raise BadParams("n must be >= 1")
    _family_params(kind, params)
    if kind == "clustering":
        p, q = _exponents(params)
        w0 = _convert(params.get("w0", 1.0), "family parameter 'w0'")
        if w0 == 0:
            raise BadParams("w0 must be nonzero")
    else:
        d = _convert(params.get("spacing", 1.0), "family parameter 'spacing'")
        w = _convert(params.get("weight", 1.0), "family parameter 'weight'")
        if d <= 0:
            raise BadParams("spacing must be positive")
    # a coordinate or weight past the float range is inf or nan, without a
    # warning, and ScattererSet rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "uniform-line":
            pts = np.zeros((n, 3))
            pts[:, 0] = d * np.arange(n)
            weights = np.full(n, w)
        elif kind == "cubic-lattice-ball":
            k = 1
            while (2 * k + 1) ** 3 < n:
                k += 1
            pts = d * _lattice_ball(k)[:n]
            weights = np.full(n, w)
        else:
            m = np.arange(1, n + 1, dtype=float)
            gaps = m**(-p)
            # x_m = sum of gaps from m to n, so consecutive gaps are m^(-p)
            pts = np.zeros((n, 3))
            pts[:, 0] = np.cumsum(gaps[::-1])[::-1]
            weights = w0 * m**q
    return ScattererSet(pts, weights)


def from_config(data):
    """Build a ScattererSet from the JSON scatterer schema.

    Accepts ``{"points": [[x,y,z],...], "weights": [w,...]}`` or
    ``{"family": {"kind": ..., "params": {...}, "N": n}}`` (``N`` an
    integer); a section or value of the wrong type, a family key or
    parameter that is not read, or a family given together with points or
    weights, raises BadParams naming it.
    """
    if "family" in _section(data, "scatterer config"):
        explicit = [key for key in ("points", "weights") if key in data]
        if explicit:
            raise BadParams("scatterer config gives both 'family' and "
                            + " and ".join(map(repr, explicit))
                            + "; give a family or explicit points, not both")
        fam = _section(data["family"], "family section", _FAMILY_KEYS)
        try:
            kind = fam["kind"]
            n = _convert(fam["N"], "family key 'N'", integer)
        except KeyError as exc:
            raise BadParams(f"family section needs key {exc}") from exc
        return generate_family(kind, fam.get("params", {}), n)
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
