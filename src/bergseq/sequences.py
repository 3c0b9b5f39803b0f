"""Sequence-level analysis: separation, density quotients, classification.

The infinite-dimensional sup/limsup of the density criteria are
approximated on finite grids: radii from a fixed grid, centers from a
greedy separated net covering the sequence hull plus one mesh margin.
The verdict honors the asymmetry of the criteria: sufficiency needs the
estimate clearly below 1, necessity-side failure needs it clearly above.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat, starmap
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BergseqError, DomainViolation, WindowViolation
from .geometry import Domain, TWO_PI, _check_domain, _check_finite, _cylindrical, _hyperbolic, _mobius, lift_value
from .quadrature import _BLOCK_NODES, _BORDER_RADII, _PUNCTURE_RADII, _check_radius
from .weights import WeightModel
from .weights import (_annulus_sums, _curvature_masses, _lifted_points, _phi_masses, _puncture_denominators,
                      _span, _window)

BORDER_R_GRID = (0.90, 0.95, 0.975, 0.99)
PUNCTURE_R_GRID = (4.0, 8.0, 16.0)
# Most centers center_net returns by default; density_sweep notes when a
# net reaches it, with the coverage radius it left.
CENTER_CAP = 64
DEFAULT_SPLIT = 0.5
SEPARATION_FLOOR = 1e-6
# Random candidates generate_lattice("hyperbolic-disk", ...) draws.
_CANDIDATES = 20000


@dataclass(frozen=True)
class SequenceSet:
    """A finite stand-in for a closed discrete subset of the domain.

    A SequenceSet keeps the sequence half of its last density sweep (see
    density_sweep): the separations, each part's centers and admitted
    radii, the numerators and the coverage, as read-only arrays, keyed by
    (mesh, split_a, border grid, puncture grid, explicit centers or None).
    A sweep or classify under the same key, whatever the weight, reads it
    back; one under another key computes a new half, which replaces it.
    The half is not a field: it takes no part in ==, hash or repr, and
    copies and pickles leave it out, so a new SequenceSet, even an equal
    one, computes its own.
    """

    points: tuple
    domain: Domain
    label: str = ""
    # the kept sequence half, set by _sequence_half
    _sweep_half = None

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        _check_domain(pts, self.domain, "points")
        if len(set(pts)) != len(pts):
            raise DomainViolation("sequence points must be pairwise distinct")

    def __getstate__(self):
        # the half holds the sides' functions, which do not pickle
        return {name: value for name, value in self.__dict__.items() if name != "_sweep_half"}

    def __len__(self):
        return len(self.points)

    def array(self):
        return np.asarray(self.points, dtype=complex)


@dataclass(frozen=True)
class DensityReport:
    center: complex
    radius: float
    numerator: float
    denominator: float
    ratio: float
    kind: str  # "border" | "puncture"
    degenerate: bool = False


# The array columns of a _Block.
_COLUMNS = ("centers", "numerators", "denominators")


@dataclass(frozen=True, eq=False)
class _Block:
    """One side's density quotients at one radius, centers in order, as read-only arrays.

    The ratio of a quotient is numerator / denominator where the
    denominator is > 0, else inf, and a denominator not > 0 is
    degenerate.  Blocks compare and hash by value, as the DensityReports
    they stand for do.
    """

    kind: str
    radius: float
    centers: np.ndarray
    numerators: np.ndarray
    denominators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        for name, dtype in zip(_COLUMNS, (complex, float, float)):
            # a view, so that the caller's array stays writable
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def rows(self):
        """Each quotient's DensityReport fields, as plain Python values."""
        d = self.denominators
        ok = d > 0.0
        ratios = np.divide(self.numerators, d, out=np.full(d.shape, math.inf), where=ok)
        return zip(self.centers.tolist(), repeat(self.radius), self.numerators.tolist(), d.tolist(), ratios.tolist(),
                   repeat(self.kind), (~ok).tolist())

    def __eq__(self, other):
        if not isinstance(other, _Block):
            return NotImplemented
        return ((self.kind, self.radius) == (other.kind, other.radius)
                and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == does not tell apart
        return hash((self.kind, self.radius, *((getattr(self, name) + 0.0).tobytes() for name in _COLUMNS)))


@dataclass(frozen=True)
class SweepResult:
    """The estimates of a density sweep, and its quotients as read-only arrays.

    The quotients are held as one _Block of columns (centers, numerators,
    denominators) per side and radius: border side first, radii in grid
    order, centers in order within each.  `reports` gives them as
    DensityReports in that (r, center) order; it is built on first access
    and then cached, so a caller that reads only the estimates, as
    classify does, builds none.  Results compare and hash by value.

    n_centers is the number of border-side centers swept, and
    coverage_radius the largest pseudohyperbolic distance from a
    border-part point to its nearest such center (None with no border
    part): the sup is taken over balls about those centers only.
    skipped_radii are the radii, in grid order, at which the puncture
    part had no admissible center lift (each also has a note), and
    n_degenerate counts the degenerate quotients; degenerate is
    n_degenerate > 0.
    """

    estimate: float
    border_estimate: Optional[float]
    puncture_estimate: Optional[float]
    decreasing: bool
    degenerate: bool
    notes: tuple = ()
    n_centers: int = 0
    coverage_radius: Optional[float] = None
    skipped_radii: tuple = ()
    n_degenerate: int = 0
    _blocks: tuple = field(default=(), repr=False)

    @cached_property
    def reports(self):
        return tuple(starmap(DensityReport, self._rows()))

    def _rows(self):
        """Each quotient's DensityReport fields in report order, as plain Python values."""
        return chain.from_iterable(block.rows() for block in self._blocks)


@dataclass(frozen=True)
class ClassifyParams:
    r_grid: Optional[Sequence[float]] = None  # None: each side's built-in grid
    split_a: float = DEFAULT_SPLIT
    delta: float = 0.05
    mesh: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        _check_unit_interval(self.split_a, "split modulus")
        _check_unit_interval(self.mesh, "mesh")


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: str  # "Interpolating" | "NotInterpolating" | "Indeterminate"
    separation_border: float
    separation_puncture: Optional[float]
    density_border: Optional[float]
    density_puncture: Optional[float]
    params: ClassifyParams
    reasons: tuple = ()
    sweep: Optional[SweepResult] = None


# ---------------------------------------------------------------------------
# Separation and decomposition.

def _check_unit_interval(x, name):
    """Raise DomainViolation unless 0 < x < 1 (NaN fails): the rule for a split modulus and a mesh."""
    if not 0.0 < x < 1.0:
        raise DomainViolation(f"the {name} must lie in (0, 1), got {x}")


def decompose(seq: SequenceSet, a: float):
    """Split a punctured-disk sequence at modulus a (|gamma| = a goes inward).

    Raises DomainViolation unless 0 < a < 1.
    """
    if seq.domain is not Domain.PUNCTURED_DISK:
        raise DomainViolation("decompose applies to punctured-disk sequences")
    _check_unit_interval(a, "split modulus")
    star = tuple(p for p in seq.points if abs(p) <= a)
    border = tuple(p for p in seq.points if abs(p) > a)
    return (
        SequenceSet(star, seq.domain, seq.label + "*"),
        SequenceSet(border, seq.domain, seq.label + "b"),
    )


def _block_rows(width):
    """Rows of `width` entries that fit in one block of _BLOCK_NODES, at least one.

    The pairwise kernels below hold one such block of distances at a
    time: its complex temporaries then stay at 64 KiB, below glibc's
    default mmap threshold (128 KiB).
    """
    return max(1, _BLOCK_NODES // max(width, 1))


def _min_pairwise(points, dist):
    """Least dist over the pairs of checked points, every pair evaluated.

    The disk metric takes the windowed _min_disk_pairwise instead.
    dist(z, w) broadcasts: it is called on row blocks of the upper
    triangle, z a column of points and w the row of every later point,
    and pair (i, j), i < j, is always dist(points[i], points[j]).
    """
    arr = np.asarray(points, dtype=complex)
    n = arr.size
    best = math.inf
    i = 0
    while i < n - 1:
        width = n - 1 - i
        rows = min(_block_rows(width), width)
        # row k pairs point i + k with points i + 1 + c; the pair is new when c >= k
        upper = np.arange(width) >= np.arange(rows)[:, None]
        best = min(best, float(np.min(dist(arr[i:i + rows, None], arr[i + 1:]), where=upper, initial=math.inf)))
        i += rows
    return best


# Argument windows (see _half_angles).  The separation is inflated by a
# relative _WINDOW_SEP_SLACK and each half-angle by _WINDOW_ANGLE_SLACK
# radians, so that rounding of |c|, of the arguments and of the bound can
# only widen a window.  The slack also covers the rounding of a computed
# distance |phi_c(w)|, at most about 1e-15 + 2.6e-16 / |1 - conj(c) w|
# relative: a pair that a window rules out has
# |1 - conj(c) w| >= s (1 - |c|^2) / 2, so windows stop where
# s (1 - |c|^2) < _WINDOW_RIM, and that rounding stays below 6e-8.
_WINDOW_SEP_SLACK = 1e-6
_WINDOW_ANGLE_SLACK = 1e-9
_WINDOW_RIM = 1e-8
# Below this many kept points the greedy screens a block of candidates
# against all of them in one numpy call, and below this many points
# _min_disk_pairwise evaluates every pair: the windows' dozen small numpy
# calls cost more there.  Measured on a 2-CPU Xeon (Python 3.11, numpy
# 2.4), first quartiles of 21 runs, on d = 0.35 lattices: a 40-point
# lattice took 139 us with dense screens and 195 us with windows from 16
# kept points on; a 200-point one 920 to 945 us with windows from 64 to
# 128 kept points on and 1 120 us dense throughout.  A separation took
# 57 us dense and 70 us windowed at 64 points, 108 us and 80 us at 100.
_WINDOWED_FROM = 96


def _half_angles(moduli, sep):
    """Half-widths of the argument windows at separation sep about points of the given moduli; inf for none.

    A point w whose argument differs from that of c, |c| = a, by delta at
    least the half-width lies at pseudohyperbolic distance >= sep from c.
    For a >= s, the right triangle with vertices 0, c and the foot of the
    perpendicular from c to the ray of w gives sinh h = sinh d(0, c) sin(delta)
    for the hyperbolic distance h from c to that ray, and
    sinh(2 artanh x) = 2x / (1 - x^2), so sin(delta) >= s (1 - a^2) / (a (1 - s^2))
    suffices, as does delta >= pi/2.  s is sep times 1 + _WINDOW_SEP_SLACK;
    a point with a < s, or with s (1 - a^2) < _WINDOW_RIM, has no window.
    """
    s = sep * (1.0 + _WINDOW_SEP_SLACK)
    a = np.asarray(moduli, dtype=float)
    half = np.full(a.shape, math.inf)
    # where ok, s <= a < 1: nothing divides by 0, and the ratio exceeds 1 only by rounding
    ok = (a >= s) & (s * (1.0 - a * a) >= _WINDOW_RIM)
    b = a[ok]
    half[ok] = np.arcsin(np.minimum(s * (1.0 - b * b) / (b * (1.0 - s * s)), 1.0)) + _WINDOW_ANGLE_SLACK
    return half


def _wrapped(by_arg):
    """Sorted arguments of n points wrapped three times: position p is point p % n."""
    return np.concatenate((by_arg - TWO_PI, by_arg, by_arg + TWO_PI))


def _argument_windows(wrapped, theta, half):
    """(starts, counts): the windows theta +- half in the _wrapped arguments of n points.

    Window k is the counts[k] positions from starts[k] on, and an inf
    half-width counts all n.
    """
    starts = np.searchsorted(wrapped, theta - half)
    return starts, np.minimum(np.searchsorted(wrapped, theta + half, side="right") - starts, wrapped.size // 3)


def _pair_blocks(starts, counts):
    """(rows, positions) of the pairs (k, starts[k] + t), t < counts[k], in order, at most _BLOCK_NODES at a time."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    for first in range(0, total, _BLOCK_NODES):
        flat = np.arange(first, min(first + _BLOCK_NODES, total))
        rows = np.searchsorted(ends, flat, side="right")
        yield rows, starts[rows] + flat - (ends[rows] - counts[rows])


def _min_disk_pairwise(points, hyperbolic=False):
    """Least pseudohyperbolic distance, or hyperbolic one, over the pairs of checked disk points.

    A pair's rho is |_mobius(points[i], points[j])|, i < j, through the
    module's _mobius, so that a patched one sees the separations too.  The
    least distance between argument neighbours bounds the answer above.  A
    pair whose arguments lie apart by the half-width for that bound (see
    _half_angles) of either of its points lies a relative 1e-6 beyond it,
    so only the pairs inside the narrower window are evaluated, each once.
    Windows rule pairs out only at bounds >= _WINDOW_RIM, where both
    distances round to below 1e-7 relative, so the least is the one over
    all pairs bit for bit.  Below _WINDOWED_FROM points every pair is
    evaluated (see _min_pairwise).
    """
    dist = ((lambda z, w: _hyperbolic(np.abs(_mobius(z, w)), z, w)) if hyperbolic
            else (lambda z, w: np.abs(_mobius(z, w))))
    arr = np.asarray(points, dtype=complex)
    n = arr.size
    if n < _WINDOWED_FROM:
        return _min_pairwise(arr, dist)
    theta = np.angle(arr)
    order = np.argsort(theta, kind="stable")
    theta = theta[order]

    def pair_dist(rows, cols):
        """dist of the pairs of sorted positions rows, cols % n, each taken in index order."""
        p, q = order[rows], order[cols % n]
        return dist(arr[np.minimum(p, q)], arr[np.maximum(p, q)])

    best = math.inf
    # each point and its next argument neighbour
    for rows, cols in _pair_blocks(np.arange(1, n + 1), np.ones(n, dtype=int)):
        best = min(best, float(pair_dist(rows, cols).min()))
    half = _half_angles(np.abs(arr[order]), math.tanh(best) if hyperbolic else best)
    for rows, cols in _pair_blocks(*_argument_windows(_wrapped(theta), theta, half)):
        cols %= n
        # each pair from the point with the narrower window, ties by position
        mine = (half[rows] < half[cols]) | ((half[rows] == half[cols]) & (rows < cols))
        best = min(best, float(pair_dist(rows[mine], cols[mine]).min(initial=math.inf)))
    return best


def separation_border(seq: SequenceSet):
    """Half the minimal pairwise distance, pseudohyperbolic on the disk,
    hyperbolic (disk-wise) for punctured-disk border parts.

    Only the pairs inside the argument windows for an upper bound taken
    from argument neighbours are evaluated (see _min_disk_pairwise); the
    windows rule out only pairs at least a relative 1e-6 beyond the
    bound, so the result is the all-pairs minimum bit for bit.  The
    hyperbolic distance stays finite up to the circle.
    """
    return 0.5 * _min_disk_pairwise(seq.points, hyperbolic=seq.domain is not Domain.DISK)


def separation_puncture(seq: SequenceSet):
    """Half the minimal pairwise cylindrical distance."""
    return 0.5 * _min_pairwise(seq.points, _cylindrical)


# ---------------------------------------------------------------------------
# Density quotients.

@dataclass(frozen=True)
class _Side:
    """One side of the density quotient, the geometry that _numerators and density_sweep take.

    The annulus is (inner, r), r in the open range `radii`.  prepare
    checks the points, and on the cover lifts them.  dists(prepared,
    centers, r) has shape (centers, points, 2 span(r) + 1): on the cover
    each point's translates in the window for r (see weights._window), on
    the disk the point itself.  denominators(weight, centers, radii)
    gives the curvature masses, one row per center.  centers(points, mesh)
    is the one place a sweep's centers come from: on the disk a center
    net, on the cover the points' own lifts (a net of the cover, or cells
    that bracket the sup, would replace it alone).  admits(centers, radii)
    is the (center, radius) mask of the quotients a sweep takes (on the
    cover, _admissible), or None where it takes every one (the disk); a
    center's admitted radii are the grid's radii below a bound, so their
    count names them.
    """

    kind: str
    inner: float
    radii: tuple
    prepare: Callable
    dists: Callable
    span: Callable
    denominators: Callable
    centers: Callable
    admits: Callable


# These lambdas look their module globals up at call time, so that a
# patched _mobius, _lifted_points or center_net reaches them.  The border
# masses come from circle means of phi when phi passed custom_weight's
# check, else in closed form or by 2-D quadrature of lap_poincare_ratio
# (see weights._curvature_masses).
_BORDER = _Side("border", 0.5, _BORDER_RADII, lambda points: _check_domain(points, name="points"),
                lambda pts, centers, r: np.abs(_mobius(centers[:, None], pts))[..., None], lambda r: 0,
                lambda weight, *args: (_phi_masses if weight.phi_matches_curvature else _curvature_masses)(
                    weight, *args, less=2.0),
                lambda points, mesh: center_net(points, mesh), lambda centers, radii: None)
_PUNCTURE = _Side("puncture", 1.0, _PUNCTURE_RADII, lambda points: _lifted_points(points),
                  lambda w, lifts, r: np.abs(_window(w, lifts, r) - lifts[:, None, None]), _span,
                  _puncture_denominators, lambda points, mesh: np.atleast_1d(lift_value(points)),
                  lambda centers, radii: _admissible(centers[:, None], np.asarray(radii, dtype=float)))


def _numerators(side: _Side, points, centers, radii):
    """(numerators, nearest) of one side's density quotients: one row per center, one column per radius.

    Numerator (k, j) is 2 pi times the sum of log(r^2/rho^2), r = radii[j],
    over the distances rho from centers[k] in (side.inner, r), summed by
    weights._annulus_sums; the denominators, which side.denominators(weight,
    centers, radii) gives in the same shape, complete the quotient
    (see _Block for the ratio).  The distances are taken a block of
    centers at a time (see _block_rows), in the widest radius's window,
    and a smaller radius reads its middle 2 span(r) + 1 translate columns:
    they are its own window bit for bit, so each sum is the one a single
    center and radius would give.  nearest is each prepared point's least
    distance to a center (on the cover, of its translates in the widest
    window).
    """
    pts = side.prepare(points)
    ctrs = np.asarray(centers, dtype=complex)
    widest = max(radii)
    span = side.span(widest)
    numers = np.empty((ctrs.size, len(radii)))
    nearest = np.full(pts.size, math.inf)
    rows = _block_rows(pts.size * (2 * span + 1))
    for i in range(0, ctrs.size, rows):
        dist = side.dists(pts, ctrs[i:i + rows], widest)
        np.minimum(nearest, dist.min(axis=(0, 2), initial=math.inf), out=nearest)
        for j, r in enumerate(radii):
            cut = span - side.span(r)
            window = dist[:, :, cut:dist.shape[2] - cut].reshape(len(dist), -1)
            numers[i:i + rows, j] = _annulus_sums(window, side.inner, r)
    return numers, nearest


def _report(side: _Side, points, weight: WeightModel, center, r) -> DensityReport:
    """The DensityReport of one side's quotient at one center and radius."""
    numers, _ = _numerators(side, points, [center], (r,))
    denoms = side.denominators(weight, np.asarray([center], dtype=complex), (r,))
    return DensityReport(*next(_Block(side.kind, r, [center], numers[:, 0], denoms[:, 0]).rows()))


def border_density_ratio(seq, weight: WeightModel, z, r) -> DensityReport:
    """Point-count vs curvature-mass quotient at one (center, radius).

    Numerator: 2 pi sum of log(r^2/rho^2) over sequence points with
    phi_z image in 1/2 < rho < r.  Denominator: the log-kernel mass of
    Delta phi - 2 omega_P over D_r(z), pulled back through phi_z: a
    circle mean of phi when phi passed custom_weight's check, else a
    closed form or a 2-D integral of the ratio.  It is the sweep's
    quotient at one center and radius (see _numerators).
    """
    _check_radius(r, _BORDER_RADII, "border quotient")
    _check_domain(z)
    pts = seq.array() if isinstance(seq, SequenceSet) else seq
    return _report(_BORDER, pts, weight, z, r)


def _admissible(q, r):
    """Whether the puncture quotient at the lift q and radius r is taken: Im q > r + 1.

    D_r(q) then stays a unit above the real axis, in the part of the cover
    where the limsup at the puncture is taken.
    """
    return q.imag > r + 1.0


def puncture_density_ratio(seq, weight: WeightModel, q, r) -> DensityReport:
    """Cylindrical density quotient at a lift q of the center.

    Numerator: 2 pi sum of log(r^2/d^2) over lifted sequence points in
    the open annulus 1 < d < r about q.  Denominator: the Euclidean
    log-kernel mass over D_r(q) of the cylindrical curvature density of
    the shifted weight psi = phi + 2 log log(1/|z|^2), lifted through the
    cover, computed as 2 pi times the mean of psi(e^{iw}) - psi(e^{iq})
    over the circle |w - q| = r (see weights._puncture_denominators).  It
    is the sweep's quotient at one lift and radius (see _numerators), and
    takes the lifts a density sweep takes, Im q > r + 1 (see
    _admissible): any other raises WindowViolation before any sampling;
    DomainViolation if q is not finite, or so deep that psi is not finite
    on the circle.
    """
    _check_radius(r, _PUNCTURE_RADII, "puncture quotient")
    q = complex(_check_finite(q, "the lift q"))
    if not _admissible(q, r):
        raise WindowViolation(f"a puncture quotient needs a lift with Im q > r + 1 = {r + 1.0:g},"
                              f" got Im q = {q.imag:g}")
    pts = seq.array() if isinstance(seq, SequenceSet) else seq
    return _report(_PUNCTURE, pts, weight, q, r)


# ---------------------------------------------------------------------------
# Center nets and sweeps.

def _greedy_separated(cands, sep, limit):
    """The candidates, in order, each kept if it lies at pseudohyperbolic
    distance >= sep from every one kept before it; at most `limit` kept.
    Raises DomainViolation unless every candidate lies in the disk.
    """
    cands = _check_domain(cands, name="candidates")
    return _greedy_chunks((cands,), cands.size, sep, limit)


def _greedy_chunks(chunks, size, sep, limit):
    """_greedy_separated of checked candidates that come in chunks, `size` in all.

    The next chunk is taken only while fewer than `limit` are kept.  A
    block of candidates is first screened against the kept points.  Below
    _WINDOWED_FROM kept points the block is screened against all of them
    at once, and shrinks as points are kept, so that it holds at most
    _BLOCK_NODES distances (and at most sqrt(_BLOCK_NODES) candidates).
    From there on the kept points are held sorted by argument, and each
    candidate c is screened only against those inside its argument window
    (see _half_angles): every kept point outside it lies at distance
    >= sep(1 + 1e-6) from c, so its computed distance passes `>= sep`.
    The windows' pairs are gathered at most _BLOCK_NODES at a time.
    The conflicts among the block's survivors are then settled in
    candidate order: each survivor's row of "closer than sep to another
    survivor" is packed into a Python int and tested against the bits of
    the survivors kept so far.  Every distance is |phi_c(w)| of a
    candidate c and an earlier point w, compared by `>= sep`, as one
    candidate at a time would; so the result is the same bit for bit.
    """
    kept = np.empty(min(size, limit), dtype=complex)
    widest = math.isqrt(_BLOCK_NODES)
    # the kept points sorted by argument, and their arguments _wrapped, once the windows are in use
    by_arg, wrapped = np.empty(0, dtype=complex), np.empty(0)
    k = 0
    for cands in chunks:
        i = 0
        while i < cands.size and k < limit:
            if k < _WINDOWED_FROM:
                block = cands[i:i + min(widest, _block_rows(k))]
                i += block.size
                if k:
                    block = block[(np.abs(_mobius(block[:, None], kept[:k])) >= sep).all(axis=1)]
            else:
                if by_arg.size < k:
                    by_arg = np.concatenate((by_arg, kept[by_arg.size:k]))
                    theta = np.angle(by_arg)
                    order = np.argsort(theta, kind="stable")
                    by_arg, wrapped = by_arg[order], _wrapped(theta[order])
                # twice a dense block: past the first `widest` survivors the candidates wait
                block = cands[i:i + 2 * widest]
                clear = np.ones(block.size, dtype=bool)
                for rows, cols in _pair_blocks(*_argument_windows(wrapped, np.angle(block),
                                                                  _half_angles(np.abs(block), sep))):
                    clear[rows[~(np.abs(_mobius(block[rows], by_arg[cols % k])) >= sep)]] = False
                survivors = np.flatnonzero(clear)
                if survivors.size > widest:
                    block = block[:survivors[widest]]
                    survivors = survivors[:widest]
                i += block.size
                block = block[survivors]
            if block.size > 1:
                close = np.packbits(~(np.abs(_mobius(block[:, None], block)) >= sep), axis=1, bitorder="little")
                width, close = close.shape[1], close.tobytes()
                taken, chosen = 0, []
                for j in range(block.size):
                    if not int.from_bytes(close[j * width:(j + 1) * width], "little") & taken:
                        taken |= 1 << j
                        chosen.append(j)
                        if k + len(chosen) == limit:
                            break
                block = block[chosen]
            kept[k:k + block.size] = block
            k += block.size
        if k == limit:
            break
    return kept[:k]


def center_net(points, mesh, max_centers=CENTER_CAP):
    """Greedy mesh-separated net covering the points plus one mesh margin.

    Candidates are the points themselves and a ring of eight neighbors at
    pseudohyperbolic distance mesh around each; greedy acceptance at
    separation mesh/2 keeps the net small and deterministic.  A single
    point may be passed as a scalar.  Raises DomainViolation unless
    0 < mesh < 1, and ValueError unless max_centers is an integer >= 1.
    """
    _check_unit_interval(mesh, "mesh")
    if not isinstance(max_centers, numbers.Integral) or max_centers < 1:
        raise ValueError(f"max_centers must be an integer >= 1, got {max_centers!r}")
    pts = _check_domain(points, name="points").ravel()
    if pts.size == 0:
        return np.asarray([0.0], dtype=complex)
    ring = mesh * np.exp(1j * math.pi / 4.0 * np.arange(8))
    cands = np.empty(pts.size * (1 + ring.size), dtype=complex)
    cands[:pts.size] = pts
    rings = cands[pts.size:].reshape(pts.size, ring.size)
    rows = _block_rows(ring.size)
    for i in range(0, pts.size, rows):
        rings[i:i + rows] = _mobius(pts[i:i + rows, None], ring)
    return _greedy_separated(cands, 0.5 * mesh, max_centers)


@dataclass(frozen=True)
class _Part:
    """One swept part of a sweep's sequence half (see _SequenceHalf).

    centers are the part's swept centers, admits their (center, radius)
    mask (None where every center admits every radius; see _Side),
    numerators the (center, radius) numerators where admitted, and
    nearest each prepared point's least distance to a center (see
    _numerators).  groups holds the (cells, centers, columns) of each
    _numerators and side.denominators call: the centers that admit the
    same radii, the index of the cells they fill, and the grid columns of
    their radii.  The arrays of centers, numerators and distances are
    read-only.
    """

    side: _Side
    centers: np.ndarray
    admits: Optional[np.ndarray]
    numerators: np.ndarray
    nearest: np.ndarray
    groups: tuple


@dataclass(frozen=True)
class _SequenceHalf:
    """What a density sweep takes from its sequence alone, whatever the weight.

    key is (mesh, split_a, border grid, puncture grid, the shape and bytes
    of the explicit centers or None), the arguments the half depends on.
    separations are classify's (border, puncture); parts the (border,
    puncture) _Parts, None for a part that is not swept; n_centers,
    coverage_radius and notes the border record of the SweepResult.
    """

    key: tuple
    separations: tuple
    parts: tuple
    n_centers: int
    coverage_radius: Optional[float]
    notes: tuple


def _grids(domain, r_grid):
    """(border grid, puncture grid) of a sweep; r_grid None gives each side's built-in grid.

    An explicit grid goes to the border part whole on the disk, split at
    r = 1 on the punctured disk.
    """
    if r_grid is None:
        return BORDER_R_GRID, PUNCTURE_R_GRID
    disk = domain is Domain.DISK
    return tuple(r for r in r_grid if disk or r < 1.0), tuple(r for r in r_grid if not r < 1.0)


def _separations(seq: SequenceSet, split_a):
    """classify's (border, puncture) separations, the puncture one None on the disk."""
    if seq.domain is Domain.DISK:
        return separation_border(seq), None
    star, border = decompose(seq, split_a)
    return separation_border(border), separation_puncture(star)


def _sweep_part(side: _Side, pts, given, grid, mesh) -> _Part:
    """The _Part of one side's points: the given centers, else the side's own, and their numerators.

    The grid is checked first: it must hold a radius, each in side.radii.
    """
    if not grid:
        raise DomainViolation(f"the r grid has no radius for the {side.kind} part")
    for r in grid:
        _check_radius(r, side.radii, f"{side.kind} quotient")
    # a copy, made read-only below: a patched or traced center_net may keep the array it returns
    ctrs = np.array(side.centers(pts, mesh), dtype=complex) if given is None else given
    admits = side.admits(ctrs, grid)
    if admits is None:
        # one call, and no cell indexed
        groups = [((slice(None), slice(None)), ctrs, range(len(grid)))]
    else:
        # the centers with the same admitted radii share their calls; those
        # are the radii of the grid below a bound, so their count names them
        counts = admits.sum(axis=1)
        groups = []
        for count in sorted(set(counts.tolist()) - {0}):
            ks = np.flatnonzero(counts == count)
            cols = np.flatnonzero(admits[ks[0]]).tolist()
            groups.append(((ks[:, None], cols), ctrs[ks], cols))
    numers, nearest = np.empty((ctrs.size, len(grid))), np.full(len(pts), math.inf)
    for cells, centers, cols in groups:
        numers[cells], near = _numerators(side, pts, centers, [grid[j] for j in cols])
        np.minimum(nearest, near, out=nearest)
    for a in (ctrs, numers, nearest, *(centers for _, centers, _ in groups)):
        a.flags.writeable = False
    return _Part(side, ctrs, admits, numers, nearest, tuple(groups))


def _sequence_half(seq: SequenceSet, grids, given, mesh, split_a) -> _SequenceHalf:
    """The sequence half of a sweep of seq: the one seq keeps when its key matches, else a new one that replaces it.

    A new half is built with the module's functions as they are when it
    runs.  mesh and split_a must lie in (0, 1), and the explicit centers
    given, if not None, be a non-empty 1-D complex array of disk points
    that the half may keep, before the call; each swept part's grid is
    checked before its centers are taken.
    """
    key = (mesh, split_a, *grids, None if given is None else (given.shape, given.tobytes()))
    half = seq._sweep_half
    if half is not None and half.key == key:
        return half
    if seq.domain is Domain.DISK:
        parts = ((_BORDER, seq.array(), given), None)
    else:
        # a punctured-disk part with no points is not swept; explicit
        # centers go to the border part only
        star, border = decompose(seq, split_a)
        parts = ((_BORDER, border.array(), given) if len(border) else None,
                 (_PUNCTURE, star.array(), None) if len(star) else None)
    swept = tuple(None if part is None else _sweep_part(*part, grid, mesh) for part, grid in zip(parts, grids))
    n_centers, coverage_radius, notes = 0, None, ()
    if swept[0] is not None:
        # the coverage of the puncture part waits for a net of the cover
        n_centers, nearest = swept[0].centers.size, swept[0].nearest
        coverage_radius = float(nearest.max()) if nearest.size else None
        if given is None and n_centers == CENTER_CAP:
            notes = (f"center net reached its cap of {CENTER_CAP} centers; coverage radius {coverage_radius:.3f}",)
    half = _SequenceHalf(key, _separations(seq, split_a), swept, n_centers, coverage_radius, notes)
    object.__setattr__(seq, "_sweep_half", half)
    return half


def _weight_half(domain, half: _SequenceHalf, weight: WeightModel, grids) -> SweepResult:
    """The SweepResult of a sequence half under a weight: its denominators, blocks, sups and estimates.

    grids are the call's own, equal to those of the half's key; the radii
    of the blocks, notes and denominators are read from them, so a note
    prints a radius as this call gave it (4 and 4.0 make one key).
    """
    blocks, notes, skipped, n_degenerate = [], list(half.notes), [], 0
    estimates = {}
    for kind, part, grid in zip(("border", "puncture"), half.parts, grids):
        if part is None:
            # an empty punctured-disk part estimates 0; the disk has no puncture part
            estimates[kind] = (None if domain is Domain.DISK else 0.0, True)
            continue
        denoms = np.empty((part.centers.size, len(grid)))
        for cells, centers, cols in part.groups:
            denoms[cells] = part.side.denominators(weight, centers, [grid[j] for j in cols])
        # one block per radius with centers (views where every center admits
        # every radius); the estimate is the sup of the nondegenerate
        # quotients at the largest such radius, and 0 where every one is
        # degenerate
        sups = []
        for j, r in enumerate(grid):
            sel = slice(None) if part.admits is None else part.admits[:, j]
            ns, ds = part.numerators[sel, j], denoms[sel, j]
            if not ns.size:
                notes.append(f"no admissible center lifts at r = {r}")
                skipped.append(float(r))
                continue
            blocks.append(_Block(kind, r, part.centers[sel], ns, ds))
            ok = ds > 0.0
            n_degenerate += ok.size - int(np.count_nonzero(ok))
            sups.append((r, float((ns[ok] / ds[ok]).max()) if ok.any() else 0.0))
        sups = [sup for _, sup in sorted(sups)]
        estimates[kind] = (sups[-1], all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))) if sups else (None, True)
    if weight.domain is Domain.DISK and weight.constant_poincare_ratio is None and not weight.phi_matches_curvature:
        notes.append("phi did not match lap_poincare_ratio at custom_weight's check:"
                     " the border denominators are 2-D integrals of the ratio")
    (border_est, dec_b), (punct_est, dec_p) = estimates["border"], estimates["puncture"]
    # the border part, swept or not, always has an estimate
    estimate = max(e for e in (border_est, punct_est) if e is not None)
    return SweepResult(
        estimate, border_est, punct_est, dec_b and dec_p, n_degenerate > 0, tuple(notes),
        half.n_centers, half.coverage_radius, tuple(skipped), n_degenerate, tuple(blocks),
    )


def density_sweep(
    seq: SequenceSet,
    weight: WeightModel,
    r_grid=None,
    centers=None,
    mesh=0.3,
    split_a=DEFAULT_SPLIT,
) -> SweepResult:
    """Grid approximation of the upper density from the quotients at each (center, r).

    Disk sequences sweep the border quotient only.  Punctured-disk
    sequences are decomposed at split_a and both parts are swept; the
    estimate is the max of the two per the split definition of density.
    r_grid None sweeps each side's built-in grid; an explicit grid goes to
    the border part whole on the disk, split at r = 1 on the punctured
    disk, and must leave each swept part at least one radius.  An explicit
    list of centers must be a non-empty 1-D list of disk points, and
    replaces the center net of the border part only: the puncture part
    takes its points' own lifts.
    split_a and mesh must lie in (0, 1) whatever the domain.  The weight
    must live on the sequence's domain, else DomainViolation.

    A sweep has two halves.  The sequence half (_sequence_half) depends on
    the points alone: the decomposition, the separations, each part's
    centers and admitted radii, the numerators and the coverage.  seq
    keeps the last one it computed (see SequenceSet), so a sweep of the
    same SequenceSet under another weight, with the same mesh, split_a,
    grids and centers, computes only the weight half (_weight_half): the
    denominators, the blocks, the sups and the estimates.  The quotients
    stay arrays: one block of read-only columns per side and radius.  The
    result builds its DensityReports only when `reports` is read (see
    SweepResult).
    """
    if weight.domain is not seq.domain:
        raise DomainViolation(f"the weight lives on the {weight.domain.value}, the sequence on the {seq.domain.value}")
    _check_unit_interval(split_a, "split modulus")
    _check_unit_interval(mesh, "mesh")
    if centers is not None:
        need = "the centers must be a non-empty 1-D list of disk points"
        try:
            # a copy, which the sequence half keeps
            centers = np.array(centers, dtype=complex)
        except (TypeError, ValueError):
            raise DomainViolation(f"{need}, got {centers!r}") from None
        if centers.ndim != 1 or not centers.size:
            raise DomainViolation(f"{need}, got an array of shape {centers.shape}")
        _check_domain(centers, name="centers")
    grids = _grids(seq.domain, r_grid)
    return _weight_half(seq.domain, _sequence_half(seq, grids, centers, mesh, split_a), weight, grids)


# ---------------------------------------------------------------------------
# Classification.

def classify(seq: SequenceSet, weight: WeightModel, params: ClassifyParams = ClassifyParams()) -> ClassificationVerdict:
    """Decide Interpolating / NotInterpolating / Indeterminate.

    Interpolating needs every separation radius above the numerical floor
    and the density estimate at most 1 - delta.  NotInterpolating needs a
    failed separation, a border estimate at least 1 + delta, or a
    puncture estimate strictly above 1 + delta under a weight that meets
    the strict cylindrical lower bound (hypothesis flag puncture_strict).
    Everything else, or any degenerate denominator or failed weight
    hypothesis, is Indeterminate.

    The separations and the sweep come from the sequence half that seq
    keeps for params' mesh, split_a and grids (see density_sweep), so a
    second classify of the same SequenceSet under another weight computes
    only the weight half.  A weight that fails a hypothesis flag sweeps
    nothing and leaves the kept half as it is.
    """
    reasons = []
    if weight.domain is not seq.domain:
        return ClassificationVerdict(
            "Indeterminate", math.nan, None, None, None, params,
            ("weight and sequence live on different domains",),
        )

    flags = weight.hypothesis_flags
    if flags and not flags.get("border_lower", True):
        reasons.append("weight fails the border curvature lower bound")
    if seq.domain is Domain.PUNCTURED_DISK and flags and not flags.get("puncture_weak", True):
        reasons.append("weight fails Delta phi >= 4 omega_P near the puncture")
    if reasons:
        return ClassificationVerdict(
            "Indeterminate", *_separations(seq, params.split_a), None, None, params, tuple(reasons)
        )

    grids = _grids(seq.domain, params.r_grid)
    half = _sequence_half(seq, grids, None, params.mesh, params.split_a)
    sep_b, sep_p = half.separations
    sweep = _weight_half(seq.domain, half, weight, grids)
    d_b, d_p = sweep.border_estimate, sweep.puncture_estimate

    seps = [s for s in (sep_b, sep_p) if s is not None]
    sep_ok = all(s > SEPARATION_FLOOR for s in seps)
    if not sep_ok:
        reasons.append("separation below the numerical floor")
        verdict = "NotInterpolating"
    elif sweep.degenerate:
        reasons.append("degenerate density denominator")
        verdict = "Indeterminate"
    elif d_b is not None and d_b >= 1.0 + params.delta:
        reasons.append(f"border density estimate {d_b:.4f} >= 1 + delta")
        verdict = "NotInterpolating"
    elif d_p is not None and d_p > 1.0 + params.delta:
        reasons.append(f"puncture density estimate {d_p:.4f} > 1 + delta")
        if flags.get("puncture_strict", True):
            verdict = "NotInterpolating"
        else:
            # necessity needs the strict bound; without it the quotients are
            # degenerate near the puncture and decide nothing
            reasons.append("weight fails the strict cylindrical lower bound near the puncture,"
                           " so the puncture estimate does not show non-interpolation")
            verdict = "Indeterminate"
    else:
        # on the punctured disk, d_p is None when the puncture part has
        # points but no admissible center lift: its density is unestimated,
        # which blocks a positive verdict
        punct_missing = seq.domain is Domain.PUNCTURED_DISK and d_p is None
        below = max(d_b or 0.0, d_p or 0.0) <= 1.0 - params.delta
        if below and not punct_missing:
            verdict = "Interpolating"
        else:
            reasons.append("density estimate inside the indeterminate band")
            verdict = "Indeterminate"
    return ClassificationVerdict(verdict, sep_b, sep_p, d_b, d_p, params, tuple(reasons), sweep)


# ---------------------------------------------------------------------------
# Test-sequence factory.

def _disk_candidates(seed, rmax):
    """The candidates of a hyperbolic-disk lattice, in chunks that double
    from sqrt(_BLOCK_NODES) to _BLOCK_NODES: the origin, then _CANDIDATES
    points uniform in hyperbolic area up to pseudohyperbolic radius rmax,
    rho = sqrt(u s / (1 + u s)) and theta = 2 pi v.

    u is the first _CANDIDATES draws of default_rng(seed) and v the next
    _CANDIDATES: v comes from a second generator advanced that far, so a
    chunk is drawn only when the greedy reaches it (a 24-point lattice at
    margin 0.1 reaches about 40 candidates, within the first chunk of 65,
    and the 300-point lattice of seed 11 at margin 0.02 candidate 1 073 of
    the first 1 985), and every array stays below glibc's default mmap
    threshold (128 KiB).  The points are the same bit for bit as from one
    draw of all 2 _CANDIDATES numbers.
    """
    u_gen = np.random.Generator(np.random.PCG64(seed))
    v_gen = np.random.Generator(np.random.PCG64(seed).advance(_CANDIDATES))
    s_max = rmax * rmax / (1.0 - rmax * rmax)
    i, m = 0, math.isqrt(_BLOCK_NODES)
    while i < _CANDIDATES:
        m = min(m, _BLOCK_NODES, _CANDIDATES - i)
        chunk = np.zeros(m + (i == 0), dtype=complex)
        ring = chunk[chunk.size - m:]
        np.multiply(v_gen.random(m), 1j * TWO_PI, out=ring)
        np.exp(ring, out=ring)
        u = u_gen.random(m) * s_max
        ring *= np.sqrt(u / (1.0 + u))
        yield _check_domain(chunk, name="candidates")
        i += m
        m *= 2


def generate_lattice(kind, count, seed=0, **kw) -> SequenceSet:
    """Deterministic test sequences.

    kind "hyperbolic-disk": greedy maximal d-separated set (mesh d = kw["d"])
    in the pseudohyperbolic metric inside |z| <= 1 - margin; raises
    BergseqError when the candidates run out before `count` points fit.
    kind "puncture-exponential": {e^{-k s} e^{2 pi i j / n}} ordered by k;
    raises ValueError unless every ring e^{-k s}, k = 1 .. ceil(count / n),
    lies strictly between 0 and 1 in floating point.
    count must be an integer >= 0; anything else raises ValueError.
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise ValueError(f"the point count must be an integer >= 0, got {count!r}")
    if kind == "hyperbolic-disk":
        d = kw["d"]
        margin = kw.get("margin", 0.05)
        if not 0.0 < d < 1.0:
            raise ValueError(f"the mesh d must lie in (0, 1), got {d}")
        # below 2**-50 (8.9e-16) the largest candidate radius 1 - margin is
        # within a few ulps of 1, and rounding can put a candidate on the circle
        if not 2.0 ** -50 < margin < 1.0:
            raise ValueError(f"the margin must lie in (0, 1), and exceed 2**-50, got {margin}")
        chosen = _greedy_chunks(_disk_candidates(seed, 1.0 - margin), _CANDIDATES + 1, d, count)
        if len(chosen) < count:
            raise BergseqError(
                f"hyperbolic-disk lattice: asked for {count} points, placed {len(chosen)}"
                f" (d = {d}, margin = {margin})"
            )
        return SequenceSet(tuple(chosen), Domain.DISK, f"hyperbolic-disk d={d}")
    if kind == "puncture-exponential":
        s = kw["s"]
        n = kw.get("n", 1)
        # neither the first ring nor the deepest, k = ceil(count / n), may round to 1 or 0
        if not (s > 0 and isinstance(n, numbers.Integral) and n >= 1
                and math.exp(-s) < 1.0 and math.exp(-max(1, -(-count // n)) * s) > 0.0):
            raise ValueError(f"need s > 0 and an integer n >= 1, with every ring e^(-k s), k <= ceil(count / n),"
                             f" strictly between 0 and 1, got s = {s!r}, n = {n!r}")
        # point i lies on ring k = i // n + 1 and ray j = i % n
        pts = [math.exp(-(i // n + 1) * s) * complex(math.cos(TWO_PI * (i % n) / n), math.sin(TWO_PI * (i % n) / n))
               for i in range(count)]
        return SequenceSet(tuple(pts), Domain.PUNCTURED_DISK, f"puncture-exponential s={s} n={n}")
    raise ValueError(f"unknown lattice kind {kind!r}")
