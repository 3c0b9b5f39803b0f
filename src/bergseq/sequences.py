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
from .quadrature import DEFAULT_RULE, QuadratureRule
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
    """A finite stand-in for a closed discrete subset of the domain."""

    points: tuple
    domain: Domain
    label: str = ""

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        _check_domain(pts, self.domain, "points")
        if len(set(pts)) != len(pts):
            raise DomainViolation("sequence points must be pairwise distinct")

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
    rule: QuadratureRule = DEFAULT_RULE

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
    """Least dist over the pairs of checked points.

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


def separation_border(seq: SequenceSet):
    """Half the minimal pairwise distance, pseudohyperbolic on the disk,
    hyperbolic (disk-wise) for punctured-disk border parts."""
    if seq.domain is Domain.DISK:
        return 0.5 * _min_pairwise(seq.points, lambda z, w: np.abs(_mobius(z, w)))
    return 0.5 * _min_pairwise(seq.points, lambda z, w: _hyperbolic(np.abs(_mobius(z, w))))


def separation_puncture(seq: SequenceSet):
    """Half the minimal pairwise cylindrical distance."""
    return 0.5 * _min_pairwise(seq.points, _cylindrical)


# ---------------------------------------------------------------------------
# Density quotients.

@dataclass(frozen=True)
class _Side:
    """One side of the density quotient, the geometry that _quotients takes.

    The annulus is (inner, r), r in the open range `radii`.  prepare
    checks the points, and on the cover lifts them.  dists(prepared,
    centers, r) has shape (centers, points, 2 span(r) + 1): on the cover
    each point's translates in the window for r (see weights._window), on
    the disk the point itself.  denominators(weight, centers, radii, rule)
    gives the curvature masses, one row per center.
    """

    kind: str
    inner: float
    radii: tuple
    prepare: Callable
    dists: Callable
    span: Callable
    denominators: Callable


# These lambdas look their module globals up at call time, so that a
# patched _mobius or _lifted_points reaches them.  The border masses come from circle means of phi when phi passed
# custom_weight's check, else in closed form or by 2-D quadrature of
# lap_poincare_ratio (see weights._curvature_masses).
_BORDER = _Side("border", 0.5, _BORDER_RADII, lambda points: _check_domain(points, name="points"),
                lambda pts, centers, r: np.abs(_mobius(centers[:, None], pts))[..., None], lambda r: 0,
                lambda weight, *args: (_phi_masses if weight.phi_matches_curvature else _curvature_masses)(
                    weight, *args, less=2.0))
_PUNCTURE = _Side("puncture", 1.0, _PUNCTURE_RADII, lambda points: _lifted_points(points),
                  lambda w, lifts, r: np.abs(_window(w, lifts, r) - lifts[:, None, None]), _span,
                  _puncture_denominators)


def _quotients(side: _Side, points, weight: WeightModel, centers, radii, rule):
    """(numerators, denominators, nearest) of one side's density quotients: one row per center, one column per radius.

    Numerator (k, j) is 2 pi times the sum of log(r^2/rho^2), r = radii[j],
    over the distances rho from centers[k] in (side.inner, r), summed by
    weights._annulus_sums, and denominator (k, j) the curvature mass that
    side.denominators gives there (see _Block for the ratio).  The
    distances are taken a block of centers at a time (see _block_rows),
    in the widest radius's window, and a smaller radius reads its middle
    2 span(r) + 1 translate columns: they are its own window bit for bit,
    so each sum is the one a single center and radius would give.  Every
    route to the denominators returns a float array of that shape too.
    nearest is each prepared point's least distance to a center (on the
    cover, of its translates in the widest window).
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
    return numers, side.denominators(weight, ctrs, radii, rule), nearest


def _report(side: _Side, points, weight: WeightModel, center, r, rule) -> DensityReport:
    """The DensityReport of one side's quotient at one center and radius."""
    numers, denoms, _ = _quotients(side, points, weight, [center], (r,), rule)
    return DensityReport(*next(_Block(side.kind, r, [center], numers[:, 0], denoms[:, 0]).rows()))


def border_density_ratio(seq, weight: WeightModel, z, r, rule=DEFAULT_RULE) -> DensityReport:
    """Point-count vs curvature-mass quotient at one (center, radius).

    Numerator: 2 pi sum of log(r^2/rho^2) over sequence points with
    phi_z image in 1/2 < rho < r.  Denominator: the log-kernel mass of
    Delta phi - 2 omega_P over D_r(z), pulled back through phi_z: a
    circle mean of phi when phi passed custom_weight's check, else a
    closed form or a 2-D integral of the ratio.  It is the sweep's
    quotient at one center and radius (see _quotients).
    """
    _check_radius(r, _BORDER_RADII, "border quotient")
    _check_domain(z)
    pts = seq.array() if isinstance(seq, SequenceSet) else seq
    return _report(_BORDER, pts, weight, z, r, rule)


def _admissible(q, r):
    """Whether the puncture quotient at the lift q and radius r is taken: Im q > r + 1.

    D_r(q) then stays a unit above the real axis, in the part of the cover
    where the limsup at the puncture is taken.
    """
    return q.imag > r + 1.0


def puncture_density_ratio(seq, weight: WeightModel, q, r, rule=DEFAULT_RULE) -> DensityReport:
    """Cylindrical density quotient at a lift q of the center.

    Numerator: 2 pi sum of log(r^2/d^2) over lifted sequence points in
    the open annulus 1 < d < r about q.  Denominator: the Euclidean
    log-kernel mass over D_r(q) of the cylindrical curvature density of
    the shifted weight psi = phi + 2 log log(1/|z|^2), lifted through the
    cover, computed as 2 pi times the mean of psi(e^{iw}) - psi(e^{iq})
    over the circle |w - q| = r (see weights._puncture_denominators).  It
    is the sweep's quotient at one lift and radius (see _quotients), and
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
    return _report(_PUNCTURE, pts, weight, q, r, rule)


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
    block of candidates is screened against every kept point at once, and
    the block shrinks as points are kept, so that it holds at most
    _BLOCK_NODES distances (and at most sqrt(_BLOCK_NODES) candidates).
    The conflicts among the block's survivors are then settled in
    candidate order: each survivor's row of "closer than sep to another
    survivor" is packed into a Python int and tested against the bits of
    the survivors kept so far.  Every distance is |phi_c(w)| of a
    candidate c and an earlier point w, compared by `>= sep`, as one
    candidate at a time would; so the result is the same bit for bit.
    """
    kept = np.empty(min(size, limit), dtype=complex)
    widest = math.isqrt(_BLOCK_NODES)
    k = 0
    for cands in chunks:
        i = 0
        while i < cands.size and k < limit:
            block = cands[i:i + min(widest, _block_rows(k))]
            i += block.size
            if k:
                block = block[(np.abs(_mobius(block[:, None], kept[:k])) >= sep).all(axis=1)]
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
    0 < mesh < 1.
    """
    _check_unit_interval(mesh, "mesh")
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


def _side_grid(grid, side: _Side):
    """One side's radii, each checked against that side's range."""
    if not grid:
        raise DomainViolation(f"the r grid has no radius for the {side.kind} part")
    for r in grid:
        _check_radius(r, side.radii, f"{side.kind} quotient")
    return grid


def density_sweep(
    seq: SequenceSet,
    weight: WeightModel,
    r_grid=None,
    centers=None,
    mesh=0.3,
    split_a=DEFAULT_SPLIT,
    rule=DEFAULT_RULE,
) -> SweepResult:
    """Grid approximation of the upper density from the quotients at each (center, r).

    Disk sequences sweep the border quotient only.  Punctured-disk
    sequences are decomposed at split_a and both parts are swept; the
    estimate is the max of the two per the split definition of density.
    r_grid None sweeps each side's built-in grid; an explicit grid goes to
    the border part whole on the disk, split at r = 1 on the punctured
    disk, and must leave each swept part at least one radius.  An explicit
    list of centers must not be empty.  split_a and mesh must lie in
    (0, 1) whatever the domain.  The weight must live on the sequence's
    domain, else DomainViolation.

    The quotients stay arrays: one block of columns per side and radius,
    from which the sups, the estimates and the degenerate count are taken
    with numpy.  The result builds its DensityReports only when `reports`
    is read (see SweepResult).
    """
    if weight.domain is not seq.domain:
        raise DomainViolation(f"the weight lives on the {weight.domain.value}, the sequence on the {seq.domain.value}")
    _check_unit_interval(split_a, "split modulus")
    _check_unit_interval(mesh, "mesh")
    if centers is not None:
        if not len(centers):
            raise DomainViolation("the center list is empty")
        _check_domain(centers, name="centers")
    blocks, notes, skipped = [], [], []
    n_centers, coverage_radius, n_degenerate = 0, None, 0
    if r_grid is None:
        border_grid, puncture_grid = BORDER_R_GRID, PUNCTURE_R_GRID
    else:
        disk = seq.domain is Domain.DISK
        border_grid = tuple(r for r in r_grid if disk or r < 1.0)
        puncture_grid = tuple(r for r in r_grid if not r < 1.0)

    def side_estimate(kind, grid, columns):
        """(estimate, decreasing) of one side from its (centers, numerators, denominators) at each radius of grid.

        Each radius with centers adds one block; the estimate is the sup of
        the nondegenerate quotients at the largest radius with centers (only
        a puncture radius can have none), and 0 where every one is
        degenerate.
        """
        nonlocal n_degenerate
        sups = []
        for r, (ctrs, numers, denoms) in zip(grid, columns):
            if not ctrs.size:
                notes.append(f"no admissible center lifts at r = {r}")
                skipped.append(float(r))
                continue
            blocks.append(_Block(kind, r, ctrs, numers, denoms))
            ok = denoms > 0.0
            n_degenerate += ok.size - int(np.count_nonzero(ok))
            sups.append((r, float((numers[ok] / denoms[ok]).max()) if ok.any() else 0.0))
        if not sups:
            return None, True
        sups = [sup for _, sup in sorted(sups)]
        return sups[-1], all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))

    def run_border(part_points):
        nonlocal n_centers, coverage_radius
        grid = _side_grid(border_grid, _BORDER)
        # a copy: the result keeps the centers, which the caller may change
        ctrs = np.array(centers if centers is not None else center_net(part_points, mesh), dtype=complex)
        numers, denoms, nearest = _quotients(_BORDER, part_points, weight, ctrs, grid, rule)
        n_centers = len(ctrs)
        coverage_radius = float(nearest.max()) if nearest.size else None
        if centers is None and n_centers == CENTER_CAP:
            notes.append(f"center net reached its cap of {CENTER_CAP} centers;"
                         f" coverage radius {coverage_radius:.3f}")
        if (weight.domain is Domain.DISK and weight.constant_poincare_ratio is None
                and not weight.phi_matches_curvature):
            notes.append("phi did not match lap_poincare_ratio at custom_weight's check:"
                         " the border denominators are 2-D integrals of the ratio")
        return side_estimate("border", grid, [(ctrs, numers[:, j], denoms[:, j]) for j in range(len(grid))])

    def run_puncture(part_points):
        grid = _side_grid(puncture_grid, _PUNCTURE)
        lifts = np.atleast_1d(lift_value(part_points))
        admissible = _admissible(lifts[:, None], np.asarray(grid, dtype=float))
        numers, denoms = np.empty(admissible.shape), np.empty(admissible.shape)
        # the lifts with the same admissible radii share their calls; those
        # are the radii below Im q - 1, so their count names them
        counts = admissible.sum(axis=1)
        for count in range(1, len(grid) + 1):
            ks = np.flatnonzero(counts == count)
            if ks.size:
                row = admissible[ks[0]]
                radii = tuple(r for r, ok in zip(grid, row) if ok)
                cells = ks[:, None], np.flatnonzero(row)
                numers[cells], denoms[cells], _ = _quotients(_PUNCTURE, part_points, weight, lifts[ks], radii, rule)
        return side_estimate("puncture", grid, [(lifts[a], numers[a, j], denoms[a, j])
                                                for j, a in enumerate(admissible.T)])

    if seq.domain is Domain.DISK:
        border_est, decreasing = run_border(seq.array())
        punct_est = None
    else:
        star, border = decompose(seq, split_a)
        border_est, dec_b = run_border(border.array()) if len(border) else (0.0, True)
        punct_est, dec_p = run_puncture(star.array()) if len(star) else (0.0, True)
        decreasing = dec_b and dec_p

    cands = [e for e in (border_est, punct_est) if e is not None]
    estimate = max(cands) if cands else math.inf
    return SweepResult(
        estimate, border_est, punct_est, decreasing, n_degenerate > 0, tuple(notes),
        n_centers, coverage_radius, tuple(skipped), n_degenerate, tuple(blocks),
    )


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
    """
    reasons = []
    if weight.domain is not seq.domain:
        return ClassificationVerdict(
            "Indeterminate", math.nan, None, None, None, params,
            ("weight and sequence live on different domains",),
        )

    if seq.domain is Domain.DISK:
        sep_b = separation_border(seq)
        sep_p = None
    else:
        star, border = decompose(seq, params.split_a)
        sep_b = separation_border(border)
        sep_p = separation_puncture(star)

    flags = weight.hypothesis_flags
    if flags and not flags.get("border_lower", True):
        reasons.append("weight fails the border curvature lower bound")
    if seq.domain is Domain.PUNCTURED_DISK and flags and not flags.get("puncture_weak", True):
        reasons.append("weight fails Delta phi >= 4 omega_P near the puncture")
    if reasons:
        return ClassificationVerdict(
            "Indeterminate", sep_b, sep_p, None, None, params, tuple(reasons)
        )

    sweep = density_sweep(
        seq,
        weight,
        r_grid=params.r_grid,
        mesh=params.mesh,
        split_a=params.split_a,
        rule=params.rule,
    )
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
    """The candidates of a hyperbolic-disk lattice, in chunks of at most
    _BLOCK_NODES + 1: the origin, then _CANDIDATES points uniform in
    hyperbolic area up to pseudohyperbolic radius rmax,
    rho = sqrt(u s / (1 + u s)) and theta = 2 pi v.

    u is the first _CANDIDATES draws of default_rng(seed) and v the next
    _CANDIDATES: v comes from a second generator advanced that far, so a
    chunk is drawn only when the greedy reaches it (a 300-point lattice
    takes about 1 100 candidates), and every array stays below glibc's
    default mmap threshold (128 KiB).  The points are the same bit for
    bit as from one draw of all 2 _CANDIDATES numbers.
    """
    u_gen = np.random.Generator(np.random.PCG64(seed))
    v_gen = np.random.Generator(np.random.PCG64(seed).advance(_CANDIDATES))
    s_max = rmax * rmax / (1.0 - rmax * rmax)
    for i in range(0, _CANDIDATES, _BLOCK_NODES):
        m = min(_BLOCK_NODES, _CANDIDATES - i)
        chunk = np.zeros(m + (i == 0), dtype=complex)
        ring = chunk[chunk.size - m:]
        np.multiply(v_gen.random(m), 1j * TWO_PI, out=ring)
        np.exp(ring, out=ring)
        u = u_gen.random(m) * s_max
        ring *= np.sqrt(u / (1.0 + u))
        yield _check_domain(chunk, name="candidates")


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
