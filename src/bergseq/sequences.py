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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BergseqError, DomainViolation, WindowViolation
from .geometry import Domain, TWO_PI, _check_domain, _check_finite, _cylindrical, _hyperbolic, _mobius, lift_value
from .quadrature import DEFAULT_RULE, QuadratureRule
from .quadrature import _BLOCK_NODES, _BORDER_RADII, _PUNCTURE_RADII, _check_radius
from .weights import WeightModel
from .weights import (_annulus_sums, _curvature_masses, _lift_dists, _lifted_points, _phi_masses,
                      _puncture_denominators, _span)

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


@dataclass(frozen=True)
class SweepResult:
    """Reports in (r, center) order per side, border side first.

    n_centers is the number of border-side centers swept, and
    coverage_radius the largest pseudohyperbolic distance from a
    border-part point to its nearest such center (None with no border
    part): the sup is taken over balls about those centers only.
    """

    reports: tuple
    estimate: float
    border_estimate: Optional[float]
    puncture_estimate: Optional[float]
    decreasing: bool
    degenerate: bool
    notes: tuple = ()
    n_centers: int = 0
    coverage_radius: Optional[float] = None


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

def _border_numerators(points, centers, radii):
    """The border numerators per (center, radius), and each point's distance to its nearest center.

    Numerator (k, j) is 2 pi times the sum of log(r^2/rho^2), r = radii[j],
    over the points whose pseudohyperbolic distance rho = |phi_z(gamma)|
    from z = centers[k] lies in the open annulus (1/2, r), summed by
    weights._annulus_sums.  The distances are taken a block of centers at
    a time (see _block_rows); each distance and each sum is the same as
    one center at a time would give.
    """
    pts = np.asarray(points, dtype=complex)
    ctrs = np.asarray(centers, dtype=complex)
    numers = np.empty((ctrs.size, len(radii)))
    nearest = np.full(pts.size, math.inf)
    rows = _block_rows(pts.size)
    for i in range(0, ctrs.size, rows):
        d = np.abs(_mobius(ctrs[i:i + rows, None], pts))
        np.minimum(nearest, d.min(axis=0, initial=math.inf), out=nearest)
        for j, r in enumerate(radii):
            numers[i:i + rows, j] = _annulus_sums(d, 0.5, r)
    return numers, nearest


def _puncture_numerators(w, lifts, radii):
    """The puncture numerators per (lift, radius) of the lifted points w.

    Numerator (k, j) is 2 pi times the sum of log(r^2/d^2), r = radii[j],
    over the translates at distance d from q = lifts[k] in the open
    annulus (1, r).  Each radius takes its own translate window (see
    weights._window), and each sum is the same as one lift and one radius
    at a time would give, a block of lifts at a time (see _block_rows).
    """
    numers = np.empty((len(lifts), len(radii)))
    for j, r in enumerate(radii):
        rows = _block_rows(w.size * (2 * _span(r) + 1))
        for i in range(0, len(lifts), rows):
            numers[i:i + rows, j] = _annulus_sums(_lift_dists(w, lifts[i:i + rows], r), 1.0, r)
    return numers


def _reports(centers, radii, numers, denoms, kind):
    """One list of DensityReports per center, radii in order; a denominator not > 0 is degenerate."""
    return [[DensityReport(complex(c), r, n, d, n / d if d > 0.0 else math.inf, kind, not d > 0.0)
             for r, n, d in zip(map(float, radii), map(float, ns), map(float, ds))]
            for c, ns, ds in zip(centers, numers, denoms)]


def _border_quotients(numers, weight: WeightModel, centers, radii, rule):
    """The border quotients at each center: one list of DensityReports per center, radii in order.

    numers[k] are the numerators at z = centers[k] (see
    _border_numerators); the denominators are the kernel masses of
    Delta phi / omega_P - 2 over D_r(z).  A weight whose phi passed
    custom_weight's check (phi_matches_curvature) takes them from circle
    means of phi, weights._phi_masses; every other one from
    weights._curvature_masses, in closed form under a declared constant
    curvature and else by 2-D quadrature of lap_poincare_ratio.
    """
    masses = _phi_masses if weight.phi_matches_curvature else _curvature_masses
    return _reports(centers, radii, numers, masses(weight, centers, radii, rule, less=2.0), "border")



def border_density_ratio(seq, weight: WeightModel, z, r, rule=DEFAULT_RULE) -> DensityReport:
    """Point-count vs curvature-mass quotient at one (center, radius).

    Numerator: 2 pi sum of log(r^2/rho^2) over sequence points with
    phi_z image in 1/2 < rho < r.  Denominator: the log-kernel mass of
    Delta phi - 2 omega_P over D_r(z), pulled back through phi_z: a
    circle mean of phi, a closed form or a 2-D integral of the ratio (see
    _border_quotients).
    """
    _check_radius(r, _BORDER_RADII, "border quotient")
    _check_domain(z)
    pts = seq.array() if isinstance(seq, SequenceSet) else _check_domain(seq, name="points")
    numers, _ = _border_numerators(pts, [z], (r,))
    return _border_quotients(numers, weight, [z], (r,), rule)[0][0]


def _admissible(q, r):
    """Whether the puncture quotient at the lift q and radius r is taken: Im q > r + 1.

    D_r(q) then stays a unit above the real axis, in the part of the cover
    where the limsup at the puncture is taken.
    """
    return q.imag > r + 1.0


def _puncture_quotients(points, weight: WeightModel, lifts, radii, rule):
    """The puncture quotients at each lift q, admissible at every radius: one list of DensityReports per lift.

    The numerators come from _puncture_numerators; the points are checked
    and lifted once, for every lift.  The denominators come from one
    circle-mean loop per radius over all the lifts (see
    weights._puncture_denominators): by Green's formula the kernel mass of
    psi's cylindrical curvature over D_r(q) is 2 pi times the mean of
    U - U(q) over the circle |w - q| = r, U = psi(e^{iw}).  Every
    admissible circle lies in Im w > 1, where U is real-analytic, so the
    trapezoid rule converges geometrically.  The lifts must be finite,
    and a lift so deep that U is not finite on its circle (|e^{iw}|^2
    underflows past Im w of about 354 for the standard weights) raises
    DomainViolation naming it.
    """
    numers = _puncture_numerators(_lifted_points(points), lifts, radii)
    denoms = np.transpose([_puncture_denominators(weight, lifts, r, rule) for r in radii])
    return _reports(lifts, radii, numers, denoms, "puncture")


def puncture_density_ratio(seq, weight: WeightModel, q, r, rule=DEFAULT_RULE) -> DensityReport:
    """Cylindrical density quotient at a lift q of the center.

    Numerator: 2 pi sum of log(r^2/d^2) over lifted sequence points in
    the open annulus 1 < d < r about q.  Denominator: the Euclidean
    log-kernel mass over D_r(q) of the cylindrical curvature density of
    the shifted weight psi = phi + 2 log log(1/|z|^2), lifted through the
    cover, computed as 2 pi times the mean of psi(e^{iw}) - psi(e^{iq})
    over the circle |w - q| = r (see _puncture_quotients).  It takes the
    lifts a density sweep takes, Im q > r + 1 (see _admissible), and
    raises WindowViolation for any other before any sampling;
    DomainViolation if q is not finite, or so deep that psi is not finite
    on the circle.
    """
    _check_radius(r, _PUNCTURE_RADII, "puncture quotient")
    q = complex(_check_finite(q, "the lift q"))
    if not _admissible(q, r):
        raise WindowViolation(f"a puncture quotient needs a lift with Im q > r + 1 = {r + 1.0:g},"
                              f" got Im q = {q.imag:g}")
    pts = seq.array() if isinstance(seq, SequenceSet) else np.asarray(seq, dtype=complex)
    return _puncture_quotients(pts, weight, [q], (r,), rule)[0][0]


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


def _side_grid(grid, radii, kind):
    """One side's radii, each checked against that side's range."""
    if not grid:
        raise DomainViolation(f"the r grid has no radius for the {kind} part")
    for r in grid:
        _check_radius(r, radii, f"{kind} quotient")
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
    """Grid approximation of the upper density with per-(center, r) reports.

    Disk sequences sweep the border quotient only.  Punctured-disk
    sequences are decomposed at split_a and both parts are swept; the
    estimate is the max of the two per the split definition of density.
    r_grid None sweeps each side's built-in grid; an explicit grid goes to
    the border part whole on the disk, split at r = 1 on the punctured
    disk, and must leave each swept part at least one radius.  An explicit
    list of centers must not be empty.  split_a and mesh must lie in
    (0, 1) whatever the domain.
    """
    _check_unit_interval(split_a, "split modulus")
    _check_unit_interval(mesh, "mesh")
    if centers is not None:
        if not len(centers):
            raise DomainViolation("the center list is empty")
        _check_domain(centers, name="centers")
    reports = []
    notes = []
    n_centers, coverage_radius = 0, None
    if r_grid is None:
        border_grid, puncture_grid = BORDER_R_GRID, PUNCTURE_R_GRID
    else:
        disk = seq.domain is Domain.DISK
        border_grid = tuple(r for r in r_grid if disk or r < 1.0)
        puncture_grid = tuple(r for r in r_grid if not r < 1.0)

    def side_estimate(grid, by_radius):
        """(estimate, decreasing) of one side from its reports per radius of grid, each in center order.

        The reports go out (r, center)-major; the estimate is the sup of the
        nondegenerate quotients at the largest radius with reports (only a
        puncture radius can have none).
        """
        sups = []
        for r, reps in zip(grid, by_radius):
            if not reps:
                notes.append(f"no admissible center lifts at r = {r}")
                continue
            reports.extend(reps)
            sups.append((r, max((rep.ratio for rep in reps if not rep.degenerate), default=0.0)))
        if not sups:
            return None, True
        sups = [sup for _, sup in sorted(sups)]
        return sups[-1], all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))

    def run_border(part_points):
        nonlocal n_centers, coverage_radius
        grid = _side_grid(border_grid, _BORDER_RADII, "border")
        ctrs = centers if centers is not None else center_net(part_points, mesh)
        numers, nearest = _border_numerators(part_points, ctrs, grid)
        per_center = _border_quotients(numers, weight, ctrs, grid, rule)
        n_centers = len(ctrs)
        coverage_radius = float(nearest.max()) if nearest.size else None
        if centers is None and n_centers == CENTER_CAP:
            notes.append(f"center net reached its cap of {CENTER_CAP} centers;"
                         f" coverage radius {coverage_radius:.3f}")
        if (weight.domain is Domain.DISK and weight.constant_poincare_ratio is None
                and not weight.phi_matches_curvature):
            notes.append("phi did not match lap_poincare_ratio at custom_weight's check:"
                         " the border denominators are 2-D integrals of the ratio")
        return side_estimate(grid, zip(*per_center))

    def run_puncture(part_points):
        grid = _side_grid(puncture_grid, _PUNCTURE_RADII, "puncture")
        lifts = np.atleast_1d(lift_value(part_points))
        # the lifts with the same admissible radii share their calls
        admissible = [tuple(r for r in grid if _admissible(q, r)) for q in lifts]
        per_lift = [{} for _ in lifts]
        for radii in dict.fromkeys(a for a in admissible if a):
            ks = [k for k, a in enumerate(admissible) if a == radii]
            for k, reps in zip(ks, _puncture_quotients(part_points, weight, lifts[ks], radii, rule)):
                per_lift[k] = dict(zip(radii, reps))
        return side_estimate(grid, [[reps[r] for reps in per_lift if r in reps] for r in grid])

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
    degenerate = any(rep.degenerate for rep in reports)
    return SweepResult(
        tuple(reports), estimate, border_est, punct_est, decreasing, degenerate, tuple(notes),
        n_centers, coverage_radius,
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
