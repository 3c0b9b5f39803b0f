"""Sequence-level analysis: separation, density quotients, classification.

The infinite-dimensional sup/limsup of the density criteria are
approximated on finite grids: radii from a fixed grid, centers from a
greedy separated net covering the sequence hull plus one mesh margin.
The verdict honors the asymmetry of the criteria: sufficiency needs the
estimate clearly below 1, necessity-side failure needs it clearly above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BergseqError, DomainViolation, WindowViolation
from .geometry import (
    Domain,
    TWO_PI,
    cyl_dist,
    hyp_dist,
    lift_value,
    mobius_involution,
    pseudo_dist,
)
from .quadrature import DEFAULT_RULE, QuadratureRule, a_r_hyperbolic, disk_log_integral, polar_integral
from .quadrature import _BORDER_RADII, _PUNCTURE_RADII, _check_radius, _euclid_weight, _log_kernel
from .weights import WeightModel, shifted_cyl_weight
from .weights import _annulus_sum, _covered_integrand, _disk_dists, _translate_dists

BORDER_R_GRID = (0.90, 0.95, 0.975, 0.99)
PUNCTURE_R_GRID = (4.0, 8.0, 16.0)
DEFAULT_SPLIT = 0.5
SEPARATION_FLOOR = 1e-6


@dataclass(frozen=True)
class SequenceSet:
    """A finite stand-in for a closed discrete subset of the domain."""

    points: tuple
    domain: Domain
    label: str = ""

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for i, p in enumerate(pts):
            r = abs(p)
            if not r < 1.0:
                raise DomainViolation(f"point {i} has |z| = {r} >= 1")
            if self.domain is Domain.PUNCTURED_DISK and r == 0.0:
                raise DomainViolation(f"point {i} is the puncture")
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
    reports: tuple
    estimate: float
    border_estimate: Optional[float]
    puncture_estimate: Optional[float]
    decreasing: bool
    degenerate: bool
    notes: tuple = ()


@dataclass(frozen=True)
class ClassifyParams:
    r_grid: Optional[Sequence[float]] = None  # None: each side's built-in grid
    split_a: float = DEFAULT_SPLIT
    delta: float = 0.05
    eps: float = 0.1
    mesh: float = 0.3
    rule: QuadratureRule = DEFAULT_RULE

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")


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

def decompose(seq: SequenceSet, a: float):
    """Split a punctured-disk sequence at modulus a (|gamma| = a goes inward)."""
    if seq.domain is not Domain.PUNCTURED_DISK:
        raise DomainViolation("decompose applies to punctured-disk sequences")
    star = tuple(p for p in seq.points if abs(p) <= a)
    border = tuple(p for p in seq.points if abs(p) > a)
    return (
        SequenceSet(star, seq.domain, seq.label + "*"),
        SequenceSet(border, seq.domain, seq.label + "b"),
    )


def _min_pairwise(points, dist):
    n = len(points)
    if n < 2:
        return math.inf
    arr = np.asarray(points, dtype=complex)
    best = math.inf
    for i in range(n - 1):
        best = min(best, float(np.min(dist(arr[i], arr[i + 1:]))))
    return best


def separation_border(seq: SequenceSet):
    """Half the minimal pairwise distance, pseudohyperbolic on the disk,
    hyperbolic (disk-wise) for punctured-disk border parts."""
    if seq.domain is Domain.DISK:
        return 0.5 * _min_pairwise(seq.points, pseudo_dist)
    return 0.5 * _min_pairwise(seq.points, hyp_dist)


def separation_puncture(seq: SequenceSet):
    """Half the minimal pairwise cylindrical distance."""
    return 0.5 * _min_pairwise(seq.points, cyl_dist)


# ---------------------------------------------------------------------------
# Density quotients.

def _report(center, r, numer, denom, kind) -> DensityReport:
    degenerate = not denom > 0.0
    ratio = numer / denom if not degenerate else math.inf
    return DensityReport(complex(center), float(r), numer, denom, ratio, kind, degenerate)


def border_density_ratio(seq, weight: WeightModel, z, r, rule=DEFAULT_RULE) -> DensityReport:
    """Point-count vs curvature-mass quotient at one (center, radius).

    Numerator: 2 pi sum of log(r^2/rho^2) over sequence points with
    phi_z image in 1/2 < rho < r.  Denominator: the log-kernel mass of
    Delta phi - 2 omega_P over D_r(z), pulled back through phi_z.
    """
    _check_radius(r, _BORDER_RADII, "border quotient")
    pts = seq.array() if isinstance(seq, SequenceSet) else np.asarray(seq, dtype=complex)
    numer = float(TWO_PI * _annulus_sum(_disk_dists(pts, z), 0.5, r, _log_kernel(r)))

    if weight.constant_poincare_ratio is not None:
        denom = (weight.constant_poincare_ratio - 2.0) * a_r_hyperbolic(r)
    else:
        g = lambda zeta: weight.lap_poincare_ratio(mobius_involution(z, zeta)) - 2.0
        denom = float(disk_log_integral(r, g, "hyperbolic", rule))
    return _report(z, r, numer, denom, "border")


def puncture_density_ratio(seq, weight: WeightModel, q, r, eps=0.1, rule=DEFAULT_RULE) -> DensityReport:
    """Cylindrical density quotient at a lift q of the center.

    Numerator: 2 pi sum of log(r^2/d^2) over lifted sequence points in
    the open annulus 1 < d < r about q.  Denominator: the Euclidean
    log-kernel mass over D_r(q) of the cylindrical curvature density of
    the shifted weight psi = phi + 2 log log(1/|z|^2), lifted through the
    cover with the eps-shift-and-reflect extension across the real axis.
    """
    _check_radius(r, _PUNCTURE_RADII, "puncture quotient")
    q = complex(q)
    if q.imag <= 0:
        raise WindowViolation("center lift must lie in the upper half plane")
    pts = seq.array() if isinstance(seq, SequenceSet) else np.asarray(seq, dtype=complex)
    numer = float(TWO_PI * _annulus_sum(_translate_dists(pts, q, r), 1.0, r, _log_kernel(r)))

    _, psi_ratio = shifted_cyl_weight(weight)
    density = _covered_integrand(psi_ratio, q, eps)
    denom = float(polar_integral(density, 0.0, 0.0, r, _euclid_weight, _log_kernel(r), rule))
    return _report(q, r, numer, denom, "puncture")


# ---------------------------------------------------------------------------
# Center nets and sweeps.

def _greedy_separated(cands, sep, limit):
    """The candidates, in order, each kept if it lies at pseudohyperbolic
    distance >= sep from every one kept before it; at most `limit` kept."""
    kept = np.empty(len(cands), dtype=complex)
    k = 0
    for c in cands:
        if k >= limit:
            break
        if k == 0 or np.all(pseudo_dist(c, kept[:k]) >= sep):
            kept[k] = c
            k += 1
    return kept[:k]


def center_net(points, mesh, max_centers=64):
    """Greedy mesh-separated net covering the points plus one mesh margin.

    Candidates are the points themselves and a ring of eight neighbors at
    pseudohyperbolic distance mesh around each; greedy acceptance at
    separation mesh/2 keeps the net small and deterministic.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        return np.asarray([0.0], dtype=complex)
    ring = mesh * np.exp(1j * math.pi / 4.0 * np.arange(8))
    cands = [pts] + [mobius_involution(p, ring) for p in pts]
    return _greedy_separated(np.concatenate(cands), 0.5 * mesh, max_centers)


def _aggregate(per_r):
    """Sup over centers per radius; estimate at the largest radius."""
    radii = sorted(per_r)
    sups = [per_r[r] for r in radii]
    estimate = sups[-1]
    decreasing = all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))
    return estimate, decreasing


def _radius_sups(grid_centers, quotient, reports):
    """Per-radius sup of the nondegenerate quotients over (r, centers) pairs.

    Every report is appended to `reports` in (r, center) order.
    """
    per_r = {}
    for r, ctrs in grid_centers:
        best = 0.0
        for c in ctrs:
            rep = quotient(c, r)
            reports.append(rep)
            if not rep.degenerate:
                best = max(best, rep.ratio)
        per_r[r] = best
    return per_r


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
    eps=0.1,
    rule=DEFAULT_RULE,
) -> SweepResult:
    """Grid approximation of the upper density with per-(center, r) reports.

    Disk sequences sweep the border quotient only.  Punctured-disk
    sequences are decomposed at split_a and both parts are swept; the
    estimate is the max of the two per the split definition of density.
    r_grid None sweeps each side's built-in grid; an explicit grid goes to
    the border part whole on the disk, split at r = 1 on the punctured
    disk, and must leave each swept part at least one radius.  An explicit
    list of centers must not be empty.
    """
    if centers is not None and not len(centers):
        raise DomainViolation("the center list is empty")
    reports = []
    notes = []
    if r_grid is None:
        border_grid, puncture_grid = BORDER_R_GRID, PUNCTURE_R_GRID
    else:
        disk = seq.domain is Domain.DISK
        border_grid = tuple(r for r in r_grid if disk or r < 1.0)
        puncture_grid = tuple(r for r in r_grid if not r < 1.0)

    def run_border(part_points):
        grid = _side_grid(border_grid, _BORDER_RADII, "border")
        ctrs = centers if centers is not None else center_net(part_points, mesh)
        quotient = lambda z, r: border_density_ratio(part_points, weight, z, r, rule)
        return _aggregate(_radius_sups(((r, ctrs) for r in grid), quotient, reports))

    def run_puncture(part_points):
        grid = _side_grid(puncture_grid, _PUNCTURE_RADII, "puncture")
        lifts = np.atleast_1d(lift_value(np.asarray(part_points, dtype=complex)))
        grid_centers = []
        for r in grid:
            qs = [q for q in lifts if q.imag > r + 1.0]
            if qs:
                grid_centers.append((r, qs))
            else:
                notes.append(f"no admissible center lifts at r = {r}")
        quotient = lambda q, r: puncture_density_ratio(part_points, weight, q, r, eps, rule)
        per_r = _radius_sups(grid_centers, quotient, reports)
        if not per_r:
            return None, True
        return _aggregate(per_r)

    if seq.domain is Domain.DISK:
        border_est, decreasing = run_border(seq.array())
        punct_est = None
    else:
        star, border = decompose(seq, split_a)
        if len(border):
            border_est, dec_b = run_border(border.array())
        else:
            border_est, dec_b = 0.0, True
        if len(star):
            punct_est, dec_p = run_puncture(star.array())
        else:
            punct_est, dec_p = 0.0, True
        decreasing = dec_b and dec_p

    cands = [e for e in (border_est, punct_est) if e is not None]
    estimate = max(cands) if cands else math.inf
    degenerate = any(rep.degenerate for rep in reports)
    return SweepResult(
        tuple(reports), estimate, border_est, punct_est, decreasing, degenerate, tuple(notes)
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
        eps=params.eps,
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
        # a puncture part with no admissible center lift leaves the
        # puncture density unestimated, which blocks a positive verdict
        punct_missing = (
            seq.domain is Domain.PUNCTURED_DISK
            and d_p is None
            and any(abs(p) <= params.split_a for p in seq.points)
        )
        below = max(d_b or 0.0, d_p or 0.0) <= 1.0 - params.delta
        if below and not punct_missing:
            verdict = "Interpolating"
        else:
            reasons.append("density estimate inside the indeterminate band")
            verdict = "Indeterminate"
    return ClassificationVerdict(verdict, sep_b, sep_p, d_b, d_p, params, tuple(reasons), sweep)


# ---------------------------------------------------------------------------
# Test-sequence factory.

def generate_lattice(kind, count, seed=0, **kw) -> SequenceSet:
    """Deterministic test sequences.

    kind "hyperbolic-disk": greedy maximal d-separated set (mesh d = kw["d"])
    in the pseudohyperbolic metric inside |z| <= 1 - margin; raises
    BergseqError when the candidates run out before `count` points fit.
    kind "puncture-exponential": {e^{-k s} e^{2 pi i j / n}} ordered by k.
    """
    if kind == "hyperbolic-disk":
        d = kw["d"]
        margin = kw.get("margin", 0.05)
        if d <= 0:
            raise ValueError("mesh must be positive")
        rng = np.random.default_rng(seed)
        rmax = 1.0 - margin
        # uniform in hyperbolic area up to pseudohyperbolic radius rmax
        u = rng.random(20000)
        s_max = rmax * rmax / (1.0 - rmax * rmax)
        rho = np.sqrt(u * s_max / (1.0 + u * s_max))
        theta = rng.random(20000) * TWO_PI
        cands = np.concatenate(([0.0 + 0.0j], rho * np.exp(1j * theta)))
        chosen = _greedy_separated(cands, d, count)
        if len(chosen) < count:
            raise BergseqError(
                f"hyperbolic-disk lattice: asked for {count} points, placed {len(chosen)}"
                f" (d = {d}, margin = {margin})"
            )
        return SequenceSet(tuple(chosen), Domain.DISK, f"hyperbolic-disk d={d}")
    if kind == "puncture-exponential":
        s = kw["s"]
        n = kw.get("n", 1)
        if s <= 0 or n < 1:
            raise ValueError("need s > 0 and n >= 1")
        pts = []
        k = 1
        while len(pts) < count:
            for j in range(n):
                if len(pts) >= count:
                    break
                pts.append(math.exp(-k * s) * complex(math.cos(TWO_PI * j / n), math.sin(TWO_PI * j / n)))
            k += 1
        return SequenceSet(tuple(pts), Domain.PUNCTURED_DISK, f"puncture-exponential s={s} n={n}")
    raise ValueError(f"unknown lattice kind {kind!r}")
