"""Polar quadrature against logarithmic kernels and area forms.

Every density and mean in the library reduces to integrals of the shape

    I = int_{rho0 < |zeta - q| < rho1} f(zeta) k(|zeta - q|) w(|zeta - q|) dA,

with k a log kernel (or 1) and w a radial measure density.  The polar
substitution makes the integrand bounded at the center (rho log(r^2/rho^2)
-> 0) but not smooth there, so on a disk about the center the innermost
panel is mapped by rho = b u^3, which leaves the Gauss rule u^5 log u to
integrate.  The radial panels are graded geometrically toward both rims:
with every radial doubling the panels next to each rim halve, which is
how the levels close in on the (1 - rho^2)^-2 blow-up of the hyperbolic
density near the outer rim and on the mapped center panel.  Angular
integration is the trapezoid rule, spectrally accurate for smooth
integrands on the circle.

An integrand pulled back through the disk automorphism phi_z (the
border quotients, log-kernel means and identity checks about a center
z) carries powers of |1 - conj(z) zeta|^-2: on the ring |zeta| = rho a
Poisson-type peak at arg z, which uniform angles resolve only at the
geometric rate x = |z| rho, so centers near the rim run to 1024-2048
angles.  polar_integral(..., pullback=z) samples f o phi_z itself and,
once the first level's angles fail, moves to Mobius-balanced angles
e^{i theta} = e^{i arg z}(v + a)/(1 + a v), v uniform and a the
pseudohyperbolic midpoint of 0 and x.  The map is a periodic-trapezoid
form of the conformal maps of Hale and Trefethen (SIAM J. Numer. Anal.
46, 2008): it takes the peak's rate and the Jacobian's both to a, and
the same rim centers settle at 128-256 angles.

Refinement is per axis.  Each level of polar_integral gives two error
indicators for free: the angular one compares the estimate with the one
from the even-indexed angles alone, and the radial one compares it with
the previous level's estimate on the same angles.  The next level
doubles only the axes whose indicator fails, and the integral is
accepted when both pass.  The samples are reduced to per-radius row sums
block by block, so no level holds its whole sample array.  A kernel may
give one column per radius, so that one pass over the largest disk
serves several nested ones (the border quotients of one center); each
component of such a vector estimate must then settle against its own
magnitude.  polar_integral is the only level loop over disks: a radial
mean, such as the monomial norms of kernels._monomial_norms, is one of
its integrals of the constant 1, with the profile in the kernel columns.

A level on the previous level's angles samples only the radii that level
did not: a radial doubling leaves most panels whole, with bit-identical
nodes, and their row sums carry over.  The center, or the pull-back
point, may be a 1-D array of points with radial breaks of their own: the
array is a loop of one-point level loops, and each point's result is its
own call's.  A 2-D integral's cost is in its samples, so sharing the
levels of several points saved nothing: on a shared 2-CPU Xeon the 2-D
curvature masses of 18 punctured-disk border centers took 210-277 ms as
batched level loops and 214-294 ms as one call per center (medians of
15, three runs).

About centers and pull-back points alike, f receives plain ndarrays of
nodes, a block of whole rings at a time.  An integrand on the
exponential cover (weights._covered_integrand, behind
extended_covered_mean) takes e^{iw} by one complex exp per node.

A log-kernel mass of a curvature density needs no 2-D integral when its
potential is known: by Green's formula
int_{D_r(q)} log(r^2/|w - q|^2) (Delta U / 2) dA = 2 pi (M - U(q)), M the
mean of U over the circle |w - q| = r.  _circle_means is that 1-D loop:
angles doubled until the mean over all of them and over the
even-indexed ones agree, about an array of centers at once.  The circle
is the image of |zeta| = r under a map that takes 0 to q: q + zeta on
the exponential cover, where the puncture denominators take it
(weights._puncture_denominators) on uniform angles, and phi_q on the
disk, where the border denominators take it (weights._phi_masses) on
Mobius-balanced angles; both are the denominators of the one density
quotient (sequences._Side.denominators), one loop per radius over all
its centers.  Either integrand is real-analytic on its circles, so the
trapezoid rule converges geometrically.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolation, QuadratureNotConverged
from .geometry import _check_domain, _check_finite, _mobius

# The 12-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre
# .leggauss(12) gives it (a test pins the two equal); written out so that
# importing the library does not import numpy.polynomial.
_GL_POS_X = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
             0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_GL_POS_W = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
             0.16007832854334642, 0.10693932599531907, 0.04717533638651141)
_GL_X = np.concatenate((np.negative(_GL_POS_X[::-1]), _GL_POS_X))
_GL_W = np.concatenate((_GL_POS_W[::-1], _GL_POS_W))
_GL_ORDER = _GL_X.size
# The same rule on [0, 1] in u, pulled back by rho = u^3 (d rho = 3 u^2 du);
# _radial_nodes scales both by the center panel's outer edge.
_CENTER_U = 0.5 * (1.0 + _GL_X)
_CENTER_X = _CENTER_U ** 3
_CENTER_W = 1.5 * _CENTER_U ** 2 * _GL_W
# Most nodes polar_integral hands the integrand at once.  A complex block is
# then 64 KiB, below glibc's default mmap threshold (128 KiB), and the
# integrand's temporaries stay well inside one core's L2 cache.  With
# 2**15-node blocks the same calls took up to twice as long in some runs
# as in others on a loaded 2-CPU Xeon (2 MiB L2 per core).
_BLOCK_NODES = 2 ** 12


@dataclass(frozen=True)
class QuadratureRule:
    """Initial discretization and convergence policy.

    n_panels and n_theta are the first level's radial panel parameter and
    angular node count; each later level doubles the axes that have not
    settled to rel_tol.  max_nodes bounds the node count of one level: a
    level that would pass it raises QuadratureNotConverged instead.  All
    three are integers, and max_nodes >= 1 (else ValueError).
    """

    n_panels: int = 8
    n_theta: int = 64
    rel_tol: float = 1e-8
    max_nodes: int = 2 ** 20

    def __post_init__(self):
        counts = (self.n_panels, self.n_theta, self.max_nodes)
        if not all(isinstance(c, numbers.Integral) for c in counts) or self.max_nodes < 1:
            raise ValueError(f"n_panels, n_theta and max_nodes must be integers, and max_nodes >= 1, got {counts}")
        if self.n_theta < 16 or self.n_theta & (self.n_theta - 1):
            raise ValueError("angular node count must be a power of 2, >= 16")
        if self.n_panels < 2:
            raise ValueError("need at least 2 radial panels")
        if not 0 < self.rel_tol < 1:
            raise ValueError("relative tolerance must lie in (0, 1)")


DEFAULT_RULE = QuadratureRule()

# A cheaper rule, kept for callers; both potentials are closed-form and ignore it.
FAST_RULE = QuadratureRule(n_panels=4, n_theta=32, rel_tol=1e-7)


def _sorted_unique(a):
    """np.unique of a 1-D float array, which (unlike it) does not import numpy.ma."""
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])]


def _unit_edges(n_panels, grade_lo):
    """Panel edges on [0, 1], geometrically clustered toward 1, and toward 0 if grade_lo."""
    if grade_lo:
        left = np.append(0.0, 2.0 ** -np.arange(n_panels // 2, 0, -1))
        return _sorted_unique(np.concatenate((left, 1.0 - left)))
    return np.append(1.0 - 2.0 ** -np.arange(n_panels), 1.0)


def _with_breaks(edges, breaks):
    if len(breaks) == 0:
        return edges
    br = np.asarray(breaks, dtype=float)
    br = br[(br > edges[0] + 1e-14) & (br < edges[-1] - 1e-14)]
    return _sorted_unique(np.concatenate((edges, br)))


@functools.lru_cache(maxsize=128)
def _radial_nodes(rho_lo, rho_hi, n_panels, breaks):
    """Gauss-Legendre nodes and weights on rim-graded panels of (rho_lo, rho_hi).

    When rho_lo is 0 the innermost panel [0, b] is mapped by rho = b u^3,
    with u on the Gauss nodes of [0, 1] and weights 3 b u^2 w.  The
    kernel's center factor rho log(1/rho) d rho becomes u^5 log u du, up
    to smooth terms; the first level then integrates a constant over a
    disk to about 3e-13 relative, against 1.6e-7 on an unmapped panel.
    b = rho_hi 2^(-n_panels/2)
    still halves at every radial doubling, so the panel's error keeps
    falling from level to level and the radial indicator sees it; a
    mapped panel of fixed width would keep its error while two levels
    agreed.

    breaks is a tuple (the arguments are the cache key), and the arrays
    are read-only, since every caller with the same key shares them.  A
    panel that a radial doubling leaves whole keeps bit-identical nodes.
    """
    edges = rho_lo + (rho_hi - rho_lo) * _unit_edges(n_panels, rho_lo == 0.0)
    edges = _with_breaks(edges, breaks)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    nodes = mid[:, None] + half[:, None] * _GL_X
    weights = half[:, None] * _GL_W
    if rho_lo == 0.0:
        nodes[0] = edges[1] * _CENTER_X
        weights[0] = edges[1] * _CENTER_W
    nodes, weights = nodes.ravel(), weights.ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _settled_each(est, ref, rule, abs_mean):
    """Per component, whether est agrees with ref to rule.rel_tol.

    Component j settles when |est_j - ref_j| <= rel_tol max(|est_j|,
    |ref_j|, 1e-12), or when the difference is that small against
    abs_mean_j, the same estimate of |integrand|; so a small component
    is not judged by a large one's magnitude, and an integral that cancels
    to 0 settles.
    """
    diff = np.abs(np.subtract(est, ref))
    ok = diff <= rule.rel_tol * np.maximum(np.maximum(np.abs(est), np.abs(ref)), 1e-12)
    return ok | (diff <= rule.rel_tol * abs_mean)


def _settled(est, ref, rule, abs_mean):
    """Whether every component of est agrees with ref to rule.rel_tol (see _settled_each)."""
    return bool(np.all(_settled_each(est, ref, rule, abs_mean)))


def _loop_points(center, pullback, rho_hi):
    """(points, label, columns, involution) of a polar_integral call.

    The points are the pull-back points if given, else the centers, and
    label names them in messages.  columns holds (p, |p|, p/|p|) per
    point (see _point_columns).  involution(p, zeta) swaps 0 and p:
    p - zeta, or phi_p for a pull-back.  Raises DomainViolation unless
    every center is finite, or, with a pull-back, every |z| < 1, center
    is 0 and rho_hi < 1: at rho_hi = 1 the hyperbolic mass is infinite.
    """
    if pullback is None:
        points, label, involution = _check_finite(center, "center"), "center", np.subtract
    else:
        points, label, involution = _check_domain(pullback, name="pullback"), "pullback", _mobius
        if np.any(np.asarray(center) != 0) or rho_hi >= 1.0:
            raise DomainViolation("a pull-back integrates over a disk or annulus about 0 of outer radius below 1")
    if points.ndim > 1:
        raise DomainViolation(f"{label} points must be one point or a 1-D array, got shape {points.shape}")
    return points, label, _point_columns(points), involution


def _point_columns(points):
    """(p, |p|, p/|p|) per point, one column each.

    Python's complex abs and division take them, not numpy's, which differ
    in the last bit, so that a point's nodes do not depend on the points
    sampled with it.  p/|p| is 1 at p = 0, where _balanced_rings then
    gives uniform angles.
    """
    columns = [(p, abs(p), p / abs(p) if p else 1.0) for p in map(complex, np.ravel(points))]
    return np.array(columns, dtype=complex).reshape(-1, 3).T


def _balanced_rings(m, turn, rho, ring):
    """phi_z on the rings rho e^{i theta} at Mobius-balanced angles, with the Jacobians.

    e^{i theta} = e^{i alpha} (v + a)/(1 + a v) for v on `ring`, alpha =
    arg z and a = x/(1 + sqrt(1 - x^2)), x = |z| rho: the pseudohyperbolic
    midpoint of 0 and x, which moves both the pole of |1 - conj(z) zeta|^-2
    and the pole of the Jacobian (1 - a^2)/|1 + a v|^2 to |v| = 1/a.  The
    composition phi_z(rho e^{i theta}) is one real-coefficient Mobius map
    of v per ring.  m = |z|, turn = z/|z| and rho have shape (rows, 1),
    one ring per row.
    """
    x = m * rho
    a = x / (1.0 + np.sqrt((1.0 - x) * (1.0 + x)))
    nodes = turn * ((m - rho * a) + (m * a - rho) * ring) / ((1.0 - x * a) + (a - x) * ring)
    jac = (1.0 - a * a) / (1.0 + a * (a + 2.0 * ring.real))
    return nodes, jac, a[:, 0]


def _ring_blocks(rho, ring, column, involution, a):
    """(rows, nodes, Jacobians) of the rings, a block of whole rows at a time.

    Ring k has radius rho[k], and its nodes are involution(p, zeta) for
    zeta on the ring, column = (p, |p|, p/|p|) one point's _point_columns
    entry.  With a, an array of one entry per ring (pull-backs only), the
    rings take the angles of _balanced_rings, whose midpoints go to a;
    else uniform angles and no Jacobians.
    """
    rows = max(1, _BLOCK_NODES // ring.size)
    p, m, turn = column
    for i in range(0, rho.size, rows):
        at = slice(i, i + rows)
        if a is None:
            yield at, involution(p, rho[at, None] * ring), None
        else:
            nodes, jac, a[at] = _balanced_rings(m.real, turn, rho[at, None], ring)
            yield at, nodes, jac


def _row_sums(f, rho, n_theta, column, involution, balanced=False):
    """Sums of f over the ring of n_theta angles at each radius rho.

    Returns an array of shape (3, len(rho)): the sums over all angles,
    over the even-indexed angles, and of |f| over all angles.  f is
    sampled a block of whole rows at a time and each block is reduced at
    once, so no len(rho) x n_theta array is held.  The rings are about
    the point p of column, one point's _point_columns entry, and f is
    sampled at involution(p, zeta) of their nodes zeta, a plain ndarray
    for centers and pull-backs alike (see _ring_blocks).  balanced
    (pull-backs only) takes the angles of _balanced_rings, weights each
    sample by its Jacobian, and scales each ring's sums by
    (1 - a^N)/(1 + a^N), N the angles summed, the inverse of the N-angle
    trapezoid sum of the Jacobian: constants stay exact.  Each ring's
    sums depend on its own radius only, not on the rings sampled with it.
    """
    theta = (2.0 * math.pi / n_theta) * np.arange(n_theta)
    ring = np.exp(1j * theta)
    sums = np.empty((3, rho.size))
    a = np.empty(rho.size) if balanced else None
    for at, nodes, jac in _ring_blocks(rho, ring, column, involution, a):
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape != nodes.shape:
            vals = np.broadcast_to(vals, nodes.shape)
        # non-finite samples (integrable log poles hit head-on) are
        # excised, which changes the integral by a set of measure zero
        if not np.isfinite(vals).all():
            vals = np.where(np.isfinite(vals), vals, 0.0)
        if jac is not None:
            vals = vals * jac
        even = vals[:, ::2].sum(axis=1)
        sums[0, at] = even + vals[:, 1::2].sum(axis=1)
        sums[1, at] = even
        sums[2, at] = np.abs(vals).sum(axis=1)
    if balanced:
        a_n, a_half = a ** n_theta, a ** (n_theta // 2)
        scale = (1.0 - a_n) / (1.0 + a_n)
        sums *= (scale, (1.0 - a_half) / (1.0 + a_half), scale)
    return sums


def _point_integral(f, rho_lo, rho_hi, radial_weight, kernel, rule, breaks, normalized, column, involution, where):
    """polar_integral about one point: its level loop, with the point as a _point_columns entry.

    where names the point in the message of QuadratureNotConverged.
    """
    # only a pull-back point other than 0 has a peak to balance
    peaked = involution is _mobius and bool(column[0])
    n_pan, n_th, balanced = rule.n_panels, rule.n_theta, False
    prev = prev_th = last = grid = None
    radial_ok = refined_rho = False
    # the previous level's radii and row sums, and its (angles, balanced)
    old_rho = old_sums = old_angles = None
    while True:
        rho, w_rho = _radial_nodes(rho_lo, rho_hi, n_pan, breaks)
        if prev is not None and rho.size * n_th > rule.max_nodes:
            raise QuadratureNotConverged("polar integral" + where, last, *grid)
        grid = (rho.size // _GL_ORDER, n_th, rho.size * n_th)
        radial = w_rho * rho * radial_weight(rho)
        if kernel is not None:
            radial = (radial * kernel(rho).T).T
        norm = 2.0 * math.pi * radial.sum(axis=0) if normalized else 1.0
        step = 2.0 * math.pi / n_th
        # sample only the radii the previous level did not, on these angles
        fresh = np.ones(rho.size, dtype=bool)
        if old_angles == (n_th, balanced):
            fresh = old_rho[np.minimum(np.searchsorted(old_rho, rho), old_rho.size - 1)] != rho
        sums = np.empty((3, rho.size))
        sums[:, fresh] = _row_sums(f, rho[fresh], n_th, column, involution, balanced)
        if not fresh.all():
            sums[:, ~fresh] = old_sums[:, np.searchsorted(old_rho, rho[~fresh])]
        old_rho, old_sums, old_angles = rho, sums, (n_th, balanced)
        total, even = sums[:2] @ radial * step / norm
        if np.size(total) == 0:
            return total
        even = 2.0 * even
        absolute = sums[2] @ np.abs(radial) * step / norm  # a kernel column may change sign
        angular_ok = _settled(total, even, rule, absolute)
        if not angular_ok and prev is None and peaked and not balanced:
            balanced = True
            continue
        if refined_rho:
            radial_ok = _settled(total if n_th == prev_th else even, prev, rule, absolute)
        if angular_ok and radial_ok:
            return total
        last = (total,) if prev is None else (prev, total)
        prev, prev_th, refined_rho = total, n_th, not radial_ok
        if not radial_ok:
            n_pan *= 2
        if not angular_ok:
            n_th *= 2


def polar_integral(
    f: Callable,
    center: complex | Sequence[complex],
    rho_lo: float,
    rho_hi: float,
    radial_weight: Callable,
    kernel: Callable | None,
    rule: QuadratureRule = DEFAULT_RULE,
    breaks: Sequence[float] | Sequence[Sequence[float]] = (),
    normalized: bool = False,
    pullback: complex | Sequence[complex] | None = None,
):
    """Integrate f(zeta) k(rho) w(rho) over the annulus rho_lo < |zeta - center| < rho_hi.

    f is called on 2-D complex arrays of nodes only, which it may
    overwrite, and its values must broadcast to their shape;
    custom_weight wraps a scalar-only callable.  kernel(rho) returns
    shape (n_rho,), or (n_rho, k) for k kernels at once, one column
    each; the result is then a length-k vector, each component accepted
    on its own (see _settled), from one evaluation of f per node.  With
    normalized=True, returns the mean of f against the measure
    k w rho drho dtheta (per column), with the normalizer computed on the
    identical nodes so that constants are reproduced to machine
    precision.  The disk about a center q is sampled at q - zeta, the
    Euclidean involution swapping 0 and q; a uniform ring is symmetric
    under zeta -> -zeta, so the integral is that of f about q.  A center
    that is not finite raises DomainViolation before any sampling: every
    node would be excised as non-finite, and the integral would read 0.
    So do radii outside 0 <= rho_lo < rho_hi < inf: a reversed or
    negative annulus would return a signed area, and an infinite one
    would sample until max_nodes.

    pullback=z integrates f o phi_z instead, phi_z the disk automorphism
    swapping 0 and z: f is called on phi_z of the nodes.  It needs
    |z| < 1, center 0 and rho_hi < 1, and raises DomainViolation before
    any sampling otherwise.  On the ring |zeta| = rho the pulled-back
    integrand peaks at arg z like |1 - conj(z) zeta|^-2, where uniform
    angles converge at the rate |z| rho only.  When the first level's
    angular indicator fails, the loop switches to Mobius-balanced angles
    (see _balanced_rings), which converge at the smaller rate a, and
    restarts its level pair on the same grid.  A first level that
    settles its angles keeps uniform angles throughout, which are
    cheaper to generate.

    center, or pullback when given, may also be a 1-D array of n points,
    and breaks n tuples, one per point; the result then has a leading
    axis of length n, and each row equals the scalar call at that point,
    with that point's breaks, bit for bit: the points are integrated one
    after another, each by its own level loop.  Every point is checked
    before any sampling.  A point that does not converge raises
    QuadratureNotConverged with its own estimates and grid, and a
    message that names its index and value.

    The angular indicator of a level compares its estimate with the one
    from its even-indexed angles; the radial indicator compares it with
    the previous level's estimate on the same angles (the even-indexed
    ones when that level had half as many).  A level that doubled no
    panels keeps the radial verdict of the level before.  A level on the
    previous level's angles samples only its new radii: the panels a
    radial doubling leaves whole keep their nodes, and their row sums are
    reused as they are.
    """
    if not 0.0 <= rho_lo < rho_hi < math.inf:
        raise DomainViolation(f"need radii 0 <= rho_lo < rho_hi < inf, got ({rho_lo}, {rho_hi})")
    points, label, columns, involution = _loop_points(center, pullback, rho_hi)
    breaks = tuple(breaks)
    if not (breaks and np.ndim(breaks[0])):
        breaks = (breaks,) * columns.shape[1]
    elif len(breaks) != columns.shape[1]:
        raise ValueError(f"need one tuple of breaks per point: got {len(breaks)} for {columns.shape[1]} points")
    results = [_point_integral(f, rho_lo, rho_hi, radial_weight, kernel, rule, tuple(b), normalized, columns[:, k],
                               involution, f" at {label}[{k}] = {points[k]}" if points.ndim else "")
               for k, b in enumerate(breaks)]
    if points.ndim == 0:
        return results[0]
    if not results:
        # no point: only the kernel's columns give the shape of a result
        rho, _ = _radial_nodes(rho_lo, rho_hi, rule.n_panels, ())
        return np.empty((0,) + (np.shape(kernel(rho))[1:] if kernel is not None else ()))
    return np.array(results)


def _circle_means(f, centers, r, rule=DEFAULT_RULE, label="center", floor=0.0, involution=np.add, shift=None):
    """mean_theta [f(involution(q, r e^{i theta})) - f(q)] about each center q of a 1-D array.

    The circle's map is involution(q, zeta), which takes 0 to q: q + zeta
    (np.add), a circle on the exponential cover, or _mobius, phi_q(zeta),
    the pseudohyperbolic circle of radius r about a center q in the disk.
    f is called on complex arrays of points, the centers (1-D) and blocks
    of whole circles (2-D, at most _BLOCK_NODES nodes), and must act
    elementwise.  Each center starts from rule.n_theta angles and doubles
    them until the mean over all angles and the mean over the
    even-indexed ones settle (_settled_each).  On the cover the angles are
    uniform.  On the disk they are Mobius-balanced (see _balanced_rings),
    each sample weighted by its Jacobian and each sum scaled as in
    _row_sums; the peak of |1 - conj(q) zeta|^-2 then sits on the node of
    angle 0, so its aliases in the two means do not cancel, and at q = 0
    the angles are uniform.

    Without a shift the two means are judged against the mean of
    |f - f(q)|: the mean is often a small remainder of f, which cancels
    against f(q).  With one, the caller takes mean - shift (one value, or
    one per center), and the means are judged against that.  Two
    estimates that differ by at most `floor` (one value, or one per
    center) also settle: the caller's bound on the rounding of f's
    samples, below which the mean is not known better whatever the
    angles.  A doubling samples only the new, odd-indexed angles.  Each
    center keeps its own angles and verdict, and its mean is the same bit
    for bit as its own call gives.

    Raises DomainViolation before any sampling unless every center is
    finite (in the disk, with _mobius), and at the first value of f that
    is not finite, naming the center, r and the point: such a value is
    not excised.  A circle that would need more than rule.max_nodes
    angles raises QuadratureNotConverged naming its center, with 0 radial
    panels.
    """
    balanced = involution is _mobius
    if balanced:
        qs = _check_domain(centers, name=label)
        _, m, turn = _point_columns(qs)[:, :, None]
        m = m.real
    else:
        qs = _check_finite(centers, label)

    def check(vals, ks, w):
        """Raise at the first row of vals, of center ks[j] and points w[j], with a value that is not finite."""
        bad = ~np.isfinite(vals)
        if bad.any():
            j = np.argmax(bad.reshape(len(ks), -1).any(axis=1))
            raise DomainViolation(f"{label}[{ks[j]}] = {qs[ks[j]]}: the integrand is not finite at"
                                  f" w = {np.ravel(w[j])[np.argmax(np.ravel(bad[j]))]}, on the circle of radius {r}")

    at_q = np.broadcast_to(np.asarray(f(qs), dtype=float), qs.shape)
    check(at_q, np.arange(qs.size), qs)
    # per center: the sums of f - f(q) and of |f - f(q)| over its angles so far,
    # the sum over the even-indexed ones, and the last two levels' means
    total, absolute, even = np.zeros(qs.size), np.zeros(qs.size), np.empty(qs.size)
    prev, means = np.full(qs.size, math.nan), np.empty(qs.size)
    live, n, floor = np.arange(qs.size), rule.n_theta, np.broadcast_to(floor, qs.shape)
    shift = None if shift is None else np.broadcast_to(shift, qs.shape)
    while live.size:
        first = n == rule.n_theta
        if not first and n > rule.max_nodes:
            k = live[0]
            last = (means[k],) if n // 2 == rule.n_theta else (prev[k], means[k])
            raise QuadratureNotConverged(f"circle mean of radius {r} about {label}[{k}] = {qs[k]}",
                                         last, 0, n // 2, n // 2)
        ring = np.exp(1j * (2.0 * math.pi / n) * np.arange(0 if first else 1, n, 1 if first else 2))
        a = np.empty(live.size)
        rows = max(1, _BLOCK_NODES // ring.size)
        for i in range(0, live.size, rows):
            ks = live[i:i + rows]
            if balanced:
                w, jac, a[i:i + rows] = _balanced_rings(m[ks], turn[ks], r, ring)
            else:
                w = qs[ks, None] + r * ring
            vals = np.broadcast_to(np.asarray(f(w), dtype=float), w.shape) - at_q[ks, None]
            check(vals, ks, w)
            if balanced:
                vals = vals * jac
            if first:
                even[ks] = vals[:, ::2].sum(axis=1)
                total[ks] = even[ks] + vals[:, 1::2].sum(axis=1)
            else:
                even[ks] = total[ks]
                total[ks] += vals.sum(axis=1)
            absolute[ks] += np.abs(vals).sum(axis=1)
        est, ref = total[live] / n, 2.0 * even[live] / n
        if balanced:
            a_n, a_half = a ** n, a ** (n // 2)
            est, ref = est * ((1.0 - a_n) / (1.0 + a_n)), ref * ((1.0 - a_half) / (1.0 + a_half))
        prev[live], means[live] = means[live], est
        if shift is None:
            done = _settled_each(est, ref, rule, absolute[live] / n)
        else:
            done = _settled_each(est - shift[live], ref - shift[live], rule, 0.0)
        done |= np.abs(est - ref) <= floor[live]
        live, n = live[~done], 2 * n
    return means


# ---------------------------------------------------------------------------
# Closed-form normalizers.

def a_r_hyperbolic(r):
    """Mass of the kernel log(r^2/|zeta|^2) over D_r(0), hyperbolic area."""
    return -math.pi * math.log1p(-r * r)


def a_r_euclidean(r):
    """Same kernel mass with Euclidean area: pi r^2."""
    return math.pi * r * r


# Allowed outer radii r of the border (1/2 < rho < r) and puncture (1 < rho < r) annuli.
_BORDER_RADII = (0.5, 1.0)
_PUNCTURE_RADII = (1.0, math.inf)


def _check_radius(r, radii, what="annulus"):
    lo, hi = radii
    if not lo < r < hi:
        raise DomainViolation(f"{what} needs r in ({lo:g}, {hi:g}), got {r}")


def c_r_disk(r):
    """Kernel mass over the pseudohyperbolic annulus 1/2 < |zeta| < r."""
    _check_radius(r, _BORDER_RADII)
    return math.pi * (math.log(0.75) - math.log1p(-r * r) - math.log(4.0 * r * r) / 3.0)


def c_r_cyl(r):
    """Kernel mass over the Euclidean annulus 1 < |zeta| < r."""
    _check_radius(r, _PUNCTURE_RADII)
    return math.pi * (r * r - 1.0 - 2.0 * math.log(r))


# ---------------------------------------------------------------------------
# Public integrals.

def _hyper_weight(rho):
    return 1.0 / (1.0 - rho * rho) ** 2


def _euclid_weight(rho):
    return np.ones_like(rho)


def _one(z):
    return 1.0


def _log_kernel(r):
    """The Green-type kernel rho -> log(r^2/rho^2) of a disk of radius r."""
    return lambda rho: np.log(r * r / (rho * rho))


def disk_log_integral(r, f, pullback=None):
    """int_{D_r(0)} f(zeta) log(r^2/|zeta|^2) dmu(zeta), mu the hyperbolic (curvature -4) area form.

    pullback=z integrates f o phi_z, as in polar_integral.
    """
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"radius must lie in (0, 1), got {r}")
    return polar_integral(f, 0.0, 0.0, r, _hyper_weight, _log_kernel(r), pullback=pullback)


@functools.lru_cache(maxsize=8)
def _unit_circle(n):
    """(theta, e^{i theta}) on n uniform angles, read-only: every circle_mean on n angles shares them."""
    theta = (2.0 * math.pi / n) * np.arange(n)
    ring = np.exp(1j * theta)
    theta.flags.writeable = ring.flags.writeable = False
    return theta, ring


def circle_mean(z, r, h, n=256):
    """Mean of h over the pseudohyperbolic circle of radius r about z.

    Parametrized as phi_z(r e^{i theta}); by Mobius invariance of the
    Green current this equals the d^c G_z boundary mean.  h is called
    once, on the array of the n circle points.  Raises DomainViolation
    unless z lies in the disk and 0 < r < 1, and ValueError unless n is
    an integer >= 1, before h is called.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"the angle count n must be an integer >= 1, got {n!r}")
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"radius must lie in (0, 1), got {r}")
    theta, ring = _unit_circle(n)
    w = _mobius(_check_domain(z), r * ring)
    vals = np.broadcast_to(np.asarray(h(w), dtype=float), w.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainViolation(f"non-finite boundary sample at theta = {theta[k]:.6f}")
    return float(vals.mean())
