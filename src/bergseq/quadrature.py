"""Polar quadrature against logarithmic kernels and area forms.

Every density and mean in the library reduces to integrals of the shape

    I = int_{rho0 < |zeta - q| < rho1} f(zeta) k(|zeta - q|) w(|zeta - q|) dA,

with k a log kernel (or 1) and w a radial measure density.  The polar
substitution makes the integrand bounded at the center (rho log(r^2/rho^2)
-> 0), and the radial panels are graded geometrically toward both rims,
which resolves the (1 - rho^2)^-2 blow-up of the hyperbolic density near
the outer rim.  Angular integration is the trapezoid rule, spectrally
accurate for smooth integrands on the circle.

Node doubling doubles panels and angular nodes together; acceptance
requires two successive estimates within the rule's relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolation, QuadratureNotConverged
from .geometry import mobius_involution

_GL_ORDER = 12
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
# Most nodes polar_integral hands the integrand at once.  A complex block is
# then 64 KiB, below glibc's default mmap threshold (128 KiB), and the
# integrand's temporaries stay well inside one core's L2 cache.  With
# 2**15-node blocks the same calls took up to twice as long in some runs
# as in others on a loaded 2-CPU Xeon (2 MiB L2 per core).
_BLOCK_NODES = 2 ** 12


@dataclass(frozen=True)
class QuadratureRule:
    """Initial discretization and convergence policy."""

    n_panels: int = 8
    n_theta: int = 64
    rel_tol: float = 1e-8
    max_nodes: int = 2 ** 20

    def __post_init__(self):
        if self.n_theta < 16 or self.n_theta & (self.n_theta - 1):
            raise ValueError("angular node count must be a power of 2, >= 16")
        if self.n_panels < 2:
            raise ValueError("need at least 2 radial panels")
        if not 0 < self.rel_tol < 1:
            raise ValueError("relative tolerance must lie in (0, 1)")


DEFAULT_RULE = QuadratureRule()

# Cheaper rule for bulk sampling (potentials at thousands of points).
FAST_RULE = QuadratureRule(n_panels=4, n_theta=32, rel_tol=1e-7)


def _unit_edges(n_panels, grade_lo, grade_hi):
    """Panel edges on [0, 1], geometrically clustered at graded ends."""
    n = max(2, n_panels)
    if grade_lo and grade_hi:
        h = max(1, n // 2)
        left = np.concatenate(([0.0], 0.5 * 2.0 ** -np.arange(h - 1, -1.0, -1.0)))
        return np.unique(np.concatenate((left, 1.0 - left)))
    if grade_lo:
        return np.concatenate(([0.0], 2.0 ** -np.arange(n - 1, -1.0, -1.0)))
    if grade_hi:
        return 1.0 - np.concatenate(([0.0], 2.0 ** -np.arange(n - 1, -1.0, -1.0)))[::-1]
    return np.linspace(0.0, 1.0, n + 1)


def _with_breaks(edges, breaks):
    if len(breaks) == 0:
        return edges
    br = np.asarray(breaks, dtype=float)
    br = br[(br > edges[0] + 1e-14) & (br < edges[-1] - 1e-14)]
    return np.unique(np.concatenate((edges, br)))


def _radial_nodes(rho_lo, rho_hi, n_panels, breaks):
    """Gauss-Legendre nodes and weights on rim-graded panels of (rho_lo, rho_hi)."""
    edges = rho_lo + (rho_hi - rho_lo) * _unit_edges(n_panels, rho_lo == 0.0, True)
    edges = _with_breaks(edges, breaks)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    nodes = (mid[:, None] + half[:, None] * _GL_X).ravel()
    weights = (half[:, None] * _GL_W).ravel()
    return nodes, weights


def _converge(levels, rule, what):
    """Drive a level evaluator until two successive estimates agree.

    Each level yields (estimate, node count, a function giving the same
    estimate of |integrand|).  The tolerance is relative to the largest of
    the two estimates and that one, so an integral that cancels to 0
    converges; the |integrand| pass runs only when the estimates alone
    do not settle it.
    """
    prev = None
    for est, n_nodes, abs_mean in levels:
        if np.size(est) == 0:
            return est
        if prev is not None:
            diff = np.abs(np.subtract(est, prev)).max()
            tol = rule.rel_tol * max(np.abs((est, prev)).max(), 1e-12)
            if diff <= tol or diff <= rule.rel_tol * np.max(abs_mean()):
                return est
        if n_nodes * 4 > rule.max_nodes:
            if prev is not None:
                raise QuadratureNotConverged(what, (prev, est))
            return est
        prev = est
    return prev


def polar_integral(
    f: Callable,
    center: complex,
    rho_lo: float,
    rho_hi: float,
    radial_weight: Callable,
    kernel: Callable | None,
    rule: QuadratureRule = DEFAULT_RULE,
    breaks: Sequence[float] = (),
    normalized: bool = False,
):
    """Integrate f(zeta) k(rho) w(rho) over the annulus rho_lo < |zeta - center| < rho_hi.

    f is called on 2-D complex arrays of nodes only, and its values must
    broadcast to their shape; custom_weight wraps a scalar-only callable.
    With normalized=True, returns the mean of f against the measure
    k w rho drho dtheta, with the normalizer computed on the identical
    nodes so that constants are reproduced to machine precision.
    """

    def levels():
        n_pan, n_th = rule.n_panels, rule.n_theta
        while True:
            rho, w_rho = _radial_nodes(rho_lo, rho_hi, n_pan, breaks)
            theta = (2.0 * math.pi / n_th) * np.arange(n_th)
            ring = np.exp(1j * theta)
            # whole radial rows at a time, which bounds the integrand's
            # temporaries without changing any sample or sum
            vals = np.empty((rho.size, n_th))
            rows = max(1, _BLOCK_NODES // n_th)
            for i in range(0, rho.size, rows):
                vals[i:i + rows] = f(center + rho[i:i + rows, None] * ring[None, :])
            # non-finite samples (integrable log poles hit head-on) are
            # excised, which changes the integral by a set of measure zero
            if not np.all(np.isfinite(vals)):
                vals = np.where(np.isfinite(vals), vals, 0.0)
            radial = w_rho * rho * radial_weight(rho)
            if kernel is not None:
                radial = radial * kernel(rho)
            step = 2.0 * math.pi / n_th
            mass = step * vals.sum(axis=1) @ radial
            norm = 2.0 * math.pi * radial.sum() if normalized else 1.0
            abs_mass = lambda: step * np.abs(vals).sum(axis=1) @ radial / norm
            yield mass / norm, rho.size * n_th, abs_mass
            n_pan *= 2
            n_th *= 2

    return _converge(levels(), rule, "polar integral")


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


def _log_kernel(r):
    """The Green-type kernel rho -> log(r^2/rho^2) of a disk of radius r."""
    return lambda rho: np.log(r * r / (rho * rho))


_WEIGHTS = {"hyperbolic": _hyper_weight, "euclidean": _euclid_weight}


def disk_log_integral(r, f, measure="hyperbolic", rule=DEFAULT_RULE):
    """int_{D_r(0)} f(zeta) log(r^2/|zeta|^2) dmu(zeta).

    measure is "hyperbolic" (the curvature -4 area form) or "euclidean".
    """
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"radius must lie in (0, 1), got {r}")
    return polar_integral(f, 0.0, 0.0, r, _WEIGHTS[measure], _log_kernel(r), rule)


def annulus_log_integral_disk(r, f, rule=DEFAULT_RULE):
    """Kernel integral over the annulus 1/2 < |zeta| < r, hyperbolic area."""
    _check_radius(r, _BORDER_RADII)
    return polar_integral(f, 0.0, 0.5, r, _hyper_weight, _log_kernel(r), rule)


def annulus_log_integral_euclid(q, r, f, rule=DEFAULT_RULE):
    """int_{1 < |zeta - q| < r} f(zeta) log(r^2/|zeta - q|^2) dA(zeta)."""
    _check_radius(r, _PUNCTURE_RADII)
    return polar_integral(f, q, 1.0, r, _euclid_weight, _log_kernel(r), rule)


def circle_mean(z, r, h, n=256):
    """Mean of h over the pseudohyperbolic circle of radius r about z.

    Parametrized as phi_z(r e^{i theta}); by Mobius invariance of the
    Green current this equals the d^c G_z boundary mean.  h is called
    once, on the array of the n circle points.
    """
    theta = (2.0 * math.pi / n) * np.arange(n)
    w = mobius_involution(z, r * np.exp(1j * theta))
    vals = np.broadcast_to(np.asarray(h(w), dtype=float), w.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainViolation(f"non-finite boundary sample at theta = {theta[k]:.6f}")
    return float(vals.mean())


def radial_log_mean(g, rho_lo, rho_hi, radial_weight, r_kernel, rule=DEFAULT_RULE, breaks=()):
    """Kernel-weighted radial mean of a (possibly vector-valued) profile.

    g(rho) may return shape (len(rho), m); the mean is taken per column
    with the normalizer on the same nodes.  Used for integrands whose
    angular means are known in closed form.
    """

    def levels():
        n_pan = max(rule.n_panels, 4)
        while True:
            rho, w_rho = _radial_nodes(rho_lo, rho_hi, n_pan, breaks)
            wt = w_rho * rho * radial_weight(rho) * r_kernel(rho)
            vals = np.atleast_2d(np.asarray(g(rho), dtype=float).T).T
            norm = wt.sum()
            yield wt @ vals / norm, rho.size, lambda: wt @ np.abs(vals) / norm
            n_pan *= 2

    return _converge(levels(), rule, "radial mean")
