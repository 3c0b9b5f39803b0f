"""Identity checks that exercise the whole stack end to end.

The two-sided balance for a weighted log-modulus ties the circle means,
the zero-counting terms, and the curvature mass to one scalar residual;
a small residual certifies all three at once.  The curvature mass comes
from weights._curvature_masses, so what a small residual certifies
depends on the weight.  For a weight that declares a constant curvature
c, the mass is c a_r(r) in closed form, the formula that gives the sweep
its (c - 2) a_r(r): the residual checks the declared c against phi,
through the circle mean, and no quadrature runs.  For any other disk
weight it is the pulled-back 2-D polar_integral of lap_poincare_ratio.
The sweep takes that integral only for a weight whose phi failed
custom_weight's check; for one that passed, its denominators are circle
means of phi (weights._phi_masses), so the residual checks phi against
its ratio independently of the sweep's own code.  Punctured-disk
weights are refused: their curvature ratio is taken against the
punctured-disk metric, and the balance integrates against the disk's.

mean_comparison_margin stays on quadrature for every weight on purpose:
it compares phi with its own log-kernel mean, and a closed form there
would read the declared constant instead of phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainViolation
from .geometry import Domain, _check_domain, _mobius
from .quadrature import _hyper_weight, circle_mean, polar_integral
from .weights import WeightModel, _curvature_masses, log_mean_disk

_BOUNDARY_GUARD = 1e-6


@dataclass(frozen=True)
class BlaschkeSpec:
    """f = (product of Blaschke factors over zeros) * outer polynomial.

    The outer polynomial must not vanish on the closed disk; this is
    checked up front via its roots, because a hidden zero would silently
    unbalance the two sides of every identity downstream.
    """

    zeros: tuple = ()
    outer_coeffs: tuple = (1.0,)  # ascending powers

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        object.__setattr__(self, "zeros", zs)
        _check_domain(zs, name="zeros")
        cs = tuple(complex(c) for c in self.outer_coeffs)
        object.__setattr__(self, "outer_coeffs", cs)
        if all(c == 0 for c in cs):
            raise DomainViolation("outer polynomial is identically zero")
        if len(cs) > 1:
            roots = np.roots(np.asarray(cs[::-1], dtype=complex))
            if np.any(np.abs(roots) <= 1.0 + 1e-12):
                raise DomainViolation("outer polynomial vanishes on the closed disk")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        val = np.polyval(np.asarray(self.outer_coeffs[::-1], dtype=complex), z)
        for a in self.zeros:
            if a == 0:
                val = val * z
            else:
                val = val * (abs(a) / a) * _mobius(a, z)
        return val

    def log_abs(self, z):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self(z)))


def _phi_of(weight: Optional[WeightModel]):
    """The weight's phi; None is the zero weight."""
    if weight is None:
        return lambda w: np.zeros(np.shape(w))
    return weight.phi


def poisson_jensen_residual(
    f: BlaschkeSpec,
    psi: Optional[WeightModel],
    z: complex,
    r: float,
    n_theta: int = 2048,
):
    """|LHS - RHS| of the weighted two-sided balance on D_r(z).

    LHS: circle mean of 2 log|f| - psi over the pseudohyperbolic circle
    of radius r about z.  RHS: the center value, plus log(r^2/rho_j^2)
    per zero strictly inside, minus 1/(2 pi) times the log-kernel
    curvature mass of psi over D_r(z), from weights._curvature_masses
    (see the module docstring).  psi = None means the zero weight.  A
    punctured-disk weight raises DomainViolation, and an n_theta that is
    not an integer >= 1 ValueError (see circle_mean).
    """
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"radius must lie in (0, 1), got {r}")
    if psi is not None and psi.domain is Domain.PUNCTURED_DISK:
        raise DomainViolation("the Poisson-Jensen balance takes a disk weight: a punctured-disk weight's"
                              " lap_poincare_ratio is taken against the punctured-disk metric")
    z = complex(_check_domain(z))
    phi = _phi_of(psi)

    rhos = [abs(_mobius(a, z)) for a in f.zeros]
    for a, rho in zip(f.zeros, rhos):
        if abs(rho - r) <= _BOUNDARY_GUARD:
            raise DomainViolation(f"zero {a} sits on the integration circle")
        if rho == 0.0:
            raise DomainViolation("evaluation center is a zero of f")

    def u(w):
        return 2.0 * f.log_abs(w) - np.asarray(phi(w), dtype=float)

    lhs = circle_mean(z, r, u, n_theta)

    center = float(u(np.asarray([z]))[0])
    zero_term = sum(math.log(r * r / (rho * rho)) for rho in rhos if rho < r)

    curv = float(_curvature_masses(psi, [z], (r,))[0, 0]) / (2.0 * math.pi)

    rhs = center + zero_term - curv
    return abs(lhs - rhs)


def bergman_inequality_margin(coeffs: Sequence, weight: Optional[WeightModel], z: complex, r: float):
    """|f(z)|^2 e^{-phi(z)} over the weighted hyperbolic mass of D_r(z).

    f is the polynomial with the given ascending coefficients.  The
    sub-mean-value inequality bounds this ratio uniformly in (f, z) for
    weights with two-sided curvature control; f identically zero gives 0.
    """
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"radius must lie in (0, 1), got {r}")
    z = complex(z)
    cs = np.asarray(list(coeffs)[::-1], dtype=complex)
    phi = _phi_of(weight)

    def g(w):
        return np.abs(np.polyval(cs, w)) ** 2 * np.exp(-np.asarray(phi(w), dtype=float))

    mass = float(polar_integral(g, 0.0, 0.0, r, _hyper_weight, None, pullback=z))
    point = abs(np.polyval(cs, z)) ** 2 * math.exp(-float(np.atleast_1d(phi(np.asarray([z])))[0]))
    if point == 0.0:
        return 0.0
    if mass <= 0:
        raise DomainViolation("degenerate weighted mass")
    return point / mass


def mean_comparison_margin(weight: WeightModel, r: float, grid):
    """max over the grid of |phi(z) - (log-kernel mean of phi on D_r(z))|.

    Vanishes to quadrature accuracy for harmonic phi; for curvature-
    bounded weights it stabilizes under grid refinement, which is the
    practical form of the pointwise weight-comparison bound.
    """
    if not 0.0 < r < 1.0:
        raise DomainViolation(f"radius must lie in (0, 1), got {r}")
    pts = np.atleast_1d(np.asarray(grid, dtype=complex))
    means = log_mean_disk(weight.phi, r, pts)
    here = np.broadcast_to(np.asarray(weight.phi(pts), dtype=float), pts.shape)
    return float(np.max(np.abs(here - means), initial=0.0))
