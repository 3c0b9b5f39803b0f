"""Closed-form hyperbolic, pseudohyperbolic and cylindrical geometry.

Covers the unit disk and the punctured disk, the exponential covering map
of the punctured plane, the injectivity radius near the puncture, and the
area function that normalizes sequence-data norms.

Conventions: the hyperbolic metric has curvature -4, so its density
against the Euclidean area form dA is 1/(1-|z|^2)^2 on the disk and
1/(|z|^2 (log 1/|z|^2)^2) on the punctured disk.  All area integrals in
the rest of the library consume these coefficients times dA.
"""

from __future__ import annotations

import enum
import math
import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation

TWO_PI = 2.0 * math.pi

# Hyperbolic area of a disk of geodesic radius 1; constant on the unit
# disk because the automorphism group acts transitively by isometries.
DISK_AREA_CONSTANT = math.pi * math.sinh(1.0) ** 2


class Domain(enum.Enum):
    DISK = "disk"
    PUNCTURED_DISK = "punctured-disk"


@dataclass(frozen=True)
class DomainPoint:
    value: complex
    domain: Domain

    def __post_init__(self):
        r = abs(self.value)
        if not r < 1.0:
            raise DomainViolation(f"|z| = {r} >= 1")
        if self.domain is Domain.PUNCTURED_DISK and r == 0.0:
            raise DomainViolation("punctured-disk point at the origin")


@dataclass(frozen=True)
class LiftedPoint:
    """A point of the upper half plane covering the punctured plane."""

    value: complex
    fundamental: bool = True

    def __post_init__(self):
        if self.value.imag <= 0.0:
            raise DomainViolation(f"Im w = {self.value.imag} <= 0")
        if self.fundamental and not 0.0 <= self.value.real < TWO_PI:
            raise DomainViolation("fundamental representative needs Re in [0, 2 pi)")


def _check_disk(*zs):
    for z in zs:
        if not abs(z) < 1.0:
            raise DomainViolation(f"|z| = {abs(z)} >= 1")


def mobius_involution(z, zeta):
    """The disk automorphism swapping 0 and z, evaluated at zeta.

    phi_z(zeta) = (z - zeta) / (1 - conj(z) zeta).  Accepts arrays in
    either slot.
    """
    _check_disk(np.max(np.abs(z)), np.max(np.abs(zeta)))
    return (z - zeta) / (1.0 - np.conjugate(z) * zeta)


def pseudo_dist(z, w):
    """Pseudohyperbolic distance |phi_z(w)| in [0, 1)."""
    return np.abs(mobius_involution(z, w))


def hyp_dist(z, w):
    """Geodesic distance of the curvature -4 metric on the disk."""
    rho = pseudo_dist(z, w)
    return 0.5 * np.log((1.0 + rho) / (1.0 - rho))


def poincare_coeff(p: DomainPoint):
    """Density of the hyperbolic area form against dA at p."""
    if p.domain is Domain.DISK:
        return 1.0 / (1.0 - abs(p.value) ** 2) ** 2
    return float(punctured_coeff(p.value))


def punctured_coeff(z):
    """Vectorized hyperbolic density on the punctured disk."""
    r2 = np.abs(z) ** 2
    ell = np.log(1.0 / r2)
    return 1.0 / (r2 * ell * ell)


def pdisk_radial_dist(z, w, tol=1e-9):
    """Geodesic distance on the punctured disk along a common ray.

    Valid only when arg(z/w) = 0; the closed form is
    (1/2) |log log(1/|z|^2) - log log(1/|w|^2)|.
    """
    if z == 0 or w == 0:
        raise DomainViolation("puncture itself is not a point of the domain")
    if abs(cmath.phase(z / w)) > tol:
        raise DomainViolation("z/w is not a positive real")
    lz = math.log(math.log(1.0 / abs(z) ** 2))
    lw = math.log(math.log(1.0 / abs(w) ** 2))
    return 0.5 * abs(lz - lw)


def pdisk_arc_dist(z, w, tol=1e-9):
    """Arc length |dtheta| / (2 log 1/r) between equal-modulus points.

    This is the length of the circular arc, an upper bound for the
    geodesic distance, not a distance function.
    """
    rz, rw = abs(z), abs(w)
    if rz == 0 or rw == 0:
        raise DomainViolation("puncture itself is not a point of the domain")
    if abs(rz - rw) > tol:
        raise DomainViolation("points must have equal modulus")
    dtheta = math.remainder(cmath.phase(z) - cmath.phase(w), TWO_PI)
    return abs(dtheta) / (2.0 * math.log(1.0 / rz))


def cyl_dist(z, w):
    """Geodesic distance of the flat cylindrical metric on C*."""
    az, aw = np.abs(z), np.abs(w)
    if np.any(az == 0) or np.any(aw == 0):
        raise DomainViolation("cylindrical distance needs nonzero points")
    dlog = np.log(az / aw)
    dtheta = np.angle(np.asarray(z) / np.asarray(w))
    return np.hypot(dlog, dtheta)


def injectivity_radius(p: DomainPoint):
    """Clamped injectivity radius min(pi / (2 log 1/|z|^2), 1) on D*."""
    if p.domain is not Domain.PUNCTURED_DISK:
        raise DomainViolation("injectivity radius is only nontrivial on the punctured disk")
    ell = math.log(1.0 / abs(p.value) ** 2)
    return min(math.pi / (2.0 * ell), 1.0)


def area_A(p: DomainPoint):
    """Hyperbolic area of the disk of radius min(injectivity radius, 1).

    Constant on the unit disk; decays like (log 1/|z|^2)^-2 toward the
    puncture.
    """
    if p.domain is Domain.DISK:
        return DISK_AREA_CONSTANT
    return float(area_A_punctured(p.value))


def area_A_punctured(z):
    """Vectorized area function on the punctured disk."""
    ell = np.log(1.0 / np.abs(z) ** 2)
    t = np.tanh(np.minimum(math.pi / (2.0 * ell), 1.0))
    return math.pi * t * t / (1.0 - t * t)


def cover_P(w):
    """The covering map w -> e^{iw} of the punctured plane."""
    return np.exp(1j * np.asarray(w)) if np.ndim(w) else cmath.exp(1j * w)


def lift_puncture(p) -> LiftedPoint:
    """Fundamental preimage of a punctured-disk point under cover_P.

    Re in [0, 2 pi), Im = log(1/|p|) > 0.
    """
    z = p.value if isinstance(p, DomainPoint) else p
    r = abs(z)
    if r == 0:
        raise DomainViolation("cannot lift the puncture")
    if not r < 1.0:
        raise DomainViolation(f"|z| = {r} >= 1")
    return LiftedPoint(complex(lift_value(z)))


def lift_value(z):
    """Vectorized principal lift (complex array in, complex array out)."""
    z = np.asarray(z)
    return np.angle(z) % TWO_PI + 1j * np.log(1.0 / np.abs(z))
