"""Closed-form hyperbolic, pseudohyperbolic and cylindrical geometry.

Covers the unit disk and the punctured disk, the exponential covering map
of the punctured plane, the injectivity radius near the puncture, and the
area function that normalizes sequence-data norms.

Conventions: the hyperbolic metric has curvature -4, so its density
against the Euclidean area form dA is 1/(1-|z|^2)^2 on the disk and
1/(|z|^2 (log 1/|z|^2)^2) on the punctured disk.  All area integrals in
the rest of the library consume these coefficients times dA.

Every function here takes scalars or arrays of points, empty ones
included, and returns one value per point.  _check_domain checks points
once, where they enter the library; the private formulas take checked
points.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainViolation

TWO_PI = 2.0 * math.pi

# Hyperbolic area of a disk of geodesic radius 1; constant on the unit
# disk because the automorphism group acts transitively by isometries.
DISK_AREA_CONSTANT = math.pi * math.sinh(1.0) ** 2


class Domain(enum.Enum):
    DISK = "disk"
    PUNCTURED_DISK = "punctured-disk"


def _check_domain(z, domain=Domain.DISK, name="z"):
    """z as a complex array; raises DomainViolation unless every entry lies in the domain.

    The domain needs |z| < 1, and z != 0 on the punctured disk; NaN and
    infinite entries fail.  An empty array passes.  name labels z in the
    message.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    inside = r < 1.0
    if domain is Domain.PUNCTURED_DISK:
        inside &= r > 0.0
    return _require(z, inside, name, domain)


def _check_finite(x, name):
    """x as a complex array; raises DomainViolation, naming its first entry that is not finite."""
    x = np.asarray(x, dtype=complex)
    return _require(x, np.isfinite(x), name, "is not finite")


def _require(z, ok, name, failure):
    """z, unless an entry is not ok: DomainViolation names the first, and says what fails.

    failure is the text, or the Domain that the entry lies outside of:
    its text is made only when a check fails.
    """
    # a scalar's flag is tested by bool(): .all() costs about 2 us a call
    if ok if ok.ndim == 0 else ok.all():
        return z
    if isinstance(failure, Domain):
        failure = f"lies outside the {failure.value}"
    k = int(np.argmin(ok.ravel()))
    where = f"{name}[{k}]" if z.ndim else name
    raise DomainViolation(f"{where} = {z.ravel()[k]} {failure}")


def _mobius(z, zeta):
    """phi_z(zeta) at checked points."""
    return (z - zeta) / (1.0 - np.conjugate(z) * zeta)


# Veltkamp's splitter for doubles, 2^27 + 1.
_SPLITTER = 134217729.0


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _square_error(x, xx):
    """x^2 - xx exactly, xx = fl(x^2), |x| < 1 (Dekker's product, by Veltkamp's split)."""
    c = _SPLITTER * x
    hi = c - (c - x)
    lo = x - hi
    return ((hi * hi - xx) + 2.0 * hi * lo) + lo * lo


def _one_minus_abs2(z):
    """1 - |z|^2 at checked disk points, to about an ulp of the result.

    1 - abs(z)**2 carries the rounding of |z|^2, about 1e-16, whatever
    the result: at |z| = 1 - 1e-9 that is 1e-7 of it.  Here the squares
    and the two subtractions keep their rounding errors, which are added
    back at the end.
    """
    x, y = np.real(z), np.imag(z)
    xx, yy = x * x, y * y
    s, e = _two_sum(1.0, -xx)
    s, f = _two_sum(s, -yy)
    return s + (e + f - _square_error(x, xx) - _square_error(y, yy))


def _hyperbolic(rho, z, w):
    """Geodesic distance of the curvature -4 metric between checked disk points z, w at pseudohyperbolic distance rho.

    It is artanh rho = log1p(2 rho / (1 - rho)) / 2.  With 1 - rho^2 =
    (1 - |z|^2)(1 - |w|^2) / m^2, m = |1 - conj(z) w|, the argument of
    log1p is 2 rho (1 + rho) m^2 / ((1 - |z|^2)(1 - |w|^2)), which does
    not cancel where 1 - rho does: near the circle rho rounds to 1, and
    the distance stays finite.
    """
    u = 1.0 - np.conjugate(z) * w
    m2 = np.real(u) ** 2 + np.imag(u) ** 2
    return 0.5 * np.log1p(2.0 * rho * (1.0 + rho) * m2 / (_one_minus_abs2(z) * _one_minus_abs2(w)))


def _log_L(z):
    """log(1/|z|^2), the scale of the punctured-disk metric, at checked points."""
    return np.log(1.0 / np.abs(z) ** 2)


def _cylindrical(z, w):
    """Flat cylindrical distance at checked points."""
    return np.hypot(np.log(np.abs(z) / np.abs(w)), np.angle(z / w))


def mobius_involution(z, zeta):
    """The disk automorphism swapping 0 and z, evaluated at zeta.

    phi_z(zeta) = (z - zeta) / (1 - conj(z) zeta); z and zeta broadcast.
    """
    return _mobius(_check_domain(z), _check_domain(zeta))


def pseudo_dist(z, w):
    """Pseudohyperbolic distance |phi_z(w)| in [0, 1)."""
    return np.abs(mobius_involution(z, w))


def hyp_dist(z, w):
    """Geodesic distance of the curvature -4 metric on the disk; finite up to the circle."""
    z, w = _check_domain(z), _check_domain(w)
    return _hyperbolic(np.abs(_mobius(z, w)), z, w)


def poincare_coeff(z, domain):
    """Density of the hyperbolic area form against dA at each point of z."""
    z = _check_domain(z, domain)
    r2 = np.abs(z) ** 2
    if domain is Domain.DISK:
        return 1.0 / (1.0 - r2) ** 2
    return 1.0 / (r2 * _log_L(z) ** 2)


def pdisk_radial_dist(z, w, tol=1e-9):
    """Geodesic distance on the punctured disk between points on a common ray.

    Valid only when arg(z/w) = 0; the closed form is
    (1/2) |log log(1/|z|^2) - log log(1/|w|^2)|.
    """
    z = _check_domain(z, Domain.PUNCTURED_DISK)
    w = _check_domain(w, Domain.PUNCTURED_DISK)
    if np.any(np.abs(np.angle(z / w)) > tol):
        raise DomainViolation("z/w is not a positive real")
    return 0.5 * np.abs(np.log(_log_L(z)) - np.log(_log_L(w)))


def cyl_dist(z, w):
    """Geodesic distance of the flat cylindrical metric of C*, between points of the punctured disk."""
    return _cylindrical(_check_domain(z, Domain.PUNCTURED_DISK), _check_domain(w, Domain.PUNCTURED_DISK))


def injectivity_radius(z):
    """Clamped injectivity radius min(pi / (2 log 1/|z|^2), 1) on the punctured disk."""
    return np.minimum(math.pi / (2.0 * _log_L(_check_domain(z, Domain.PUNCTURED_DISK))), 1.0)


def area_A(z, domain):
    """Hyperbolic area of the disk of radius min(injectivity radius, 1) at each point of z.

    Constant on the unit disk; decays like (log 1/|z|^2)^-2 toward the
    puncture.
    """
    if domain is Domain.DISK:
        return np.full(_check_domain(z).shape, DISK_AREA_CONSTANT)[()]
    t = np.tanh(injectivity_radius(z))
    return math.pi * t * t / (1.0 - t * t)


def cover_P(w):
    """The covering map w -> e^{iw} of the punctured plane."""
    return np.exp(1j * np.asarray(w))


# 2^-1024: 1/|z| overflows at and below it, so no lift of such a z is finite.
_NO_LIFT = 2.0 ** -1024


def lift_value(z):
    """Principal lift under cover_P of points of C*: Re in [0, 2 pi), Im = log(1/|z|).

    Im > 0 exactly on the punctured disk.  Not checked: callers that need
    punctured-disk points check them.
    """
    z = np.asarray(z)
    return _lift(z, np.abs(z))


def _lift(z, r):
    """lift_value of z, given r = |z|."""
    return np.angle(z) % TWO_PI + 1j * np.log(1.0 / r)


def _finite_lift(z, name="z", domain=None):
    """lift_value of z, whose lifts must be finite; DomainViolation names the first z whose lift is not.

    Im = log(1/|z|) is finite exactly where 2^-1024 < |z| < inf: 1/|z|
    overflows at and below 2^-1024 (5.6e-309; z = 1e-320, say), and the
    log is -inf at |z| = inf; NaN fails too.  The check comes first, so
    that it, not a numpy warning, refuses such a point.  With a domain,
    the punctured disk, z must also lie in it, and one |z| serves both
    checks and the lift.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    ok = r > _NO_LIFT
    ok &= r < (math.inf if domain is None else 1.0)
    if not (ok if ok.ndim == 0 else ok.all()):
        if domain is not None:
            _check_domain(z, domain, name)
        _require(z, ok, name, "has no finite lift")
    return _lift(z, r)
