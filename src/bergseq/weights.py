"""Weight models, logarithmic means, and sequence potentials.

A weight is a scalar function phi whose exponential e^{-phi} dampens the
integration measure.  The model carries phi together with the density of
its Laplacian against the hyperbolic area form (and, on the punctured
disk, against the cylindrical form), which is what all density quotients
consume.

The potentials sigma and lambda of a finite sequence are computed by the
Jensen reduction: the angular mean of log|w - a| on a circle of radius
rho about the center is log max(rho, |a - center|), so the 2-D kernel
integral collapses to one radial mean per point.  On both sides that
mean is computed exactly, without quadrature: it is elementary on the
puncture side and elementary up to a dilogarithm on the border side.
Either way the bound sigma <= 1 stays sharp even at points where it is
attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BergseqError, DomainViolation, WindowViolation
from .geometry import Domain, TWO_PI, _check_domain, _check_finite, _log_L, _mobius, lift_value
from .quadrature import (
    DEFAULT_RULE,
    QuadratureRule,
    _BORDER_RADII,
    _PUNCTURE_RADII,
    _check_radius,
    _circle_means,
    _euclid_weight,
    _hyper_weight,
    _log_kernel,
    a_r_hyperbolic,
    c_r_cyl,
    c_r_disk,
    polar_integral,
)


@dataclass(frozen=True)
class WeightModel:
    """Evaluatable weight with its curvature densities.

    phi maps complex arrays to values (may be -inf at log poles).
    lap_poincare_ratio is Delta phi / omega_P; lap_cyl_ratio is
    Delta phi / omega_c and only meaningful on the punctured disk.

    phi_matches_curvature is not a parameter: custom_weight sets it on
    the disk when phi passes its check against lap_poincare_ratio, and
    only then do the border denominators take circle means of phi (see
    _phi_masses).  Every other weight keeps it False.
    """

    phi: Callable
    lap_poincare_ratio: Callable
    domain: Domain
    lap_cyl_ratio: Optional[Callable] = None
    family: str = "custom"
    params: dict = field(default_factory=dict)
    constant_poincare_ratio: Optional[float] = None
    hypothesis_flags: dict = field(default_factory=dict)
    phi_matches_curvature: bool = field(default=False, init=False)


def standard_disk(s: float) -> WeightModel:
    """phi = s log 1/(1-|z|^2); Delta phi = 2s omega_P exactly."""
    # written so that NaN fails too
    if not 1.0 < s < math.inf:
        raise ValueError(f"standard disk weight needs a finite s > 1, got {s}")
    return WeightModel(
        phi=lambda z: -s * np.log1p(-np.abs(z) ** 2),
        lap_poincare_ratio=lambda z: np.full(np.shape(z), 2.0 * s),
        domain=Domain.DISK,
        family="standard-disk",
        params={"s": s},
        constant_poincare_ratio=2.0 * s,
        hypothesis_flags={"border_lower": s > 1.0},
    )


def standard_puncture(s: float, t: float) -> WeightModel:
    """phi = s log 1/(1-|z|^2) - t log log(1/|z|^2) on the punctured disk.

    Needs s > 1 (border curvature) and t >= 2 (subharmonicity of the
    shifted weight near the puncture).  The strict cylindrical lower
    bound near the puncture fails for every (s, t) in this family, which
    the hypothesis flags record; puncture-side density quotients for it
    are reported but degenerate as the center approaches the puncture.
    """
    # written so that NaN fails too
    if not 1.0 < s < math.inf:
        raise ValueError(f"standard puncture weight needs a finite s > 1, got {s}")
    if not 2.0 <= t < math.inf:
        raise ValueError(f"standard puncture weight needs a finite t >= 2 (the shifted weight is superharmonic"
                         f" at the puncture for t < 2), got {t}")

    def phi(z):
        return -s * np.log1p(-np.abs(z) ** 2) - t * np.log(_log_L(z))

    def ratio_p(z):
        r2 = np.abs(z) ** 2
        return 2.0 * t + 2.0 * s * r2 * _log_L(z) ** 2 / (1.0 - r2) ** 2

    def ratio_c(z):
        # np.log(1.0 / r2) is _log_L(z), from the |z|^2 already at hand: the
        # puncture quotients sample this once per node
        r2 = np.abs(z) ** 2
        return 2.0 * s * r2 / (1.0 - r2) ** 2 + 2.0 * t / np.log(1.0 / r2) ** 2

    return WeightModel(
        phi=phi,
        lap_poincare_ratio=ratio_p,
        domain=Domain.PUNCTURED_DISK,
        lap_cyl_ratio=ratio_c,
        family="standard-puncture",
        params={"s": s, "t": t},
        hypothesis_flags={
            "border_lower": True,
            "puncture_weak": t >= 2.0,
            "puncture_strict": False,
        },
    )


# Points inside the disk and the punctured disk, in the 2-D shape the
# quadrature hands an integrand.
_PROBE = np.array([[0.3, 0.5j], [-0.4 + 0.2j, 0.1 - 0.6j]])
# The lifts and radius at which custom_weight checks phi against its
# cylindrical density; both disks stay in Im w > 1.
_PROBE_LIFTS = np.array([0.7 + 6j, 2.1 + 11j])
_PROBE_R = 4.0
# The centers and radius at which custom_weight checks phi against its
# hyperbolic density on the disk.
_DISK_PROBE = np.array([0.3 + 0.2j, -0.5j])
_DISK_PROBE_R = 0.9


def _vectorized(f):
    """f if it takes a complex array, else f wrapped in np.vectorize."""
    try:
        f(_PROBE)
    except (TypeError, ValueError):
        return np.vectorize(f, otypes=[float])
    return f


def _rel_gap(got, want):
    """The largest |got - want| / max(|want|, 1)."""
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def custom_weight(
    phi,
    lap_poincare_ratio,
    domain: Domain,
    lap_cyl_ratio=None,
    check_tol: float = 1e-8,
    hypothesis_flags: Optional[dict] = None,
) -> WeightModel:
    """Wrap user callables; cross-checks phi and its Laplacian densities.

    Each callable is called once on a small 2-D complex array inside the
    domain.  One that raises TypeError or ValueError there, as a function
    written with `math` does, is taken to be scalar-only and is wrapped
    in np.vectorize, which calls it point by point: correct, but far
    slower than a callable that takes arrays.  Everything downstream
    calls the weight on arrays only.

    check_tol must lie in (0, inf), else ValueError.  Every check below
    compares to check_tol relative to max(|value|, 1).

    On the punctured disk with a lap_cyl_ratio, two checks run at
    construction, and a failure raises ValueError.  The densities must
    satisfy ratio_cyl = ratio_poincare / (log 1/|z|^2)^2, on a radial
    sample grid.  And phi must match them: the puncture denominators come
    from phi alone (see _cover_psi), so at two probe lifts they must agree
    with the 2-D log-kernel integral of the shifted cylindrical density.

    On the disk phi is checked against lap_poincare_ratio: at two probe
    centers and one border radius, the curvature masses from circle means
    of phi (_phi_masses) must agree with the 2-D integrals of the ratio
    (_curvature_masses).  The outcome is recorded as
    phi_matches_curvature, and the border denominators take circle means
    of phi only when it holds.  A weight that fails, or whose phi or ratio
    cannot be evaluated there (a value that is not finite, a mean that
    does not converge), is still returned: its border denominators stay
    2-D integrals of the ratio, and each density sweep under it says so
    in a note.
    """
    if not 0.0 < check_tol < math.inf:
        raise ValueError(f"check_tol must lie in (0, inf), got {check_tol!r}")
    phi, lap_poincare_ratio = _vectorized(phi), _vectorized(lap_poincare_ratio)
    if lap_cyl_ratio is not None:
        lap_cyl_ratio = _vectorized(lap_cyl_ratio)
    weight = WeightModel(
        phi=phi,
        lap_poincare_ratio=lap_poincare_ratio,
        domain=domain,
        lap_cyl_ratio=lap_cyl_ratio,
        family="custom",
        hypothesis_flags=dict(hypothesis_flags or {}),
    )
    if domain is Domain.PUNCTURED_DISK and lap_cyl_ratio is not None:
        zs = np.exp(np.linspace(-8.0, -0.15, 40)) * np.exp(0.7j)
        got = np.asarray(lap_cyl_ratio(zs), dtype=float)
        want = np.asarray(lap_poincare_ratio(zs), dtype=float) / _log_L(zs) ** 2
        if _rel_gap(got, want) > check_tol:
            raise ValueError("inconsistent Laplacian densities between omega_P and omega_c")
        _, ratio = shifted_cyl_weight(weight)
        want = polar_integral(lambda w: ratio(np.exp(1j * w)), _PROBE_LIFTS, 0.0, _PROBE_R, _euclid_weight,
                              _log_kernel(_PROBE_R))
        gap = _rel_gap(_puncture_denominators(weight, _PROBE_LIFTS, (_PROBE_R,))[:, 0], want)
        if gap > check_tol:
            raise ValueError(f"phi does not match its cylindrical Laplacian density: puncture denominators at"
                             f" r = {_PROBE_R:g} about {_PROBE_LIFTS.tolist()} off by {gap:.3g} relative")
    if domain is Domain.DISK:
        # the field is not a parameter of WeightModel, and the weight is frozen
        object.__setattr__(weight, "phi_matches_curvature", _phi_probe(weight, check_tol))
    return weight


def _phi_probe(weight: WeightModel, check_tol):
    """Whether the circle-mean masses of a disk weight's phi match its 2-D curvature masses at the probe (see custom_weight)."""
    radii = (_DISK_PROBE_R,)
    try:
        got = _phi_masses(weight, _DISK_PROBE, radii)
        want = _curvature_masses(weight, _DISK_PROBE, radii)
    except (BergseqError, ArithmeticError, ValueError, TypeError):
        return False
    # a NaN gap compares False
    return _rel_gap(got, want) <= check_tol


def _check_cylindrical(weight: WeightModel):
    """Raise DomainViolation unless the weight has a cylindrical side: the punctured disk and lap_cyl_ratio."""
    if weight.domain is not Domain.PUNCTURED_DISK:
        raise DomainViolation("cylindrical shift only applies on the punctured disk")
    if weight.lap_cyl_ratio is None:
        raise DomainViolation("weight lacks a cylindrical Laplacian density")


def shifted_cyl_weight(weight: WeightModel):
    """psi = phi + 2 log log(1/|z|^2) with Delta psi = Delta phi - 4 omega_P.

    Returns (psi, ratio_cyl_of_psi), the cylindrical-side pair of the
    puncture density.
    """
    _check_cylindrical(weight)

    def psi(z):
        return weight.phi(z) + 2.0 * np.log(_log_L(z))

    def ratio(z):
        return weight.lap_cyl_ratio(z) - 4.0 / _log_L(z) ** 2

    return psi, ratio


def _cover_psi(weight: WeightModel):
    """U(w) = psi(e^{iw}) = phi(e^{iw}) + 2 log(2 Im w): the shifted weight read on the exponential cover.

    On the cover log(1/|z|^2) is 2 Im w exactly, so U takes no log of
    |z|^2 beyond phi's own.  Delta_w U = 2 ratio(e^{iw}), ratio the
    cylindrical density of shifted_cyl_weight, so by Green's formula the
    log(r^2/rho^2)-kernel mass of that density over D_r(q) is 2 pi times
    the mean of U - U(q) on the circle |w - q| = r.  Needs Im w > 0;
    raises DomainViolation unless the weight has a cylindrical side.
    """
    _check_cylindrical(weight)
    phi = weight.phi
    return lambda w: phi(np.exp(1j * w)) + 2.0 * np.log(2.0 * w.imag)


# Rounding of a sample of U (or of phi) that _puncture_denominators (and
# _phi_masses) allows for, relative to the size of U's terms: far above the
# noise of a mean of N samples, about eps / sqrt(N), and far below rel_tol
# times the mean of |U - U(q)| unless psi is harmonic on the circle to about
# that precision.
_U_ROUNDING = 64.0 * np.finfo(float).eps


def _puncture_denominators(weight: WeightModel, lifts, radii):
    """The puncture denominators 2 pi mean [U - U(q)] on |w - q| = r (see _cover_psi): lifts q by radii r.

    One circle-mean loop per radius serves all the lifts.  A sweep's
    circles lie in Im w > 1, where U is real-analytic, so the trapezoid
    rule converges geometrically.  A lift that is not finite, or so deep
    that U is not finite on its circle (past Im w of about 354 for the
    standard weights), raises DomainViolation naming it.

    U = phi + 2 log(2 Im w) can cancel to far below its terms: under
    standard_puncture(s, 2) only s e^{-2 Im w} is left deep in the cusp.
    Its samples then carry rounding of about eps (|phi| + |2 log 2 Im w|),
    and the circle means settle once they agree to _U_ROUNDING times that
    size at the lift, rather than to rel_tol of a mean that is rounding.
    """
    U = _cover_psi(weight)
    lifts = _check_finite(lifts, "lift")
    floor = _U_ROUNDING * (np.abs(weight.phi(np.exp(1j * lifts))) + np.abs(2.0 * np.log(2.0 * lifts.imag)))
    return np.transpose([TWO_PI * _circle_means(U, lifts, r, DEFAULT_RULE, "lift", floor) for r in radii])


def _nested_kernel(radii):
    """One kernel column log(max(r^2/rho^2, 1)) per radius, so that one
    polar_integral over the largest disk gives each disk's kernel mass."""
    r2 = np.square(radii, dtype=float)
    return lambda rho: np.log(np.maximum(r2 / (rho * rho)[:, None], 1.0))


def _curvature_masses(weight: Optional[WeightModel], centers, radii, less=0.0):
    """The log-kernel masses of Delta phi / omega_P - less over D_r(z): a float array, one row per center z.

    A row holds one mass per radius r: the integral of
    (lap_poincare_ratio o phi_z - less) log(r^2/rho^2) over D_r(0)
    against the hyperbolic area form.  It is the border denominator for
    less = 2, unless phi passed custom_weight's check, when the sweep takes
    _phi_masses instead; and the curvature term of the Poisson-Jensen
    balance for less = 0, which so checks such a phi against its ratio
    independently of the sweep.  It also gives custom_weight's check its
    reference.  A weight that declares constant_poincare_ratio c gets
    (c - less) a_r_hyperbolic(r), with no quadrature, and None, the zero
    weight, c = 0; the callers check the centers.  Any other weight gets
    every mass of a center from one polar_integral over D_max(radii)(0),
    with a break at each radius and one kernel column per radius (see
    _nested_kernel), so the pulled-back density is sampled once for all
    of them.  All the centers go to one call, as pull-back points, each
    integrated by its own level loop.
    """
    c = 0.0 if weight is None else weight.constant_poincare_ratio
    if c is not None:
        return np.full((len(centers), len(radii)), [(c - less) * a_r_hyperbolic(r) for r in radii])
    ratio = weight.lap_poincare_ratio
    g = lambda w: ratio(w) - less
    kernel = _nested_kernel(radii)
    # a punctured-disk weight is singular at the puncture, which phi_z
    # pulls back to modulus |z|: a break there keeps the kink off a panel
    puncture = weight.domain is Domain.PUNCTURED_DISK
    breaks = [tuple(radii) + ((abs(z),) if puncture else ()) for z in centers]
    return polar_integral(g, 0.0, 0.0, max(radii), _hyper_weight, kernel, breaks=breaks, pullback=centers)


# The circle means of _phi_masses settle 1000 times finer than DEFAULT_RULE:
# a circle has one error indicator, the difference of two trapezoid sums,
# where a 2-D level has two over many rings.  On 40 lattices of the
# curved-sweep benchmark either tolerance put the curved and the wrapped
# standard_disk(3) denominators within 2.5e-13 of their closed forms (the
# rounding of phi near the rim), and the margin cost a quarter more samples.
_PHI_MEAN_RULE = QuadratureRule(rel_tol=DEFAULT_RULE.rel_tol * 1e-3)


def _phi_masses(weight: WeightModel, centers, radii, less=0.0):
    """_curvature_masses from circle means of phi: an array of one row per center z, one mass per radius r.

    Delta phi = ratio omega_P with omega_P = 2 (1 - |z|^2)^-2 dA, and
    the hyperbolic area form and the ratio are invariant under phi_z, so
    by Green's formula the mass of lap_poincare_ratio - less over D_r(z) is

        2 pi mean_theta [phi(phi_z(r e^{i theta})) - phi(z)] - less a_r(r),

    one circle mean per (z, r) on Mobius-balanced angles (see
    quadrature._circle_means).  The means settle on this difference,
    not on the mean or on the mean of |phi o phi_z - phi(z)|: for
    less = 2 the border denominator is what is left of the mass after
    2 a_r(r), and it can be a small part of it.  They settle to
    _PHI_MEAN_RULE.rel_tol of it, or to the rounding of phi's
    samples (_U_ROUNDING times |phi(z)| + a_r(r)/pi, the mean under
    curvature 2).  phi is sampled near the rim as z and r near 1 ask:
    where 1 - |w|^2 is d, a log weight's samples carry rounding of about
    eps/d, which the 2-D integral of a bounded ratio does not.

    Needs a disk weight whose phi matches its ratio; custom_weight's probe
    checks that, and records it as phi_matches_curvature.
    """
    phi = weight.phi
    centers = _check_domain(centers, name="center")
    size = np.abs(phi(centers))
    masses = []
    for r in radii:
        a_r = a_r_hyperbolic(r)
        floor = _U_ROUNDING * (size + a_r / math.pi)
        means = _circle_means(phi, centers, r, _PHI_MEAN_RULE, "center", floor, _mobius, less * a_r / TWO_PI)
        masses.append(TWO_PI * means - less * a_r)
    return np.transpose(masses)


def _phi_fn(phi):
    return phi.phi if isinstance(phi, WeightModel) else phi


# ---------------------------------------------------------------------------
# Logarithmic means.

def log_mean_disk(phi, r, z):
    """Normalized log-kernel mean of phi over the pseudohyperbolic disk D_r(z).

    Reproduces constants exactly (same-node normalizer) and harmonic
    functions to angular-rule accuracy.  z may be a 1-D array of centers,
    whose means come back as an array, each center's from its own level
    loop.  Raises DomainViolation unless every z lies in the disk and
    0 < r < 1, before any sampling.
    """
    mean = polar_integral(_phi_fn(phi), 0.0, 0.0, r, _hyper_weight, _log_kernel(r), normalized=True, pullback=z)
    return mean if np.ndim(z) else float(mean)


def cutoff(x, c):
    """Smooth increasing cutoff: 0 on [0, c/2], 1 on [c, 1]."""
    t = np.clip((np.asarray(x, dtype=float) - 0.5 * c) / (0.5 * c), 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


_TRUNC_RULE = QuadratureRule(rel_tol=1e-5)


def truncated_log_mean(phi, r, c, z):
    """Log-kernel mean of the weight truncated to |zeta| >= c/2.

    Agrees with log_mean_disk up to a bounded error wherever |z| > c;
    the cutoff makes singular-at-0 weights integrable.  The cutoff is
    only C^2, so its convergence tolerance, _TRUNC_RULE, is looser than
    for smooth integrands.  z may be a 1-D array, as in log_mean_disk.
    Raises DomainViolation unless 0 < c < 1, every z lies in the disk and
    0 < r < 1, before any sampling.
    """
    if not 0.0 < c < 1.0:
        raise DomainViolation(f"cutoff radius must lie in (0, 1), got {c}")
    f = _phi_fn(phi)
    mean = polar_integral(lambda w: cutoff(np.abs(w), c) * f(w), 0.0, 0.0, r, _hyper_weight, _log_kernel(r),
                          _TRUNC_RULE, normalized=True, pullback=z)
    return mean if np.ndim(z) else float(mean)


def _covered_integrand(f, eps):
    """w -> f(e^{iw}), with w lifted into Im w > eps, for polar_integral about lifts.

    Nodes with Im w <= eps are reflected across the line Im w = eps, which
    is the eps-shift-and-reflect extension across the real axis; every
    node then takes one complex exp.  Only extended_covered_mean needs the
    extension: a density sweep takes its lifts with Im q > r + 1 and
    samples psi's density at e^{iw} directly.  Raises DomainViolation
    unless 0 < eps < inf: an infinite eps would reflect every node to
    NaN, and the row sums would excise them all to 0.
    """
    if not 0.0 < eps < math.inf:
        raise DomainViolation(f"eps must be positive and finite, got {eps}")
    return lambda w: f(np.exp(1j * np.where(w.imag > eps, w, np.conjugate(w) + 2j * eps)))


def extended_covered_mean(psi, eps, r, z):
    """Covered mean of a punctured-disk function, extended by reflection.

    The function is lifted through the exponential cover to the upper
    half plane, shifted into the interior by eps, reflected across the
    real axis, and averaged with the Euclidean log kernel over a disk of
    radius r about the lift of z.  2 pi periodicity of the lift makes the
    projected value well defined.  The extension is defined on the whole
    plane, so z may be any nonzero finite point: a lift below the real
    axis averages the reflected values.  Each node takes one complex exp
    (see _covered_integrand).  z may be a 1-D array of points, whose
    means come back as an array, each equal to its own call's.  Raises
    DomainViolation unless 0 < eps < inf and 0 < r < inf.
    """
    if not r > 0:
        raise DomainViolation(f"r must be positive, got {r}")
    # polar_integral checks that the lift, its center, is finite
    integrand = _covered_integrand(_phi_fn(psi), eps)
    mean = polar_integral(integrand, lift_value(z), 0.0, r, _euclid_weight, _log_kernel(r), normalized=True)
    return mean if np.ndim(z) else float(mean)


# ---------------------------------------------------------------------------
# Shared annulus machinery.  Both sides are the same Jensen-reduced
# annulus mean; only the distances to the center, the inner radius and
# the radial density differ.

def _harmonic_term(harmonic, w):
    """log|e^{a w + b}|^2 = 2 Re(a w + b) for harmonic = (a, b); 0 without one."""
    if harmonic is None:
        return 0.0
    a, b = harmonic
    return 2.0 * (a * w + b).real


def _jensen_potential(d, radial_means, harm):
    """(sigma, lambda) from the distances d of the zeros to the center.

    lambda is the log(r^2/rho^2)-weighted mean of log|T|^2 over the
    side's annulus; by Jensen the angular mean of log|w - a|^2 is
    2 log max(rho, |a|), so lambda is the sum over the zeros of
    radial_means(d), the radial means of 2 log max(rho, d).
    sigma = |T|^2 e^{-lambda} at the center.
    """
    if not d.size:
        return 1.0, harm
    lam = float(np.sum(radial_means(d))) + harm
    if np.any(d == 0.0):
        return 0.0, lam
    log_t2 = float(2.0 * np.sum(np.log(d))) + harm
    return float(math.exp(log_t2 - lam)), lam


def _annulus_sums(d, inner, r, kernel_r=None):
    """2 pi sum of log(k^2/rho^2), k = kernel_r (default r), over the rho of each row of d in (inner, r).

    d holds one row of distances per center or lift.  Each row is summed
    whole, zeros outside the annulus included, so a row's sum does not
    depend on the other rows; it can differ from the sum over the annulus
    alone in its last bits, by summation order only.
    """
    k = r if kernel_r is None else kernel_r
    # every entry takes its log, which costs less than a masked ufunc; at
    # d = 0 it is inf, and outside the annulus it is dropped
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.log(k * k / (d * d))
    return TWO_PI * np.where((d > inner) & (d < r), terms, 0.0).sum(axis=1)


def _disk_dists(points, z):
    """Pseudohyperbolic distances |phi_z(gamma)| of checked points to a checked z."""
    return np.abs(_mobius(z, np.asarray(points, dtype=complex)))


# ---------------------------------------------------------------------------
# Sequence potentials (border side).

# The Bernoulli numbers B_2, B_4, ..., B_26 as (numerator, denominator).
_BERNOULLI_EVEN = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
                   (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
                   (-236364091, 2730), (8553103, 6))
# Li2(1 - e^-u) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)!, which converges
# for |u| < 2 pi; the border needs 0 <= u <= log 4, where these 13 terms
# reach double precision.  Integer true division rounds each coefficient once.
_LI2_SERIES = np.array([num / (den * math.factorial(2 * k + 1))
                        for k, (num, den) in enumerate(_BERNOULLI_EVEN, start=1)])


def _li2_complement(u):
    """Li2(1 - t) at t = e^-u, for 0 <= u <= log 4."""
    u2 = u * u
    return u - 0.25 * u2 + u * u2 * (np.vander(u2, len(_LI2_SERIES), increasing=True) @ _LI2_SERIES)


def _narrow_series(n_terms):
    """Taylor coefficients of Phi_k(x) / x^(k+1) for k = 0, 1, 2 (columns).

    In x = log 4t the border measure is (X - x) G(x) dx on (0, X), X = log 4R,
    with G = q/(1 - q)^2 = sum_m m q^m for q = e^x/4, so G has the Taylor
    coefficients sum_m m^(n+1) 4^-m / n!; Phi_k(x) = int_0^x s^k G(s) ds.
    Terms of the sum past m = 200 are below 1e-40 of it.
    """
    m = np.arange(1.0, 200.0)
    g = np.array([(m ** (n + 1) * 0.25 ** m).sum() / math.factorial(n) for n in range(n_terms)])
    return g[:, None] / (np.arange(n_terms)[:, None] + np.arange(1, 4))


# G's nearest pole is at x = log 4, so below _NARROW_X 30 terms reach
# double precision.
_NARROW_SERIES = _narrow_series(30)
_NARROW_X = 0.4


def _border_moments(x):
    """Phi_k(x) = int_0^x s^k G(s) ds for k = 0, 1, 2 (columns), at each 0 <= x <= _NARROW_X."""
    series = np.vander(x, len(_NARROW_SERIES), increasing=True) @ _NARROW_SERIES
    return series * x[:, None] ** np.arange(1, 4)


def _border_radial_means(d, r):
    """Exact means of 2 log max(rho, d) against rho log(r^2/rho^2)(1 - rho^2)^-2 drho on (1/2, r).

    In t = rho^2 the measure is log(R/t)(1 - t)^-2 dt/2 on (1/4, R), R = r^2.
    With D = clip(d^2, 1/4, R) the mean is 2 log max(d, 1/2) + E/N, where N
    and E integrate 1 and log(t/D) against the measure over (1/4, R) and
    (D, R).  So d <= 1/2 takes no log of d, and d >= r gives E = 0 and
    exactly 2 log d.  The antiderivatives log(R/t)/(1 - t) + log(t/(1 - t))
    and log t log(R/t)/(1 - t) - log R log(t/(1 - t)) + log^2 t + 2 Li2(1 - t)
    reduce them to

        N = log(3/4) - log(1 - R) - log(4R)/3,
        E = 2 (Li2(1 - R) - Li2(1 - D)) + log(1/(RD)) log((1 - D)/(1 - R)).

    N vanishes like (R - 1/4)^2 as r -> 1/2, where these lose digits.  For
    X = log 4R below _NARROW_X, N and E come from the moments of
    _border_moments instead, with a = log 4D and dPhi = Phi(X) - Phi(a):

        N = X Phi_0(X) - Phi_1(X),
        E = (X + a) dPhi_1 - dPhi_2 - a X dPhi_0.
    """
    x = np.concatenate(([r], np.clip(d, 0.5, r)))  # sqrt R, then sqrt D per point
    log_4t = 2.0 * np.log1p(2.0 * x - 1.0)
    if log_4t[0] < _NARROW_X:
        X, a = log_4t[0], log_4t[1:]
        phi = _border_moments(log_4t)
        dphi = phi[0] - phi[1:]
        norm = X * phi[0, 0] - phi[0, 1]
        excess = (X + a) * dphi[:, 1] - dphi[:, 2] - a * X * dphi[:, 0]
    else:
        u = -2.0 * np.log(x)  # -log t
        log_c = np.log((1.0 - x) * (1.0 + x))  # log(1 - t)
        li2 = _li2_complement(u)
        norm = math.log(0.75) - log_c[0] - (math.log(4.0) - u[0]) / 3.0
        excess = 2.0 * (li2[0] - li2[1:]) + (u[0] + u[1:]) * (log_c[1:] - log_c[0])
    # E vanishes at d >= r in exact arithmetic; the matrix products need
    # not round the rows of r and of such a d alike, so it is set to 0
    return 2.0 * np.log(np.maximum(d, 0.5)) + np.where(d < r, excess / norm, 0.0)


def border_potential(points, r, z, harmonic=None, rule: QuadratureRule = DEFAULT_RULE):
    """(sigma, lambda) of a border-supported finite sequence at z.

    The zero generator is the finite Blaschke product over the points,
    optionally multiplied by exp(a zeta + b) with harmonic = (a, b); the
    returned sigma is provably independent of that factor.  lambda is the
    kernel-weighted annulus mean of log|T|^2 over 1/2 < |zeta| < r in the
    phi_z coordinates.  The angular integral is Jensen-exact, and the
    radial means are elementary up to a dilogarithm and computed exactly,
    so `rule` has no effect here, as in puncture_potential; it is kept so
    that existing calls still work.
    """
    _check_radius(r, _BORDER_RADII, "border potential")
    d = _disk_dists(_check_domain(points, name="points"), _check_domain(z))
    return _jensen_potential(d, lambda dist: _border_radial_means(dist, r), _harmonic_term(harmonic, z))


def border_density_form(points, r, z):
    """Curvature density of the border potential, as a closed sum.

    Upsilon / (2 omega_P) at z equals (2 pi / c_r) times the sum of
    log(1/rho^2) over the points whose phi_z image lands in the annulus
    1/2 < rho < r.
    """
    d = _disk_dists(_check_domain(points, name="points"), _check_domain(z))
    return float(_annulus_sums(np.reshape(d, (1, -1)), 0.5, r, 1.0)[0] / c_r_disk(r))


# ---------------------------------------------------------------------------
# Sequence potentials (puncture side).

def lifted_translates(points, q, radius):
    """All preimages of the points under the cover within `radius` of q.

    Ordered point by point, and for each point by increasing translate.
    Raises DomainViolation unless q is finite and 0 <= radius < inf.
    """
    _check_finite(q, "the lift q")
    if not 0.0 <= radius < math.inf:
        raise DomainViolation(f"the translate window needs a radius in [0, inf), got {radius}")
    t = _window(_lifted_points(points), q, radius)
    off = t - q
    # hypot, which abs() of a single complex number uses: numpy's array abs
    # can differ from it in the last bit and move a translate across the cutoff
    return t[np.hypot(off.real, off.imag) <= radius]


def _lifted_points(points):
    """The principal lifts of punctured-disk points, as a 1-D array; raises DomainViolation off the domain."""
    return np.atleast_1d(lift_value(_check_domain(points, Domain.PUNCTURED_DISK, "points")))


def _span(radius):
    """The translate window for `radius` (see _window) runs over |k| <= _span(radius)."""
    return int(radius / TWO_PI) + 2


def _window(w, q, radius):
    """The translates w + 2 pi (rint((Re q - Re w)/2 pi) + k), |k| <= _span(radius), of the lifted points w.

    They hold every translate within `radius` of q, and some beyond.  q
    may be an array of lifts; the result has shape q.shape + (w.size, 2 _span(radius) + 1).
    """
    span = _span(radius)
    k = np.rint((np.asarray(q).real[..., None] - w.real) / TWO_PI)[..., None] + np.arange(-span, span + 1)
    return w[:, None] + TWO_PI * k


# The moments int_0^b u^j (b - u) e^{2u} du, j = 0, 1, as power series,
# b^(2+j) sum_n (2b)^n / (n! (n+1+j)(n+2+j)), for b < 1 where their
# closed forms cancel; column j holds the coefficients of moment j.
_SERIES = np.array([[1.0 / (math.factorial(n) * (n + 1 + j) * (n + 2 + j)) for j in (0, 1)]
                    for n in range(25)])


def _cyl_moments(b):
    """e^{-2b} int_0^b u^j (b - u) e^{2u} du for j = 0 and j = 1, at each b >= 0."""
    decay = np.exp(-2.0 * b)
    norm = 0.25 * (1.0 - (1.0 + 2.0 * b) * decay)
    excess = 0.25 * ((b - 1.0) + (b + 1.0) * decay)
    small = b < 1.0
    if np.any(small):
        s = b[small]
        series = np.vander(2.0 * s, len(_SERIES), increasing=True) @ _SERIES
        norm[small] = decay[small] * s * s * series[:, 0]
        excess[small] = decay[small] * s ** 3 * series[:, 1]
    return norm, excess


def _puncture_radial_means(d, r):
    """Exact means of 2 log max(rho, d) against rho log(r^2/rho^2) drho on (1, r).

    In t = log rho the measure is 2 (L - t) e^{2t} dt on (0, L), L = log r,
    and max(t, log d) = a + (t - a)_+ with a = log max(d, 1).  The mean of
    (t - a)_+ is the j = 1 moment of _cyl_moments at L - min(a, L) over
    the j = 0 moment at L; both integrals carry a factor e^{2L}, which the
    moments' e^{-2b} takes out.  So d <= 1 takes no log of d, and d >= r
    gives exactly 2 log d.
    """
    L = math.log(r)
    log_d = np.log(np.maximum(d, 1.0))
    norm, excess = _cyl_moments(np.concatenate(([L], L - np.minimum(log_d, L))))
    return 2.0 * log_d + 2.0 * excess[1:] / norm[0]


def puncture_potential(points, r, z, harmonic=None, rule: QuadratureRule = DEFAULT_RULE):
    """(sigma, lambda) of a puncture-supported sequence, via the cover.

    The generator is the product of (w - gamma) over every lift of the
    sequence within Euclidean distance r + 2 pi of the lift of z; lambda
    is the Euclidean log-kernel annulus mean (inner radius 1, outer r) of
    log|T|^2, Jensen-reduced as on the border side.  Its radial means are
    elementary and computed exactly, so `rule` has no effect here, as in
    border_potential; it is kept so that existing calls still work.  2 pi
    periodicity of the translate set makes the result independent of the
    chosen lift.
    """
    _check_radius(r, _PUNCTURE_RADII, "puncture potential")
    q = complex(lift_value(_check_domain(z, Domain.PUNCTURED_DISK)))
    if q.imag <= r:
        raise WindowViolation(f"lift of z has Im = {q.imag:.3g} <= r = {r}")
    d = np.abs(lifted_translates(points, q, r + TWO_PI) - q)  # lifted_translates checks the points
    if np.size(points) and np.max(np.abs(points)) >= math.exp(-r):
        raise WindowViolation(f"sequence must satisfy |gamma| < e^-r = {math.exp(-r):.3g}")
    return _jensen_potential(d, lambda dist: _puncture_radial_means(dist, r), _harmonic_term(harmonic, q))


def puncture_density_form(points, r, z=None, q=None):
    """Curvature density of the puncture potential at z, or at a lift q of it.

    (1/c_r) sum of log(r^2/|gamma - q|^2) over lifted sequence points in
    the open annulus 1 < |gamma - q| < r; 2 pi periodicity of the
    translate set makes the value independent of the choice of lift.
    Takes exactly one of z and q; raises DomainViolation otherwise, and
    unless 1 < r < inf.
    """
    if (z is None) == (q is None):
        raise DomainViolation("need exactly one of z and a lift q")
    _check_radius(r, _PUNCTURE_RADII, "puncture density form")
    if q is None:
        q = lift_value(_check_domain(z, Domain.PUNCTURED_DISK))
    q = _check_finite(q, "the lift q")
    d = np.abs(_window(_lifted_points(points), q, r) - q).reshape(1, -1)
    return float(_annulus_sums(d, 1.0, r)[0] / (TWO_PI * c_r_cyl(r)))
