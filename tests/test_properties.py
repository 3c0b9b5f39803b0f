"""Property tests of the sequence potentials over generated points and centers.

Both sides run through one Jensen-reduced annulus mean, so each
invariant is checked on the border (disk) side and on the puncture
(cylindrical) side.  Examples are derandomized so that the suite is
reproducible from run to run.
"""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bergseq import (
    BORDER_R_GRID,
    ClassificationVerdict,
    ClassifyParams,
    DEFAULT_RULE,
    FAST_RULE,
    Domain,
    QuadratureRule,
    SequenceSet,
    border_density_ratio,
    border_potential,
    classify,
    custom_weight,
    cyl_dist,
    decompose,
    density_sweep,
    generate_lattice,
    hyp_dist,
    lift_value,
    lifted_translates,
    mobius_involution,
    polar_integral,
    pseudo_dist,
    puncture_density_form,
    puncture_density_ratio,
    puncture_potential,
    shifted_cyl_weight,
    standard_disk,
    standard_puncture,
)
from bergseq import sequences
from bergseq.geometry import TWO_PI
from bergseq.quadrature import _euclid_weight, _hyper_weight, _log_kernel
from bergseq.sequences import (DEFAULT_SPLIT, PUNCTURE_R_GRID, _BORDER, _PUNCTURE, _greedy_separated,
                               _min_disk_pairwise, _min_pairwise, _numerators)
from bergseq.weights import (_border_radial_means, _covered_integrand, _curvature_masses, _disk_dists, _phi_masses,
                             _puncture_radial_means)

PROPS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

angle = st.floats(0.0, 2.0 * math.pi)
disk_point = st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.9), angle)
disk_points = st.lists(disk_point, min_size=1, max_size=6, unique=True)
border_r = st.floats(0.55, 0.95)
harmonic = st.tuples(
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.floats(-2.0, 2.0)
)


@st.composite
def puncture_case(draw):
    """(points, r, z): points with |gamma| < e^-r, z with a lift above Im = r."""
    r = draw(st.floats(1.2, 4.0))
    depths = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5))
    pts = [math.exp(-(r + h)) * cmath.exp(1j * draw(angle)) for h in depths]
    z = math.exp(-(r + draw(st.floats(0.1, 4.0)))) * cmath.exp(1j * draw(angle))
    return np.asarray(pts), r, z


def _automorphism(a, theta):
    return lambda w: cmath.exp(1j * theta) * (a - w) / (1.0 - a.conjugate() * w)


@PROPS
@given(disk_points, border_r, disk_point)
def test_border_sigma_at_most_one(points, r, z):
    sigma, _ = border_potential(points, r, z, rule=FAST_RULE)
    assert 0.0 <= sigma <= 1.0 + 1e-9


@PROPS
@given(puncture_case())
def test_puncture_sigma_at_most_one(case):
    points, r, z = case
    sigma, _ = puncture_potential(points, r, z, rule=FAST_RULE)
    assert 0.0 <= sigma <= 1.0 + 1e-9


@PROPS
@given(disk_points, border_r, disk_point, harmonic)
def test_border_sigma_ignores_harmonic_factor(points, r, z, harm):
    plain, _ = border_potential(points, r, z, rule=FAST_RULE)
    shifted, _ = border_potential(points, r, z, harmonic=harm, rule=FAST_RULE)
    assert math.isclose(shifted, plain, rel_tol=1e-9, abs_tol=1e-12)


@PROPS
@given(puncture_case(), harmonic)
def test_puncture_sigma_ignores_harmonic_factor(case, harm):
    points, r, z = case
    plain, _ = puncture_potential(points, r, z, rule=FAST_RULE)
    shifted, _ = puncture_potential(points, r, z, harmonic=harm, rule=FAST_RULE)
    assert math.isclose(shifted, plain, rel_tol=1e-9, abs_tol=1e-12)


@PROPS
@given(disk_points, border_r, disk_point, disk_point, angle)
def test_border_potential_mobius_invariant(points, r, z, a, theta):
    move = _automorphism(a, theta)
    sigma, lam = border_potential(points, r, z, rule=FAST_RULE)
    sigma_m, lam_m = border_potential([move(p) for p in points], r, move(z), rule=FAST_RULE)
    # both runs take the closed-form radial means, so they agree to rounding
    assert math.isclose(lam_m, lam, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(sigma_m, sigma, rel_tol=1e-12, abs_tol=1e-12)


@PROPS
@given(puncture_case(), angle)
def test_puncture_potential_rotation_invariant(case, theta):
    points, r, z = case
    # lambda counts the translates within r + 2 pi of the lift of z; one
    # that sits on that cutoff can flip with rounding (sigma cannot)
    q = complex(lift_value(z))
    cut = r + 2.0 * math.pi
    assume(np.all(np.abs(np.abs(lifted_translates(points, q, cut + 1.0) - q) - cut) > 1e-9))
    turn = cmath.exp(1j * theta)
    sigma, lam = puncture_potential(points, r, z, rule=FAST_RULE)
    sigma_t, lam_t = puncture_potential(points * turn, r, z * turn, rule=FAST_RULE)
    assert math.isclose(lam_t, lam, rel_tol=1e-6, abs_tol=1e-9)
    assert math.isclose(sigma_t, sigma, rel_tol=1e-6, abs_tol=1e-9)


@PROPS
@given(puncture_case())
def test_puncture_density_form_two_pi_periodic(case):
    points, r, z = case
    q = complex(np.angle(z) % (2.0 * math.pi), math.log(1.0 / abs(z)))
    here = puncture_density_form(points, r, q=q)
    assert math.isclose(puncture_density_form(points, r, q=q + 2.0 * math.pi), here,
                        rel_tol=1e-9, abs_tol=1e-12)


_CURVED = custom_weight(
    lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2,
    lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2,
    Domain.DISK,
)


# a fine reference rule; max_nodes lets uniform angles reach 4096 near the rim
_FINE = QuadratureRule(n_panels=64, n_theta=512, rel_tol=1e-13, max_nodes=2**23)


@PROPS
@given(st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.995, exclude_max=True), angle),
       st.floats(0.55, 0.99))
# the derandomized draws stay below |z| = 0.86; the rim, where uniform
# angles run to 4096 in the reference, is pinned by hand
@example(0.97 * cmath.exp(0.3j), 0.99)
@example(0.994 * cmath.exp(2.0j), 0.99)
@example(-0.994j, 0.9)
def test_curved_border_denominator_is_not_accepted_early(z, r):
    # two levels that agree to rel_tol must carry no larger shared error;
    # the reference samples the explicit pull-back on uniform angles
    got = border_density_ratio([], _CURVED, z, r).denominator
    pulled = lambda zeta: _CURVED.lap_poincare_ratio(mobius_involution(z, zeta)) - 2.0
    ref = polar_integral(pulled, 0.0, 0.0, r, _hyper_weight, _log_kernel(r), _FINE)
    assert math.isclose(got, ref, rel_tol=1e-12)


def _quadratic_weight(a, b, c, eps=0.0):
    """phi = a log 1/(1-|z|^2) + b |z|^2 + c Re z^2, whose density is 2a + 2b (1-|z|^2)^2
    (Re z^2 is harmonic); eps adds eps |z|^4 to phi and nothing to the density."""
    return custom_weight(
        lambda z: -a * np.log1p(-np.abs(z) ** 2) + b * np.abs(z) ** 2 + c * np.real(z * z) + eps * np.abs(z) ** 4,
        lambda z: 2.0 * a + 2.0 * b * (1.0 - np.abs(z) ** 2) ** 2,
        Domain.DISK,
    )


@PROPS
@given(st.floats(1.0, 4.0), st.floats(-0.4, 2.0), st.floats(-2.0, 2.0),
       st.lists(st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.95), angle), min_size=1, max_size=3),
       st.sampled_from(BORDER_R_GRID), st.floats(1e-4, 1.0))
@example(2.0, 1.0, 0.0, [0.95 * cmath.exp(0.3j), 0.0], 0.99, 1e-4)
def test_circle_mean_masses_match_the_2d_integrals(a, b, c, zs, r, eps):
    # Green's formula: the curvature mass over D_r(z) is 2 pi times the circle
    # mean of phi o phi_z - phi(z); a phi off its density by eps |z|^4 fails
    # custom_weight's check and keeps the 2-D denominators
    weight = _quadratic_weight(a, b, c)
    assert weight.phi_matches_curvature
    got = _phi_masses(weight, zs, (r,))
    np.testing.assert_allclose(got, np.array(_curvature_masses(weight, zs, (r,))), rtol=1e-10, atol=0.0)
    assert not _quadratic_weight(a, b, c, eps).phi_matches_curvature


rim_point = st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.995), angle)


@PROPS
@given(st.lists(rim_point, max_size=5), st.floats(0.55, 0.99), st.floats(0.5, 0.99))
# F2; a center whose balanced angles double twice; one whose first
# uniform level settles; each alone, and together with 0 and a repeat
@example([0.97 * cmath.exp(0.3j)], 0.99, 0.9)
@example([0.995 * cmath.exp(2.0j)], 0.99, 0.9)
@example([0.5], 0.99, 0.9)
@example([0.5, 0.97 * cmath.exp(0.3j), 0.0, 0.995 * cmath.exp(2.0j), 0.5], 0.99, 0.9)
def test_vector_pullback_equals_the_scalar_calls_bit_for_bit(zs, r, frac):
    # two nested kernel columns, as in the border quotients
    radii = (frac * r, r)
    kernel = lambda rho: np.log(np.maximum(np.square(radii) / (rho * rho)[:, None], 1.0))
    pulled = lambda w: _CURVED.lap_poincare_ratio(w) - 2.0
    integral = lambda z: polar_integral(pulled, 0.0, 0.0, r, _hyper_weight, kernel, breaks=radii, pullback=z)
    got = integral(zs)
    assert got.shape == (len(zs), 2)
    want = np.array([integral(z) for z in zs]).reshape(-1, 2)
    assert got.tobytes() == want.tobytes()


punctured_point = st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.05, 0.9), angle)


@PROPS
@given(st.lists(punctured_point, max_size=5), st.floats(0.55, 0.99))
# the break at the pulled-back puncture |z| gives each point its own grid,
# and a repeated point shares its grid with its twin
@example([0.3, 0.61 * cmath.exp(2.0j), 0.3], 0.99)
def test_per_point_breaks_equal_the_scalar_calls_bit_for_bit(zs, r):
    # the punctured-disk border quotients: a break at each radius and at |z|
    weight = standard_puncture(2.0, 3.0)
    radii = (0.5, r)
    kernel = lambda rho: np.log(np.maximum(np.square(radii) / (rho * rho)[:, None], 1.0))
    pulled = lambda w: weight.lap_poincare_ratio(w) - 2.0
    integral = lambda z, breaks: polar_integral(pulled, 0.0, 0.0, r, _hyper_weight, kernel, breaks=breaks,
                                                pullback=z)
    breaks = [radii + (abs(z),) for z in zs]
    got = integral(zs, breaks)
    assert got.shape == (len(zs), 2)
    want = np.array([integral(z, b) for z, b in zip(zs, breaks)]).reshape(-1, 2)
    assert got.tobytes() == want.tobytes()


lift_offset = st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 12.0))


@PROPS
@given(st.lists(lift_offset, max_size=5), st.floats(1.5, 8.0), st.floats(0.2, 0.9))
# a lift whose disk just clears the reflection line, one far above it,
# and a repeat
@example([(0.0, 0.0), (3.0, 9.0), (0.0, 0.0)], 4.0, 0.5)
def test_vector_center_equals_the_scalar_calls_bit_for_bit(offsets, r, frac):
    # the lifted density about each lift q with Im q > r + 1, with two
    # nested kernel columns
    qs = [complex(x, r + 1.0 + h) for x, h in offsets]
    radii = (frac * r, r)
    kernel = lambda rho: np.log(np.maximum(np.square(radii) / (rho * rho)[:, None], 1.0))
    density = _covered_integrand(shifted_cyl_weight(standard_puncture(2.0, 3.0))[1], 0.1)
    integral = lambda q: polar_integral(density, q, 0.0, r, _euclid_weight, kernel, breaks=radii)
    got = integral(qs)
    assert got.shape == (len(qs), 2)
    want = np.array([integral(q) for q in qs]).reshape(-1, 2)
    assert got.tobytes() == want.tobytes()


@PROPS
@given(st.lists(lift_offset, min_size=1, max_size=5), st.lists(st.floats(1.5, 20.0), min_size=1, max_size=3, unique=True))
# a repeated lift on Im w = r + 1, which admits no radius, and a lift
# whose disks just clear Im w = r + 1
@example([(0.0, 1.0), (1.0, 3.0 + 1e-9), (0.0, 1.0)], [4.0, 2.0])
# the default grid, whose windows run over |k| <= 2, 3 and 4, with two
# lifts that admit every radius and one that admits r = 4 only
@example([(0.5, 13.0 + 1e-9), (3.0, 14.0), (1.0, 5.0)], [4.0, 8.0, 16.0])
def test_batched_puncture_quotients_equal_the_single_lift_calls_bit_for_bit(offsets, radii):
    # each lift's quotients are those of its own call, whichever lifts
    # share the batch, and each radius's are those of its own call, whose
    # window is the middle of the widest radius's; a denominator is taken
    # where Im q > r + 1, and is NaN elsewhere
    radii = tuple(sorted(radii))
    lifts = np.array([complex(x, radii[0] + h) for x, h in offsets])
    points = np.exp(-np.arange(1.0, 12.0)) * np.exp(0.3j * np.arange(11))
    weight = standard_puncture(2.0, 3.0)

    def quotients(lifts, radii):
        # the numerators, then the denominators: one row per lift
        lifts = np.asarray(lifts, dtype=complex)
        return np.hstack((_numerators(_PUNCTURE, points, lifts, radii)[0],
                          _PUNCTURE.denominators(weight, lifts, radii)))

    got = quotients(lifts, radii)
    admitted = lifts.imag[:, None] > np.array(radii) + 1.0
    assert np.array_equal(np.isnan(got[:, len(radii):]), ~admitted)
    assert got.tobytes() == np.vstack([quotients([q], radii) for q in lifts]).tobytes()
    for j, r in enumerate(radii):
        assert got[:, [j, len(radii) + j]].tobytes() == quotients(lifts, (r,)).tobytes()
    for k, j in zip(*np.nonzero(admitted)):
        assert got[k, [j, len(radii) + j]].tobytes() == quotients([lifts[k]], (radii[j],)).tobytes()


@PROPS
@given(st.floats(0.2, 2.5), st.integers(1, 3), st.integers(1, 30))
# the 40-point lattice on which a sweep under the old eps = 1.5 took the lift
# 9.1j at r = 8, whose disk reached that extension's kinked line Im w = 1.5
@example(0.7, 2, 40)
def test_sweep_takes_exactly_the_star_lifts_with_im_q_above_r_plus_1(s, n, count):
    # both ways: every puncture report has Im q > r + 1, and every lift of
    # the star part with Im q > r + 1 has a report at r
    star, _ = decompose(generate_lattice("puncture-exponential", count, s=s, n=n), DEFAULT_SPLIT)
    assume(len(star))
    sweep = density_sweep(star, standard_puncture(2.0, 3.0))
    got = {(rep.center, rep.radius) for rep in sweep.reports}
    assert all(rep.kind == "puncture" and rep.center.imag > rep.radius + 1.0 for rep in sweep.reports)
    assert all(math.isfinite(rep.denominator) for rep in sweep.reports)
    lifts = np.atleast_1d(lift_value(star.array()))
    assert got == {(complex(q), r) for q in lifts for r in PUNCTURE_R_GRID if q.imag > r + 1.0}
    assert len(got) == len(sweep.reports)


def _check_superset_sweep(points, extra, centers, weight):
    assume(extra not in points)
    small = density_sweep(SequenceSet(points, Domain.DISK), weight, centers=centers)
    big = density_sweep(SequenceSet(points + [extra], Domain.DISK), weight, centers=centers)
    assert big.border_estimate >= small.border_estimate
    for a, b in zip(small.reports, big.reports):
        assert (a.center, a.radius, a.denominator) == (b.center, b.radius, b.denominator)
        assert b.numerator >= a.numerator


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(disk_points, disk_point, st.lists(disk_point, min_size=1, max_size=4))
def test_adding_a_point_never_lowers_the_border_estimate(points, extra, centers):
    _check_superset_sweep(points, extra, centers, standard_disk(2.0))


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(disk_points, disk_point, st.lists(disk_point, min_size=1, max_size=2))
def test_adding_a_point_never_lowers_the_curved_border_estimate(points, extra, centers):
    _check_superset_sweep(points, extra, centers, _CURVED)


def _greedy_oracle(cands, sep, limit):
    """The separated-set loop written pair by pair."""
    kept = []
    for c in cands:
        if len(kept) >= limit:
            break
        if all(pseudo_dist(c, o) >= sep for o in kept):
            kept.append(c)
    return np.asarray(kept, dtype=complex)


inner_point = st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.99), angle)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(inner_point, min_size=1, max_size=80),
       st.floats(0.05, 0.95, exclude_min=True), st.integers(1, 60))
def test_greedy_separated_matches_pairwise_loop(cands, sep, limit):
    cands = np.asarray(cands, dtype=complex)
    got = _greedy_separated(cands, sep, limit)
    assert got.tobytes() == _greedy_oracle(cands, sep, limit).tobytes()


# The quadrature oracle's kernel weights log(r^2/rho^2) lose relative
# precision as r -> 1 (about 3e-11 at r = 1 + 1e-5), so r starts at 1.001.
@st.composite
def radial_case(draw):
    """(d, r): translate distances below 1, inside (1, r) and beyond r, with 0, 1 and r."""
    r = draw(st.floats(1.001, 20.0))
    below = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))
    inside = draw(st.lists(st.floats(1.0, r, exclude_min=True, exclude_max=True), max_size=4))
    beyond = draw(st.lists(st.floats(r, r + TWO_PI), max_size=3))
    return np.asarray([0.0, 1.0, r] + below + inside + beyond), r


def _radial_log_mean(g, rho_lo, r, radial_weight, breaks):
    """The means of the profile columns g(rho) against log(r^2/rho^2) radial_weight(rho) rho drho on
    (rho_lo, r): one polar_integral of 1 against the kernel columns (k, k g_1, ..., k g_m)."""
    kernel = _log_kernel(r)

    def columns(rho):
        k = kernel(rho)
        return np.column_stack((k, k[:, None] * g(rho)))

    est = polar_integral(lambda z: 1.0, 0.0, rho_lo, r, radial_weight, columns, DEFAULT_RULE, breaks)
    return est[1:] / est[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(radial_case())
def test_puncture_radial_means_match_quadrature(case):
    d, r = case
    g = lambda rho: 2.0 * np.log(np.maximum(rho[:, None], d[None, :]))
    # node doubling never splits the lower half of (1, r); without extra
    # breaks there the oracle is off by 6e-10 relative at r = 19.9
    breaks = np.concatenate((d, np.linspace(1.0, r, 17)))
    want = _radial_log_mean(g, 1.0, r, _euclid_weight, breaks)
    got = _puncture_radial_means(d, r)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    beyond = d >= r
    assert np.array_equal(got[beyond], 2.0 * np.log(d[beyond]))  # sigma <= 1 stays sharp


@st.composite
def border_radial_case(draw):
    """(d, r): distances below 1/2, inside (1/2, r) and from r up to 1, with 0, 1/2 and r."""
    r = draw(st.floats(0.501, 0.9999))
    below = draw(st.lists(st.floats(0.0, 0.5, exclude_max=True), max_size=3))
    inside = draw(st.lists(st.floats(0.5, r, exclude_min=True, exclude_max=True), max_size=4))
    beyond = draw(st.lists(st.floats(r, 1.0, exclude_max=True), max_size=3))
    return np.asarray([0.0, 0.5, r] + below + inside + beyond), r


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(border_radial_case())
def test_border_radial_means_match_quadrature(case):
    d, r = case
    g = lambda rho: 2.0 * np.log(np.maximum(rho[:, None], d[None, :]))
    # extra breaks, because node doubling never splits the middle panels
    breaks = np.concatenate((d, np.linspace(0.5, r, 17)))
    want = _radial_log_mean(g, 0.5, r, _hyper_weight, breaks)
    got = _border_radial_means(d, r)
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-13))
    beyond = d >= r
    assert np.array_equal(got[beyond], 2.0 * np.log(d[beyond]))  # sigma <= 1 stays sharp


def _translates_by_loop(points, q, radius):
    """lifted_translates written point by point and translate by translate."""
    out = []
    for w in np.atleast_1d(lift_value(np.asarray(points, dtype=complex))):
        k0 = round((q.real - w.real) / TWO_PI)
        span = int(radius / TWO_PI) + 2
        for k in range(k0 - span, k0 + span + 1):
            t = w + TWO_PI * k
            if abs(t - q) <= radius:
                out.append(t)
    return np.asarray(out, dtype=complex)


@st.composite
def translate_case(draw):
    """(points, q, radius), some points with a lift about `radius` from q."""
    radius = draw(st.floats(1.0, 20.0))
    q = complex(draw(st.floats(-10.0, 10.0)), radius + draw(st.floats(0.1, 5.0)))
    band = st.builds(
        lambda a, eps, k: q + (radius + eps) * cmath.exp(1j * a) + TWO_PI * k,
        angle, st.sampled_from([-1e-9, -1e-15, 0.0, 1e-15, 1e-9]), st.integers(-3, 3),
    )
    free = st.builds(complex, st.floats(-30.0, 30.0), st.floats(0.05, 30.0))
    lifts = draw(st.lists(st.one_of(band, free), max_size=8))
    points = np.asarray([cmath.exp(1j * w) for w in lifts if w.imag > 0.01], dtype=complex)
    return points, q, radius


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(translate_case())
def test_lifted_translates_match_loop(case):
    points, q, radius = case
    got = lifted_translates(points, q, radius)
    want = _translates_by_loop(points, q, radius)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The blocked pairwise kernels of the sequence layer against one point at a
# time, on inputs large enough to span many blocks of _BLOCK_NODES entries.

def _disk_cloud(seed, n, rmax=0.99):
    """n points with pseudohyperbolic radius uniform in [0, rmax)."""
    gen = np.random.default_rng(seed)
    return rmax * gen.random(n) * np.exp(2j * math.pi * gen.random(n))


@st.composite
def greedy_case(draw):
    """(cands, sep, limit): up to 600 candidates, the origin first, and the
    eight images of one point w under the exact symmetries z -> -z, conj z,
    i z at random places.  sep = |w|, so each image lies at distance
    exactly sep from the origin, which is always kept."""
    n = draw(st.integers(1, 590))
    cands = list(_disk_cloud(draw(st.integers(0, 2 ** 32 - 1)), n))
    w = draw(disk_point)
    a, b = w.real, w.imag
    for img in (complex(a, b), complex(-a, -b), complex(a, -b), complex(-a, b),
                complex(b, a), complex(-b, -a), complex(b, -a), complex(-b, a)):
        cands.insert(draw(st.integers(0, len(cands))), img)
    sep = float(pseudo_dist(w, 0.0))
    assume(0.05 < sep)
    limit = draw(st.integers(1, len(cands) + 1))
    return np.asarray([0.0] + cands, dtype=complex), sep, limit


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(greedy_case())
def test_blocked_greedy_matches_pairwise_loop_across_blocks(case):
    cands, sep, limit = case
    got = _greedy_separated(cands, sep, limit)
    assert got.tobytes() == _greedy_oracle(cands, sep, limit).tobytes()


def _min_by_rows(points, dist):
    """The least pairwise distance, one point against every later one at a time."""
    return min(float(np.min(dist(points[i], points[i + 1:]))) for i in range(points.size - 1))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 400), st.integers(0, 2 ** 32 - 1))
def test_blocked_min_pairwise_matches_row_loop(n, seed):
    disk = _disk_cloud(seed, n)
    punctured = np.exp(-5.0 * np.random.default_rng(seed + 1).random(n)) * disk / np.abs(disk)
    for points, dist in ((disk, pseudo_dist), (disk, hyp_dist), (punctured, cyl_dist)):
        assert _min_pairwise(points, dist) == _min_by_rows(points, dist)
    # the windowed scan of the disk metric, from 96 points on
    assert _min_disk_pairwise(disk) == _min_by_rows(disk, pseudo_dist)
    assert _min_disk_pairwise(disk, hyperbolic=True) == _min_by_rows(disk, hyp_dist)


def _rim_cloud(seed, n):
    """About n points with 1 - |z| = 10^-e, e uniform in [0, 9].  A share of
    them lie within 1e-12 to 0.1 below arg = pi, each with its conjugate
    just above -pi, and two sit on the negative axis, at arg pi and -pi."""
    gen = np.random.default_rng(seed)
    rho = 1.0 - 10.0 ** -gen.uniform(0.0, 9.0, n)
    theta = gen.uniform(-math.pi, math.pi, n)
    near = gen.random(n) < gen.random()
    theta[near] = math.pi - 10.0 ** -gen.uniform(1.0, 12.0, near.sum())
    pts = rho * np.exp(1j * theta)
    return np.concatenate((pts, np.conj(pts[near]), [complex(-0.9, 0.0), complex(-0.95, -0.0)]))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 160), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.sampled_from([0, 1, 8, sequences._WINDOWED_FROM]))
def test_windowed_scans_match_the_loops_at_the_rim_and_across_the_cut(n, seed, sep, windowed_from):
    # windowed_from moves the switch from the dense to the windowed scans,
    # so that small clouds take the windows too
    # two points 1e-8 from the circle can lie at a pseudohyperbolic
    # distance that rounds to 1; their hyperbolic distance stays finite
    pts = _rim_cloud(seed, n)
    with mock.patch.object(sequences, "_WINDOWED_FROM", windowed_from):
        got = _greedy_separated(pts, sep, pts.size)
        least = _min_disk_pairwise(pts), _min_disk_pairwise(pts, hyperbolic=True)
    assert got.tobytes() == _greedy_oracle(pts, sep, pts.size).tobytes()
    assert least == (_min_by_rows(pts, pseudo_dist), _min_by_rows(pts, hyp_dist))
    assert math.isfinite(least[1])


def test_windows_keep_the_pairs_on_their_edge():
    # f is the foot of the perpendicular from c to the ray at the edge of
    # c's window for sep, so it lies at distance sep from c up to rounding:
    # a window without its slack drops some of these pairs, and the greedy
    # then keeps a c that the loop, reading a distance just below sep, drops
    gen = np.random.default_rng(5)
    with mock.patch.object(sequences, "_WINDOWED_FROM", 0):
        for _ in range(400):
            sep = gen.uniform(0.05, 0.95)
            a = 1.0 - (1.0 - sep) * 10.0 ** -gen.uniform(0.0, 6.0)
            d, h = 2.0 * math.atanh(a), 2.0 * math.atanh(sep)
            delta = math.asin(math.sinh(h) / math.sinh(d)) * gen.choice([-1.0, 1.0])
            theta = gen.uniform(-math.pi, math.pi)
            c = np.asarray([a * cmath.exp(1j * theta)])
            f = np.asarray([math.tanh(0.5 * math.acosh(math.cosh(d) / math.cosh(h))) * cmath.exp(1j * (theta + delta))])
            # one chunk each, so that c is screened against f through c's window
            got = sequences._greedy_chunks((f, c), 2, sep, 2)
            assert got.tobytes() == _greedy_oracle(np.concatenate((f, c)), sep, 2).tobytes()


@pytest.mark.parametrize("seed, margin", [(1, 0.05), (4, 0.001)])
def test_center_net_matches_the_pairwise_loop_on_its_candidates(monkeypatch, seed, margin):
    # uncapped, the net keeps past sequences._WINDOWED_FROM centers, so its
    # greedy screens through the argument windows; the sweeps' cap of one
    # past CENTER_CAP screens its last center in blocks of its own
    greedy, seen = sequences._greedy_separated, []

    def recorded(cands, sep, limit):
        seen.append((cands, sep, limit))
        return greedy(cands, sep, limit)

    monkeypatch.setattr(sequences, "_greedy_separated", recorded)
    pts = generate_lattice("hyperbolic-disk", 40, seed=seed, d=0.35, margin=margin).array()
    for cap in (sequences.CENTER_CAP, sequences.CENTER_CAP + 1, 10 ** 6):
        net = sequences.center_net(pts, 0.3, max_centers=cap)
        cands, sep, limit = seen.pop()
        assert net.tobytes() == _greedy_oracle(cands, sep, limit).tobytes()
    assert net.size > sequences._WINDOWED_FROM


def _fsum_numerator(side, points, center, r):
    """2 pi times the correctly rounded sum of log(r^2/rho^2) over the side's squared distances rho^2 in (inner^2, r^2).

    The squared distances are the kernel's own (side.dists), so the sum
    differs from a numerator by summation order only.
    """
    sq = side.dists(*side.prepare(points, [center]), r).ravel()
    sq = sq[(sq > side.inner ** 2) & (sq < r * r)]
    return TWO_PI * math.fsum(np.log(r * r / sq))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 400), st.integers(1, 70), st.integers(0, 2 ** 32 - 1))
def test_blocked_sweep_numerators_match_per_center_sums(n, n_centers, seed):
    points = _disk_cloud(seed, n, 0.95)
    centers = _disk_cloud(seed + 1, n_centers, 0.9)
    reports = density_sweep(SequenceSet(tuple(points), Domain.DISK), standard_disk(2.0), centers=centers).reports
    assert len(reports) == len(BORDER_R_GRID) * n_centers
    for i, rep in enumerate(reports):
        r, c = BORDER_R_GRID[i // n_centers], centers[i % n_centers]
        want = _fsum_numerator(_BORDER, points, c, r)
        # a block sums a center's terms in another order, which moves only the last bits
        assert rep.numerator == pytest.approx(want, rel=1e-15, abs=0.0)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
def test_blocked_puncture_numerators_match_per_lift_sums(n, seed):
    gen = np.random.default_rng(seed)
    points = np.exp(-gen.uniform(1.0, 12.0, n)) * np.exp(2j * math.pi * gen.random(n))
    seq = SequenceSet(tuple(points), Domain.PUNCTURED_DISK)
    reports = density_sweep(seq, standard_puncture(2.0, 3.0), r_grid=(2.0, 5.0)).reports
    for rep in reports:
        q, r = rep.center, rep.radius
        want = _fsum_numerator(_PUNCTURE, points, q, r)
        assert rep.numerator == pytest.approx(want, rel=1e-15, abs=0.0)


# 2 pi to 40 digits, for the exact references below
_TWO_PI_40 = Decimal("6.283185307179586476925286766559005768394")


def _exact_numerators(squares, inner, radii):
    """2 pi sum of log(r^2/rho^2) over the exact squared distances in (inner^2, r^2), one per radius, to 40 digits.

    squares are Fractions.  A distance within a relative 1e-9 of an edge
    (2e-9 in its square) could fall on either side of it in the kernel's
    rounding, and move a whole term: such a case is skipped.
    """
    numerators = []
    with localcontext() as ctx:
        ctx.prec = 40
        for r in radii:
            total = Decimal(0)
            for sq in squares:
                # float(sq) is within an ulp of sq, far inside the 2e-9
                approx = float(sq)
                assume(abs(approx / (inner * inner) - 1.0) > 2e-9 and abs(approx / (r * r) - 1.0) > 2e-9)
                if inner * inner < approx < r * r:
                    ratio = Fraction(r) ** 2 / sq
                    total += (Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln()
            numerators.append(float(_TWO_PI_40 * total))
    return np.array(numerators)


def _exact_rho2(c, w):
    """|phi_c(w)|^2 = |c - w|^2 / |1 - conj(c) w|^2, exactly, for the double points c and w."""
    cx, cy, wx, wy = (Fraction(x) for x in (c.real, c.imag, w.real, w.imag))
    return ((cx - wx) ** 2 + (cy - wy) ** 2) / ((1 - cx * wx - cy * wy) ** 2 + (cx * wy - cy * wx) ** 2)


def _exact_translate_squares(w, q, r):
    """|w + 2 pi k - q|^2 of the translates within r + 1 of q: exact for the double lifts w and q, 2 pi to 40 digits."""
    two_pi = Fraction(_TWO_PI_40)
    dy2 = (Fraction(w.imag) - Fraction(q.imag)) ** 2
    lo = math.floor((q.real - w.real - r - 1.0) / TWO_PI)
    hi = math.ceil((q.real - w.real + r + 1.0) / TWO_PI)
    return [(Fraction(w.real) + two_pi * k - Fraction(q.real)) ** 2 + dy2 for k in range(lo, hi + 1)
            if abs(w.real + TWO_PI * k - q.real) < r + 1.0 and abs(w.imag - q.imag) < r + 1.0]


# moduli of a cloud, and of rim points down to 1 - |z| = 1e-9
rim_modulus = st.one_of(st.floats(0.0, 0.95), st.floats(1.0, 9.0).map(lambda t: 1.0 - 10.0 ** -t))
rim_point = st.builds(lambda m, t: m * cmath.exp(1j * t), rim_modulus, angle)


@st.composite
def border_numerator_case(draw):
    """(points, centers): up to three centers, rim centers among them, with the
    images under phi_c of points at rho in (0.4, 1), which land in or near
    c's annuli; a cloud; and conjugate pairs across arg = +-pi."""
    centers = draw(st.lists(rim_point, min_size=1, max_size=3))
    points = []
    for c in centers:
        rings = draw(st.lists(st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.4, 0.995), angle),
                              max_size=5))
        points.extend(complex(mobius_involution(c, u)) for u in rings)
    points.extend(draw(st.lists(rim_point, max_size=4)))
    for m, e in draw(st.lists(st.tuples(rim_modulus, st.floats(0.0, 1e-3)), max_size=2)):
        z = m * cmath.exp(1j * (math.pi - e))
        points.extend((z, z.conjugate()))
    return np.array([w for w in points if abs(w) < 1.0], dtype=complex), np.array(centers)


@st.composite
def puncture_numerator_case(draw):
    """(points, lifts): up to three lifts q, with punctured-disk points whose
    lifts or their translates lie within 18 of q, and conjugate pairs
    across arg = 0, where a lift's real part wraps from 2 pi to 0."""
    lifts = draw(st.lists(st.builds(complex, st.floats(-20.0, 20.0), st.floats(5.0, 40.0)), min_size=1, max_size=3))
    points = []
    for q in lifts:
        for dx, dy in draw(st.lists(st.tuples(st.floats(-18.0, 18.0), st.floats(-17.0, 17.0)), max_size=6)):
            points.append(cmath.exp(1j * (q + complex(dx, dy))))
        for dy, e in draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1e-3)), max_size=1)):
            z = cmath.exp(1j * complex(e, q.imag + dy))
            points.extend((z, z.conjugate()))
    return np.array([z for z in points if 0.0 < abs(z) < 1.0], dtype=complex), np.array(lifts)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(border_numerator_case())
# a center 1e-9 from the circle, with points at rho = 0.7 and 0.93 about it
@example((np.array([complex(mobius_involution(0.999999999 * cmath.exp(0.3j), u)) for u in (0.7, 0.93j)]),
          np.array([0.999999999 * cmath.exp(0.3j)])))
def test_border_numerators_match_an_exact_reference(case):
    # rho^2 from real squared distances and 1 - |.|^2 stays within a few
    # ulps up to the circle; |phi_c(w)| loses about 1e-16 / |1 - conj(c) w|
    # relative to the cancellation in 1 - conj(c) w
    points, centers = case
    got = _numerators(_BORDER, points, centers, BORDER_R_GRID)[0]
    for k, c in enumerate(centers):
        want = _exact_numerators([_exact_rho2(c, w) for w in points], 0.5, BORDER_R_GRID)
        assert np.all(np.abs(got[k] - want) <= 1e-13 * np.maximum(1.0, want)), (c, got[k], want)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(puncture_numerator_case())
def test_puncture_numerators_match_an_exact_reference(case):
    # every translate of every lifted point, on the cover, at every radius
    # of the grid
    points, lifts = case
    got = _numerators(_PUNCTURE, points, lifts, PUNCTURE_R_GRID)[0]
    w = lift_value(points)
    for k, q in enumerate(lifts):
        squares = [sq for p in w for sq in _exact_translate_squares(p, q, PUNCTURE_R_GRID[-1])]
        want = _exact_numerators(squares, 1.0, PUNCTURE_R_GRID)
        assert np.all(np.abs(got[k] - want) <= 1e-13 * np.maximum(1.0, want)), (q, got[k], want)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.85), angle), min_size=1,
                max_size=12),
       st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.85), angle),
       st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.85), angle),
       st.floats(1.05, 4.0))
def test_border_quotient_is_mobius_invariant(points, z, a, s):
    # phi_a is a disk automorphism, so |phi_{phi_a(z)}(phi_a(w))| = |phi_z(w)|:
    # each term of the numerator moves by rounding only, and under constant
    # curvature the denominator does not depend on the center.  A distance
    # at an edge of (1/2, r) could cross it and move a whole term.
    pts = np.asarray(points)
    images, z_image = mobius_involution(a, pts), complex(mobius_involution(a, z))
    weight = standard_disk(s)
    for r in BORDER_R_GRID:
        for d in (_disk_dists(pts, z), _disk_dists(images, z_image)):
            assume(np.all(np.abs(d - 0.5) > 1e-9) and np.all(np.abs(d - r) > 1e-9))
        want = border_density_ratio(pts, weight, z, r)
        got = border_density_ratio(images, weight, z_image, r)
        assert got.numerator == pytest.approx(want.numerator, rel=1e-12, abs=0.0)
        assert got.denominator == want.denominator


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PUNCTURE_R_GRID), st.floats(0.0, TWO_PI), st.floats(0.5, 4.0), st.floats(-TWO_PI, TWO_PI),
       st.lists(st.tuples(st.floats(-1.0, 1.0), angle), min_size=1, max_size=10))
def test_puncture_quotient_is_rotation_invariant_on_the_cover(r, x, h, t, offsets):
    # a rotation z -> e^{it} z of the punctured disk is the shift w -> w + t
    # of the cover, and the weight is radial: the quotient at the shifted
    # lift q + t of the turned points is the one at q.  A translate distance
    # at an edge of (1, r) could cross it and move a whole term.
    q = complex(x, r + 1.0 + h)
    points = np.array([math.exp(-(q.imag + dy * r)) * cmath.exp(1j * theta) for dy, theta in offsets])
    turned = points * cmath.exp(1j * t)
    for pts, lift in ((points, q), (turned, q + t)):
        d = np.abs(lifted_translates(pts, lift, r + 1.0) - lift)
        assume(np.all(np.abs(d - 1.0) > 1e-9) and np.all(np.abs(d - r) > 1e-9))
    weight = standard_puncture(2.0, 3.0)
    want = puncture_density_ratio(points, weight, q, r)
    got = puncture_density_ratio(turned, weight, q + t, r)
    assert got.numerator == pytest.approx(want.numerator, rel=1e-12, abs=0.0)
    assert got.denominator == pytest.approx(want.denominator, rel=1e-12, abs=0.0)


def _curved_disk_weight():
    """phi = 2 log 1/(1-|z|^2) + |z|^2, whose Delta phi / omega_P is 4 + 2 (1-|z|^2)^2."""
    return custom_weight(lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2,
                         lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2, Domain.DISK)


_KEPT_HALF_WEIGHTS = {
    Domain.DISK: (standard_disk(2.0), standard_disk(3.0), _curved_disk_weight()),
    Domain.PUNCTURED_DISK: (standard_puncture(2.0, 3.0), standard_puncture(3.0, 2.5)),
}
# each grid leaves every part of its domain a radius, and two punctured-disk
# grids differ on the puncture side only
_KEPT_HALF_GRIDS = {
    Domain.DISK: (None, (0.99, 0.9, 0.9), (0.95,)),
    Domain.PUNCTURED_DISK: (None, (0.9, 4.0), (0.9, 16.0, 4.0, 8.0, 8.0)),
}


def _kept_half_options(domain):
    """The values of each argument of a call: a sweep or a classify, its mesh, split, grid and centers."""
    return {"classify": (False, True), "mesh": (0.3, 0.45), "split_a": (DEFAULT_SPLIT, 0.3),
            "r_grid": _KEPT_HALF_GRIDS[domain], "centers": (None, [0.0, 0.5j], (0.2, -0.7 + 0.1j, 0.9))}


def _sweep_or_classify(seq, weight, call):
    """density_sweep, or classify where the call asks for it and has no centers."""
    kwargs = dict(call)
    if kwargs.pop("classify") and kwargs.pop("centers") is None:
        return classify(seq, weight, ClassifyParams(**kwargs))
    return density_sweep(seq, weight, **kwargs)


@pytest.mark.parametrize("domain", sorted(_KEPT_HALF_WEIGHTS, key=lambda d: d.value), ids=lambda d: d.value)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 24), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_a_kept_sequence_half_gives_the_result_of_a_new_sequence(domain, n, seed, data):
    # whatever an earlier call under another weight kept, a sweep or
    # classify equals the one on a new SequenceSet of the same points: the
    # later call takes the earlier arguments, or them with any one changed
    gen = np.random.default_rng(seed)
    if domain is Domain.DISK:
        points = _disk_cloud(seed, n, 0.8)
    else:
        # n star points and one between |z| = 0.3 and 0.5, which the split
        # 0.3 puts in the border part and the split 0.5 in the star part
        moduli = np.append(np.exp(-gen.uniform(0.8, 12.0, n)), gen.uniform(0.3, 0.5))
        points = moduli * np.exp(2j * math.pi * gen.random(n + 1))
    weights = _KEPT_HALF_WEIGHTS[domain]
    first, second = data.draw(st.sampled_from(weights)), data.draw(st.sampled_from(weights))
    options = _kept_half_options(domain)
    earlier = {name: data.draw(st.sampled_from(values)) for name, values in options.items()}
    changes = [{}] + [{name: value} for name, values in options.items() for value in values if value != earlier[name]]
    for change in changes:
        later = {**earlier, **change}
        seq = SequenceSet(tuple(points), domain)
        _sweep_or_classify(seq, first, earlier)
        got = _sweep_or_classify(seq, second, later)
        want = _sweep_or_classify(SequenceSet(seq.points, seq.domain), second, later)
        assert got == want and hash(got) == hash(want)
        sweep = got.sweep if isinstance(got, ClassificationVerdict) else got
        for block in sweep._blocks:
            assert not any(getattr(block, column).flags.writeable for column in ("centers", "numerators", "denominators"))
        for part in filter(None, seq._sweep_half.parts):
            assert not any(a.flags.writeable for a in (part.centers, part.numerators, part.nearest))
