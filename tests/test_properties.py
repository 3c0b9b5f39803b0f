"""Property tests of the sequence potentials over generated points and centers.

Both sides run through one Jensen-reduced annulus mean, so each
invariant is checked on the border (disk) side and on the puncture
(cylindrical) side.  Examples are derandomized so that the suite is
reproducible from run to run.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bergseq import (
    BORDER_R_GRID,
    DEFAULT_RULE,
    FAST_RULE,
    Domain,
    QuadratureRule,
    SequenceSet,
    border_density_ratio,
    border_potential,
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
    puncture_potential,
    shifted_cyl_weight,
    standard_disk,
    standard_puncture,
)
from bergseq import sequences
from bergseq.geometry import TWO_PI, _hyperbolic
from bergseq.quadrature import _euclid_weight, _hyper_weight, _log_kernel
from bergseq.sequences import (DEFAULT_SPLIT, PUNCTURE_R_GRID, _PUNCTURE, _greedy_separated, _min_disk_pairwise,
                               _min_pairwise, _quotients)
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
# a repeated lift, and lifts whose disks just clear Im w = r + 1
@example([(0.0, 0.0), (1.0, 2.0), (0.0, 0.0)], [4.0, 2.0])
# the default grid, whose windows run over |k| <= 2, 3 and 4
@example([(0.5, 0.0), (3.0, 1.0)], [4.0, 8.0, 16.0])
def test_batched_puncture_quotients_equal_the_single_lift_calls_bit_for_bit(offsets, radii):
    # each lift's quotients are those of its own call, whichever lifts
    # share the batch, and each radius's are those of its own call, whose
    # window is the middle of the widest radius's; admissible: Im q > max r + 1
    radii = tuple(sorted(radii))
    lifts = np.array([complex(x, radii[-1] + 1.0 + 1e-9 + h) for x, h in offsets])
    points = np.exp(-np.arange(1.0, 12.0)) * np.exp(0.3j * np.arange(11))
    weight = standard_puncture(2.0, 3.0)

    def quotients(lifts, radii):
        # the numerators, then the denominators: one row per lift
        return np.hstack(_quotients(_PUNCTURE, points, weight, lifts, radii, DEFAULT_RULE)[:2])

    got = quotients(lifts, radii)
    assert got.tobytes() == np.vstack([quotients([q], radii) for q in lifts]).tobytes()
    for j, r in enumerate(radii):
        assert got[:, [j, len(radii) + j]].tobytes() == quotients(lifts, (r,)).tobytes()


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
    assert _min_disk_pairwise(disk, lambda rho: rho) == _min_by_rows(disk, pseudo_dist)
    assert _min_disk_pairwise(disk, _hyperbolic) == _min_by_rows(disk, hyp_dist)


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
    pts = _rim_cloud(seed, n)
    # two points 1e-8 from the circle can lie at a distance that rounds
    # to 1, where _hyperbolic divides by 0
    inner = pts[np.abs(pts) <= 1.0 - 1e-7]
    with mock.patch.object(sequences, "_WINDOWED_FROM", windowed_from):
        got = _greedy_separated(pts, sep, pts.size)
        least = _min_disk_pairwise(pts, lambda rho: rho), _min_disk_pairwise(inner, _hyperbolic)
    assert got.tobytes() == _greedy_oracle(pts, sep, pts.size).tobytes()
    assert least == (_min_by_rows(pts, pseudo_dist), _min_by_rows(inner, hyp_dist) if inner.size > 1 else math.inf)


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
    # greedy screens through the argument windows
    greedy, seen = sequences._greedy_separated, []

    def recorded(cands, sep, limit):
        seen.append((cands, sep, limit))
        return greedy(cands, sep, limit)

    monkeypatch.setattr(sequences, "_greedy_separated", recorded)
    pts = generate_lattice("hyperbolic-disk", 40, seed=seed, d=0.35, margin=margin).array()
    for cap in (sequences.CENTER_CAP, 10 ** 6):
        net = sequences.center_net(pts, 0.3, max_centers=cap)
        cands, sep, limit = seen.pop()
        assert net.tobytes() == _greedy_oracle(cands, sep, limit).tobytes()
    assert net.size > sequences._WINDOWED_FROM


def _fsum_numerator(d, inner, r):
    """2 pi times the correctly rounded sum of log(r^2/d^2) over the distances d in (inner, r)."""
    d = d[(d > inner) & (d < r)]
    return TWO_PI * math.fsum(np.log(r * r / (d * d)))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 400), st.integers(1, 70), st.integers(0, 2 ** 32 - 1))
def test_blocked_sweep_numerators_match_per_center_sums(n, n_centers, seed):
    points = _disk_cloud(seed, n, 0.95)
    centers = _disk_cloud(seed + 1, n_centers, 0.9)
    reports = density_sweep(SequenceSet(tuple(points), Domain.DISK), standard_disk(2.0), centers=centers).reports
    assert len(reports) == len(BORDER_R_GRID) * n_centers
    for i, rep in enumerate(reports):
        r, c = BORDER_R_GRID[i // n_centers], centers[i % n_centers]
        want = _fsum_numerator(_disk_dists(points, c), 0.5, r)
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
        want = _fsum_numerator(np.abs(lifted_translates(points, q, r) - q), 1.0, r)
        assert rep.numerator == pytest.approx(want, rel=1e-15, abs=0.0)
