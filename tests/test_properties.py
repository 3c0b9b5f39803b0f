"""Property tests of the sequence potentials over generated points and centers.

Both sides run through one Jensen-reduced annulus mean, so each
invariant is checked on the border (disk) side and on the puncture
(cylindrical) side.  Examples are derandomized so that the suite is
reproducible from run to run.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from bergseq import (
    DEFAULT_RULE,
    FAST_RULE,
    border_potential,
    lift_value,
    lifted_translates,
    pseudo_dist,
    puncture_density_form,
    puncture_potential,
)
from bergseq.geometry import TWO_PI
from bergseq.quadrature import _euclid_weight, _hyper_weight, _log_kernel, radial_log_mean
from bergseq.sequences import _greedy_separated
from bergseq.weights import _border_radial_means, _puncture_radial_means

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
       st.floats(0.05, 0.9, exclude_min=True, exclude_max=True), st.integers(1, 60))
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(radial_case())
def test_puncture_radial_means_match_quadrature(case):
    d, r = case
    g = lambda rho: 2.0 * np.log(np.maximum(rho[:, None], d[None, :]))
    # node doubling never splits the lower half of (1, r); without extra
    # breaks there the oracle is off by 6e-10 relative at r = 19.9
    breaks = np.concatenate((d, np.linspace(1.0, r, 17)))
    want = radial_log_mean(g, 1.0, r, _euclid_weight, _log_kernel(r), DEFAULT_RULE, breaks=breaks)
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
    want = radial_log_mean(g, 0.5, r, _hyper_weight, _log_kernel(r), DEFAULT_RULE, breaks=breaks)
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
