import cmath
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import spence

from bergseq import (
    Domain,
    FAST_RULE,
    border_density_form,
    border_potential,
    c_r_disk,
    custom_weight,
    cutoff,
    density_sweep,
    extended_covered_mean,
    generate_lattice,
    lifted_translates,
    lift_value,
    log_mean_disk,
    puncture_density_form,
    puncture_potential,
    shifted_cyl_weight,
    standard_disk,
    standard_puncture,
    truncated_log_mean,
)
from bergseq.errors import DomainViolation, QuadratureNotConverged, WindowViolation
from bergseq.quadrature import _euclid_weight, _log_kernel, polar_integral
from bergseq.weights import _covered_integrand, _li2_complement

rng = np.random.default_rng(7)


def test_standard_disk_parameters():
    w = standard_disk(2.0)
    assert w.constant_poincare_ratio == 4.0
    z = np.array([0.0, 0.5j])
    assert np.allclose(w.phi(z), [0.0, 2.0 * math.log(1 / 0.75)])
    with pytest.raises(ValueError):
        standard_disk(1.0)


def test_standard_puncture_parameters_and_flags():
    w = standard_puncture(2.0, 2.0)
    assert w.hypothesis_flags["puncture_strict"] is False
    assert w.hypothesis_flags["puncture_weak"] is True
    z = math.exp(-1.0)
    # phi = s log 1/(1-r^2) - t log L, L = 2
    expect = -2.0 * math.log1p(-z * z) - 2.0 * math.log(2.0)
    assert w.phi(np.array([z]))[0] == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError):
        standard_puncture(2.0, 1.5)
    with pytest.raises(ValueError):
        standard_puncture(0.5, 3.0)


def test_standard_puncture_density_consistency():
    # ratio_c must equal ratio_P / L^2 on a radial grid
    w = standard_puncture(2.5, 3.0)
    z = np.exp(np.linspace(-6.0, -0.2, 30)) * np.exp(0.3j)
    L2 = np.log(1.0 / np.abs(z) ** 2) ** 2
    assert np.max(np.abs(w.lap_cyl_ratio(z) - w.lap_poincare_ratio(z) / L2)) < 1e-12


def test_custom_weight_consistency_check():
    # phi = -1.5 log log(1/|z|^2) has Delta phi = 3 omega_P
    phi = lambda z: -1.5 * np.log(np.log(1.0 / np.abs(z) ** 2))
    good_p = lambda z: np.full(np.shape(z), 3.0)
    good_c = lambda z: 3.0 / np.log(1.0 / np.abs(z) ** 2) ** 2
    custom_weight(phi, good_p, Domain.PUNCTURED_DISK, good_c)
    bad_c = lambda z: 3.0 / np.log(1.0 / np.abs(z) ** 2)
    with pytest.raises(ValueError):
        custom_weight(phi, good_p, Domain.PUNCTURED_DISK, bad_c)


@pytest.mark.parametrize("phi", [
    lambda z: np.abs(z) ** 2,                               # densities 3 and 3/L^2 do not belong to it
    lambda z: -1.4 * np.log(np.log(1.0 / np.abs(z) ** 2)),  # nor to a curvature 2.8 omega_P
], ids=["abs2", "t=1.4"])
def test_custom_weight_rejects_a_phi_that_does_not_match_its_densities(phi):
    # the puncture denominators come from phi alone, so phi is checked too
    good_p = lambda z: np.full(np.shape(z), 3.0)
    good_c = lambda z: 3.0 / np.log(1.0 / np.abs(z) ** 2) ** 2
    with pytest.raises(ValueError, match="phi does not match"):
        custom_weight(phi, good_p, Domain.PUNCTURED_DISK, good_c)


@pytest.mark.parametrize("domain", [Domain.DISK, Domain.PUNCTURED_DISK])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8, 0.0])
def test_custom_weight_needs_a_positive_finite_check_tol(tol, domain):
    # NaN and inf once accepted the inconsistent densities below on the
    # punctured disk, and a negative tolerance rejected every weight there
    phi = lambda z: -1.5 * np.log(np.log(1.0 / np.abs(z) ** 2))
    good_p = lambda z: np.full(np.shape(z), 3.0)
    bad_c = lambda z: 3.0 / np.log(1.0 / np.abs(z) ** 2)
    with pytest.raises(ValueError, match="check_tol"):
        custom_weight(phi, good_p, domain, bad_c, check_tol=tol)


def test_the_disk_check_evaluates_phi_and_its_ratio_on_few_points():
    # custom_weight's check of a curved disk weight evaluates phi at 136
    # points (the 4 of the array probe, the 2 centers twice, and 64 angles on
    # each circle) and the ratio at 27 652 (the array probe and the 2-D
    # integrals).  The curved-sweep benchmark builds three custom weights in
    # its set-up.
    counts = {"phi": 0, "ratio": 0}

    def counted(f, key):
        def g(w):
            counts[key] += np.size(w)
            return f(w)
        return g

    weight = custom_weight(counted(lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2, "phi"),
                           counted(lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2, "ratio"), Domain.DISK)
    assert weight.phi_matches_curvature
    assert counts["phi"] <= 1.25 * 136 and counts["ratio"] <= 1.25 * 27652


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("phi", [
    lambda z: np.log(np.real(z) + 0.5),  # NaN where Re z < -0.5, which the probe circles reach
    lambda z: np.sign(np.real(z)),       # a jump: its circle means do not settle by 2^20 angles
], ids=["not-finite", "not-converged"])
def test_a_disk_weight_whose_check_cannot_be_evaluated_still_constructs(phi):
    weight = custom_weight(phi, lambda z: np.full(np.shape(z), 4.0), Domain.DISK)
    assert not weight.phi_matches_curvature


def test_a_wrapped_standard_puncture_weight_gives_its_denominators_bit_for_bit():
    sp = standard_puncture(2.0, 3.0)
    wrapped = custom_weight(sp.phi, sp.lap_poincare_ratio, Domain.PUNCTURED_DISK, sp.lap_cyl_ratio)
    seq = generate_lattice("puncture-exponential", 30, s=1.0, n=2)
    want = [rep.denominator for rep in density_sweep(seq, sp).reports]
    assert [rep.denominator for rep in density_sweep(seq, wrapped).reports] == want


def test_shifted_cyl_weight():
    w = standard_puncture(2.0, 3.0)
    psi, ratio = shifted_cyl_weight(w)
    z = np.array([math.exp(-2.0)])
    L = 4.0
    assert psi(z)[0] == pytest.approx(w.phi(z)[0] + 2.0 * math.log(L), rel=1e-13)
    assert ratio(z)[0] == pytest.approx(w.lap_cyl_ratio(z)[0] - 4.0 / L**2, rel=1e-12)
    with pytest.raises(DomainViolation):
        shifted_cyl_weight(standard_disk(2.0))


def test_log_mean_disk_constants_and_harmonics():
    const = lambda z: np.full(np.shape(z), -2.5)
    assert log_mean_disk(const, 0.7, 0.3j) == pytest.approx(-2.5, abs=1e-13)
    h = lambda z: np.real(np.asarray(z) ** 2) + 1.0
    for z in (0.0, 0.4 - 0.3j, 0.8):
        assert log_mean_disk(h, 0.5, z) == pytest.approx(h(np.asarray(z)), abs=1e-12)


@pytest.mark.parametrize("m", [0.9, 0.97, 0.99])
def test_log_mean_disk_at_rim_centers(m):
    # the mean-value property: a harmonic function's log-kernel mean over
    # D_r(z) is its value at z, with no reference integral.  Its pull-back
    # peaks at arg z, so these run on balanced angles: uniform ones reach
    # 256-512 angles at r = 0.95
    z = m * np.exp(0.7j)
    angles = set()

    def h(w):
        if np.ndim(w) == 2:
            angles.add(w.shape[1])
        return np.real(np.asarray(w) ** 3) - 0.5 * np.imag(w) + 1.0

    for r in (0.5, 0.8, 0.95):
        assert log_mean_disk(h, r, z) == pytest.approx(h(np.asarray(z)), abs=1e-12)
    assert max(angles) <= 128
    const = lambda w: np.full(np.shape(w), -2.5)
    assert log_mean_disk(const, 0.95, z) == pytest.approx(-2.5, rel=1e-15)


def test_cutoff_shape():
    assert cutoff(0.1, 0.2) == 0.0  # flat below c/2
    assert cutoff(0.15, 0.2) == pytest.approx(0.5)
    assert cutoff(0.2, 0.2) == 1.0
    x = np.linspace(0, 1, 101)
    assert np.all(np.diff(cutoff(x, 0.2)) >= -1e-15)


def test_truncated_log_mean_flat_regions():
    const = lambda z: np.full(np.shape(z), 1.0)
    # disk well outside the cutoff ring: mean is the constant itself
    assert truncated_log_mean(const, 0.3, 0.1, 0.6) == pytest.approx(1.0, abs=1e-10)
    # disk entirely inside |zeta| < c/2: cutoff kills the integrand
    assert truncated_log_mean(const, 0.03, 0.1, 0.01) == pytest.approx(0.0, abs=1e-10)


def test_truncated_log_mean_monotone_in_c():
    phi = lambda z: np.abs(z) ** 2 + 1.0  # nonnegative
    vals = [truncated_log_mean(phi, 0.6, c, 0.3) for c in (0.1, 0.3, 0.5)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_extended_covered_mean_constants():
    const = lambda z: np.full(np.shape(z), 7.0)
    for z in (1e-4, 1e-3 * np.exp(1.2j), 1e-6):
        assert extended_covered_mean(const, 0.1, 4.0, z) == pytest.approx(7.0, abs=1e-12)


@pytest.mark.parametrize("eps, r", [(math.nan, 2.0), (0.0, 2.0), (0.1, math.nan), (0.1, 0.0), (math.inf, 2.0),
                                    (0.1, math.inf)])
def test_covered_means_need_positive_eps_and_r(eps, r):
    # NaN or infinite eps once returned 0.0, and NaN or infinite r sampled
    # 393 216 nodes
    w = standard_puncture(2.0, 3.0)
    with pytest.raises(DomainViolation):
        extended_covered_mean(w.phi, eps, r, 0.01)


def test_extended_covered_mean_lift_invariance():
    # rotating z by e^{2 pi i} is a no-op; a smooth 2 pi periodic psi
    # gives the same mean for points on the same fiber
    psi = lambda z: np.log(np.log(1.0 / np.abs(z) ** 2)) + np.real(z)
    a = extended_covered_mean(psi, 0.1, 3.0, 1e-4)
    b = extended_covered_mean(psi, 0.1, 3.0, 1e-4 * np.exp(2j * math.pi * 1e-15))
    assert a == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_extended_covered_mean_matches_nested_quad(r):
    # the lift of z = 0.3 + 5j has Im q = -1.61, so for r < 1.71 every node
    # is reflected and the integrand is smooth: the only hard spot is the
    # kernel's rho log(1/rho) at the center.  The eps-reflected lift of
    # phi = 2 log 1/(1-|z|^2) - 3 log log(1/|z|^2) is written out here
    z, eps = 0.3 + 5j, 0.1
    q = complex(cmath.phase(z) % (2.0 * math.pi), -math.log(abs(z)))

    def f(w):
        if w.imag <= eps:
            w = w.conjugate() + 2j * eps
        u = abs(cmath.exp(1j * w)) ** 2
        return -2.0 * math.log1p(-u) - 3.0 * math.log(math.log(1.0 / u))

    ring = lambda rho: integrate.quad(
        lambda t: f(q + cmath.rect(rho, t)), 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200,
    )[0]
    num, _ = integrate.quad(lambda rho: rho * math.log(r * r / (rho * rho)) * ring(rho), 0.0, r,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    oracle = num / (math.pi * r * r)
    assert extended_covered_mean(standard_puncture(2.0, 3.0), eps, r, z) == pytest.approx(oracle, abs=1e-13)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_extended_covered_mean_reflects_every_node_as_the_direct_formula(r):
    # every node about the lift of z = 0.3 + 5j lies below Im w = eps, and
    # each takes exp(i (conj(w) + 2i eps)), here one complex exp per node
    z, eps = 0.3 + 5j, 0.1
    psi = standard_puncture(2.0, 3.0).phi

    def reflected(w):
        w = np.asarray(w)
        assert not np.any(w.imag > eps)
        return psi(np.exp(1j * (np.conjugate(w) + 2j * eps)))

    want = polar_integral(reflected, lift_value(z), 0.0, r, _euclid_weight, _log_kernel(r), normalized=True)
    assert extended_covered_mean(psi, eps, r, z) == float(want)


def _lift_block(q, radii, n_theta=64):
    """The nodes q - rho e^{i theta} about q on the rings of these radii, as polar_integral hands them out."""
    ring = np.exp(1j * (2.0 * math.pi / n_theta) * np.arange(n_theta))
    return q - np.asarray(radii, dtype=float)[:, None] * ring


def _cover_samples(nodes, f, eps=0.1):
    """(the nodes, the e^{iw} that the covered integrand hands f, its samples)."""
    w, seen = np.array(nodes), []
    samples = _covered_integrand(lambda z: seen.append(z.copy()) or f(z), eps)(nodes)
    return w, seen[0], samples


def test_a_ring_across_the_reflection_line_reflects_node_by_node():
    # about q = 0.5 + 2j the ring of radius 1.5 stays above Im w = eps, the
    # others cross it: every node takes the direct formula bit for bit
    eps = 0.1
    w, z, _ = _cover_samples(_lift_block(0.5 + 2.0j, [1.5, 2.05, 2.5, 3.5]), lambda z: np.zeros(z.shape), eps)
    low = ~(w.imag > eps)
    assert not low[0].any() and low[1:].any(axis=1).all() and not low.all()
    assert z[low].tobytes() == np.exp(1j * (np.conjugate(w[low]) + 2j * eps)).tobytes()
    assert z[~low].tobytes() == np.exp(1j * w[~low]).tobytes()


@pytest.mark.parametrize("q, radii", [
    (1.0 + 700.0j, [0.5, 2.0, 4.0]),           # |e^{iw}| ~ e^-700: |z|^2 underflows
    (1.0 + 700.0j, [50.0, 300.0, 650.0]),      # normal, subnormal and zero values
    (0.5 + 300.0j, [100.0, 400.0, 700.0]),     # rings across the reflection line
    (1.0 + 5000.0j, [10.0, 2000.0, 4900.0]),   # far past e^-rho's normal range, above the line
])
def test_cover_samples_are_finite_where_the_direct_formula_is(q, radii):
    eps = 0.1
    psi = shifted_cyl_weight(standard_puncture(2.0, 3.0))[1]
    with np.errstate(divide="ignore", over="ignore"):
        w, z, samples = _cover_samples(_lift_block(q, radii), psi, eps)
        direct = np.exp(1j * np.where(w.imag > eps, w, np.conjugate(w) + 2j * eps))
        want = psi(direct)
    assert np.array_equal(np.isfinite(z), np.isfinite(direct))
    assert np.array_equal(z == 0.0, direct == 0.0)
    assert np.array_equal(np.isfinite(samples), np.isfinite(want))
    # the phase of a node rounds like rho ulp(1), in both formulas alike
    normal = np.abs(direct) > 1e-300
    assert np.allclose(z[normal], direct[normal], rtol=1e-15 * max(radii) + 1e-14, atol=0.0)


# The reflected lift of standard_puncture(2, 3) about z = 0.3 + 5j, with
# eps = 0.1, is kinked along the line Im(q - zeta) = eps.  These means come
# from Gauss-Legendre panels in theta broken where the line meets the circle
# |zeta| = r, and in rho broken where each ray crosses the line; nested
# scipy.integrate.quad with the same breaks agrees to 2e-14.
_KINKED_MEANS = {2.0: -3.3917300382578, 4.0: -3.0494730482284}


@pytest.mark.parametrize("r", sorted(_KINKED_MEANS))
def test_extended_covered_mean_kink_is_not_accepted_early(r):
    # the kink follows neither polar axis; a quadrature that settles too early
    # would return a value off by far more than rel_tol
    try:
        got = extended_covered_mean(standard_puncture(2.0, 3.0), 0.1, r, 0.3 + 5j)
    except QuadratureNotConverged:
        return
    assert got == pytest.approx(_KINKED_MEANS[r], rel=1e-8)


def test_border_potential_sigma_at_a_point_of_the_sequence():
    pts = np.array([0.3, -0.2j])
    sigma, lam = border_potential(pts, 0.9, 0.3)
    assert sigma == 0.0
    assert math.isfinite(lam)


def test_border_potential_bound_and_generator_independence():
    pts = 0.8 * np.sqrt(rng.random(15)) * np.exp(2j * np.pi * rng.random(15))
    for z in 0.85 * np.sqrt(rng.random(25)) * np.exp(2j * np.pi * rng.random(25)):
        s0, _ = border_potential(pts, 0.9, complex(z), rule=FAST_RULE)
        assert s0 <= 1.0 + 1e-12
        s1, _ = border_potential(pts, 0.9, complex(z), harmonic=(0.4 - 0.7j, 0.2j), rule=FAST_RULE)
        assert abs(s0 - s1) < 1e-12


def test_border_potential_radius_guard():
    with pytest.raises(DomainViolation):
        border_potential(np.array([0.1]), 0.4, 0.0)


def test_border_density_form_hand_value():
    # single point at pseudohyperbolic distance 0.7 from the center
    r = 0.9
    pts = np.array([0.7])
    got = border_density_form(pts, r, 0.0)
    assert got == pytest.approx(2.0 * math.pi * math.log(1.0 / 0.49) / c_r_disk(r), rel=1e-13)
    # outside the annulus: no contribution
    assert border_density_form(np.array([0.3]), r, 0.0) == 0.0
    assert border_density_form(np.array([]), r, 0.0) == 0.0


def test_density_forms_check_the_radius_of_no_points():
    # no points add nothing, but a radius outside the annulus's range
    # is an error all the same
    assert puncture_density_form([], 2.0, z=0.01j) == 0.0
    with pytest.raises(DomainViolation):
        border_density_form([], 0.3, 0.1j)
    with pytest.raises(DomainViolation):
        puncture_density_form([], 0.5, z=0.01j)


def test_puncture_density_form_takes_exactly_one_of_z_and_q():
    # z was once ignored when q was given too
    pts = np.exp(-np.arange(1.0, 13.0))
    q = complex(lift_value(np.array([math.exp(-8.0)]))[0])
    with pytest.raises(DomainViolation, match="exactly one of z and a lift q"):
        puncture_density_form(pts, 4.0, z=math.exp(-8.0), q=q)
    with pytest.raises(DomainViolation, match="exactly one of z and a lift q"):
        puncture_density_form(pts, 4.0)
    assert puncture_density_form(pts, 4.0, z=math.exp(-8.0)) == puncture_density_form(pts, 4.0, q=q)


def test_lifted_translates_window():
    pts = np.array([math.exp(-5.0)])
    q = 0.0 + 5.0j
    trans = lifted_translates(pts, q, 7.0)
    # lifts at 2 pi k + 5i: k = -1, 0, 1 within distance 7
    assert len(trans) == 3
    assert np.allclose(sorted(t.real for t in trans), [-2 * math.pi, 0.0, 2 * math.pi])


def test_puncture_potential_guards():
    pts = np.array([0.5])
    with pytest.raises(WindowViolation):
        puncture_potential(pts, 2.0, 1e-4)  # |gamma| >= e^-2
    with pytest.raises(WindowViolation):
        puncture_potential(np.array([math.exp(-9.0)]), 2.0, 0.5)  # Im lift too small
    with pytest.raises(DomainViolation):
        puncture_potential(pts, 0.9, 1e-4)


def test_puncture_potential_sigma_at_a_point_of_the_sequence():
    pts = np.exp(-np.arange(3.0, 8.0)) * np.exp(0.4j * np.arange(5))
    for r in (2.0, 2.9):
        sigma, lam = puncture_potential(pts, r, complex(pts[1]))
        assert sigma == 0.0
        assert math.isfinite(lam)


def test_puncture_potential_bound_and_lift_periodicity():
    pts = np.exp(-np.arange(3.0, 10.0)) * np.exp(0.5j * np.arange(7))
    for _ in range(10):
        z = math.exp(-(2.5 + 5 * rng.random())) * np.exp(2j * np.pi * rng.random())
        s, _ = puncture_potential(pts, 2.0, complex(z), rule=FAST_RULE)
        assert s <= 1.0 + 1e-10


def test_puncture_potential_generator_independence():
    pts = np.exp(-np.arange(3.0, 8.0))
    z = math.exp(-4.3) * np.exp(1.1j)
    s0, _ = puncture_potential(pts, 2.0, z, rule=FAST_RULE)
    s1, _ = puncture_potential(pts, 2.0, z, harmonic=(0.2 + 0.1j, -0.5), rule=FAST_RULE)
    assert abs(s0 - s1) < 1e-12


def test_puncture_density_form_periodicity_and_value():
    pts = np.exp(-np.arange(1.0, 13.0))
    q = complex(lift_value(np.array([math.exp(-8.0)]))[0])
    a = puncture_density_form(pts, 4.0, q=q)
    b = puncture_density_form(pts, 4.0, q=q + 2 * math.pi)
    assert a == pytest.approx(b, abs=1e-14)
    assert a > 0.0


def test_log_mean_disk_of_integrand_with_mean_zero():
    assert abs(log_mean_disk(np.imag, 0.8, 0)) < 1e-12


def test_li2_complement_matches_scipy_spence():
    # spence(t) is Li2(1 - t); the border means need t in [1/4, 1)
    t = np.linspace(0.25, 1.0, 3001)[:-1]
    want = spence(t)
    assert np.all(np.abs(_li2_complement(-np.log(t)) - want) <= 1e-14 * np.abs(want))
