import math

import numpy as np
import pytest
from scipy.special import spence

from bergseq import (
    Domain,
    FAST_RULE,
    border_density_form,
    border_potential,
    c_r_disk,
    custom_weight,
    cutoff,
    extended_covered_mean,
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
from bergseq.errors import DomainViolation, WindowViolation
from bergseq.weights import _li2_complement

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
    phi = lambda z: np.abs(z) ** 2
    good_p = lambda z: np.full(np.shape(z), 3.0)
    good_c = lambda z: 3.0 / np.log(1.0 / np.abs(z) ** 2) ** 2
    custom_weight(phi, good_p, Domain.PUNCTURED_DISK, good_c)
    bad_c = lambda z: 3.0 / np.log(1.0 / np.abs(z) ** 2)
    with pytest.raises(ValueError):
        custom_weight(phi, good_p, Domain.PUNCTURED_DISK, bad_c)


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


def test_extended_covered_mean_lift_invariance():
    # rotating z by e^{2 pi i} is a no-op; a smooth 2 pi periodic psi
    # gives the same mean for points on the same fiber
    psi = lambda z: np.log(np.log(1.0 / np.abs(z) ** 2)) + np.real(z)
    a = extended_covered_mean(psi, 0.1, 3.0, 1e-4)
    b = extended_covered_mean(psi, 0.1, 3.0, 1e-4 * np.exp(2j * math.pi * 1e-15))
    assert a == pytest.approx(b, rel=1e-10)


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
