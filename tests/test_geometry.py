import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from bergseq import (
    DISK_AREA_CONSTANT,
    Domain,
    area_A,
    cover_P,
    cyl_dist,
    hyp_dist,
    injectivity_radius,
    lift_value,
    mobius_involution,
    pdisk_radial_dist,
    poincare_coeff,
    pseudo_dist,
)
from bergseq.errors import DomainViolation

PROPS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

rng = np.random.default_rng(20260826)


def sample_disk(n, rmax=0.999):
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def test_mobius_involution_is_involutive():
    z = sample_disk(200)
    w = sample_disk(200)
    back = mobius_involution(z, mobius_involution(z, w))
    assert np.max(np.abs(back - w)) < 1e-13


def test_mobius_fixes_origin_pair():
    # phi_z(0) = z and phi_z(z) = 0
    z = 0.3 - 0.4j
    assert abs(mobius_involution(z, 0.0) - z) < 1e-15
    assert abs(mobius_involution(z, z)) < 1e-15


def test_pseudo_dist_hand_value():
    # rho(0, w) = |w|
    assert pseudo_dist(0.0, 0.5j) == pytest.approx(0.5, abs=1e-15)
    # rho(0.5, -0.5) = 1/(1 + 0.25) * 1 = 0.8
    assert pseudo_dist(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)


def test_tanh_identity_and_symmetry():
    z = sample_disk(500)
    w = sample_disk(500)
    for a, c in zip(z, w):
        assert math.tanh(hyp_dist(a, c)) == pytest.approx(pseudo_dist(a, c), abs=1e-13)
        assert hyp_dist(a, c) == pytest.approx(hyp_dist(c, a), rel=1e-12)


def test_pseudo_dist_mobius_invariance():
    a = 0.4 + 0.2j
    z = sample_disk(300)
    w = sample_disk(300)
    for p, q in zip(z, w):
        d0 = pseudo_dist(p, q)
        d1 = pseudo_dist(mobius_involution(a, p), mobius_involution(a, q))
        assert abs(d0 - d1) < 1e-13


def test_domain_validation():
    with pytest.raises(DomainViolation):
        poincare_coeff(1.0 + 0j, Domain.DISK)
    with pytest.raises(DomainViolation):
        poincare_coeff(0.0j, Domain.PUNCTURED_DISK)
    poincare_coeff(0.0j, Domain.DISK)  # origin fine on the full disk


def test_poincare_coeff_values():
    assert poincare_coeff(0.0j, Domain.DISK) == pytest.approx(1.0, abs=1e-15)
    assert poincare_coeff(0.6 + 0j, Domain.DISK) == pytest.approx(1.0 / 0.64**2, rel=1e-14)
    # 1/(|z|^2 L^2), L = log(1/|z|^2) = 2
    q = math.exp(-1.0) + 0j
    assert poincare_coeff(q, Domain.PUNCTURED_DISK) == pytest.approx(math.exp(2.0) / 4.0, rel=1e-13)
    assert poincare_coeff(np.array([q]), Domain.PUNCTURED_DISK)[0] == pytest.approx(
        math.exp(2.0) / 4.0, rel=1e-13
    )


def test_lift_roundtrip():
    z = np.exp(-5 * rng.random(1000) - 0.01) * np.exp(2j * np.pi * rng.random(1000))
    q = lift_value(z)
    assert np.all(q.imag > 0)
    assert np.all((q.real >= 0) & (q.real < 2 * np.pi))
    assert np.max(np.abs(cover_P(q) - z)) < 1e-12


def test_lift_of_one_point():
    q = lift_value(0.1j)
    assert 0.0 <= q.real < 2 * np.pi and q.imag > 0
    assert abs(cover_P(q) - 0.1j) < 1e-15


def test_cyl_dist_translate_minimum():
    z = np.exp(-4 * rng.random(400) - 0.01) * np.exp(2j * np.pi * rng.random(400))
    w = np.exp(-4 * rng.random(400) - 0.01) * np.exp(2j * np.pi * rng.random(400))
    ks = 2 * np.pi * np.arange(-4, 5)
    for a, c in zip(z, w):
        direct = cyl_dist(a, c)
        translated = np.min(np.abs(lift_value(np.array([a]))[0] + ks - lift_value(np.array([c]))[0]))
        assert abs(direct - translated) < 1e-13


def test_radial_distance_closed_form():
    a, c = 0.2, 0.05
    la = math.log(1.0 / a**2)
    lc = math.log(1.0 / c**2)
    assert pdisk_radial_dist(a, c) == pytest.approx(0.5 * abs(math.log(la) - math.log(lc)), rel=1e-13)


def test_injectivity_radius_crossover():
    # i-hat = min(pi/(2L), 1): equals 1 for points far from the puncture
    far = math.exp(-0.5) + 0j  # L = 1
    assert injectivity_radius(far) == pytest.approx(1.0)
    near = math.exp(-10.0) + 0j  # L = 20
    assert injectivity_radius(near) == pytest.approx(math.pi / 40.0, rel=1e-14)


def test_area_disk_constant():
    assert DISK_AREA_CONSTANT == pytest.approx(math.pi * math.sinh(1.0) ** 2, rel=1e-15)
    for z in sample_disk(20, 0.95):
        assert area_A(complex(z), Domain.DISK) == pytest.approx(
            DISK_AREA_CONSTANT, rel=1e-13
        )


def test_area_punctured_formula():
    # pi tanh^2(i-hat)/(1 - tanh^2(i-hat)) = pi sinh^2(i-hat)
    z = math.exp(-math.pi / 2.0)  # L = pi, i-hat = 1/2
    p = z + 0j
    assert injectivity_radius(p) == pytest.approx(0.5, rel=1e-14)
    expect = math.pi * math.sinh(0.5) ** 2
    assert area_A(p, Domain.PUNCTURED_DISK) == pytest.approx(expect, rel=1e-13)
    assert area_A(np.array([z]), Domain.PUNCTURED_DISK)[0] == pytest.approx(expect, rel=1e-13)


# Properties of the array geometry.

angle = st.floats(0.0, 2.0 * math.pi)
disk_point = st.builds(lambda rho, t: rho * np.exp(1j * t), st.floats(0.0, 0.9), angle)
punctured_point = st.builds(lambda rho, t: rho * np.exp(1j * t), st.floats(1e-6, 0.99), angle)


@PROPS
@given(st.lists(disk_point, min_size=1, max_size=8), disk_point)
def test_disk_density_is_mobius_invariant(zs, a):
    z = np.asarray(zs)
    # |phi_a'(z)| = (1 - |a|^2) / |1 - conj(a) z|^2
    deriv2 = ((1.0 - abs(a) ** 2) / np.abs(1.0 - np.conjugate(a) * z) ** 2) ** 2
    moved = poincare_coeff(mobius_involution(a, z), Domain.DISK) * deriv2
    np.testing.assert_allclose(moved, poincare_coeff(z, Domain.DISK), rtol=1e-12)


@PROPS
@given(st.lists(punctured_point, min_size=1, max_size=8), angle)
def test_punctured_area_and_injectivity_radius_are_rotation_invariant(zs, t):
    z = np.asarray(zs)
    turned = z * np.exp(1j * t)
    np.testing.assert_allclose(area_A(turned, Domain.PUNCTURED_DISK), area_A(z, Domain.PUNCTURED_DISK), rtol=1e-12)
    np.testing.assert_allclose(injectivity_radius(turned), injectivity_radius(z), rtol=1e-12)


@PROPS
@given(st.lists(st.builds(complex, st.floats(-10.0, 10.0), st.floats(0.01, 30.0)), min_size=1, max_size=8))
def test_punctured_density_is_the_cover_pushforward(ws):
    # the cover is a local isometry from the upper half plane metric
    # |dw|^2 / (4 Im(w)^2) onto the punctured disk
    w = np.asarray(ws)
    z = cover_P(w)
    np.testing.assert_allclose(poincare_coeff(z, Domain.PUNCTURED_DISK) * np.abs(z) ** 2,
                               1.0 / (4.0 * w.imag ** 2), rtol=1e-12)
