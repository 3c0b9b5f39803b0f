import math

import numpy as np
import pytest
from scipy import integrate

from bergseq import (
    DEFAULT_RULE,
    QuadratureRule,
    a_r_euclidean,
    a_r_hyperbolic,
    annulus_log_integral_disk,
    annulus_log_integral_euclid,
    c_r_cyl,
    c_r_disk,
    circle_mean,
    disk_log_integral,
    polar_integral,
    radial_log_mean,
)
from bergseq.errors import DomainViolation


def ones(z):
    return np.ones(np.shape(z))


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(n_theta=48)  # not a power of two
    with pytest.raises(ValueError):
        QuadratureRule(n_theta=8)
    with pytest.raises(ValueError):
        QuadratureRule(n_panels=1)
    with pytest.raises(ValueError):
        QuadratureRule(rel_tol=0.0)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.9, 0.99])
def test_a_r_hyperbolic_against_scipy(r):
    # oracle: 1-d radial integral of the same closed-form integrand
    oracle, err = integrate.quad(
        lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2) / (1 - rho**2) ** 2, 0, r
    )
    assert err < 1e-6 * oracle
    assert a_r_hyperbolic(r) == pytest.approx(oracle, rel=1e-8)
    assert disk_log_integral(r, ones, "hyperbolic") == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("r", [0.3, 0.7])
def test_a_r_euclidean_against_scipy(r):
    oracle, err = integrate.quad(lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2), 0, r)
    assert err < 1e-10
    assert a_r_euclidean(r) == pytest.approx(oracle, rel=1e-11)
    assert disk_log_integral(r, ones, "euclidean") == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("r", [0.6, 0.9, 0.975])
def test_c_r_disk_against_scipy(r):
    oracle, err = integrate.quad(
        lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2) / (1 - rho**2) ** 2, 0.5, r
    )
    assert err < 1e-6 * oracle
    assert c_r_disk(r) == pytest.approx(oracle, rel=1e-8)
    assert annulus_log_integral_disk(r, ones) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("r", [2.0, 8.0, 16.0])
def test_c_r_cyl_against_scipy(r):
    oracle, err = integrate.quad(lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2), 1.0, r)
    assert err < 1e-8 * oracle
    assert c_r_cyl(r) == pytest.approx(oracle, rel=1e-10)
    assert annulus_log_integral_euclid(5j * r, r, ones) == pytest.approx(oracle, rel=1e-9)


def test_polar_integral_nonradial_against_scipy():
    # f(zeta) = Re(zeta)^2 against the Euclidean log kernel on D_r(0)
    r = 0.8

    def f(z):
        return np.real(z) ** 2

    oracle, err = integrate.dblquad(
        lambda rho, th: rho * (rho * math.cos(th)) ** 2 * math.log(r**2 / rho**2),
        0.0,
        2 * math.pi,
        0.0,
        r,
    )
    assert err < 1e-7
    got = polar_integral(f, 0.0, 0.0, r, lambda rho: np.ones_like(rho), lambda rho: np.log(r**2 / rho**2))
    assert got == pytest.approx(oracle, rel=1e-7)


def test_normalized_mean_reproduces_constants_exactly():
    r = 0.9
    hyper = lambda rho: 1.0 / (1.0 - rho * rho) ** 2
    kernel = lambda rho: np.log(r * r / (rho * rho))
    got = polar_integral(lambda z: 4.25 * np.ones(z.shape), 0.0, 0.0, r, hyper, kernel, normalized=True)
    assert got == pytest.approx(4.25, abs=5e-15)


def test_breakpoint_kink_integrated_sharply():
    # g(rho) = max(log rho, log b): kinked at b, exact handling via breaks
    r, b = 0.9, 0.37

    def g(rho):
        return np.maximum(np.log(rho), math.log(b))

    oracle, err = integrate.quad(
        lambda rho: rho * max(math.log(rho), math.log(b)) / (1 - rho**2) ** 2,
        0,
        r,
        points=[b],
    )
    norm, _ = integrate.quad(lambda rho: rho / (1 - rho**2) ** 2, 0, r)
    hyper = lambda rho: 1.0 / (1.0 - rho * rho) ** 2
    got = radial_log_mean(g, 0.0, r, hyper, lambda rho: np.ones_like(rho), breaks=(b,))
    assert float(got[0]) == pytest.approx(oracle / norm, rel=1e-11)


def test_circle_mean_harmonic_exact():
    # mean of Re(w^3) over a pseudohyperbolic circle equals the center value
    h = lambda w: np.real(np.asarray(w) ** 3)
    z = 0.4 - 0.1j
    assert circle_mean(z, 0.7, h) == pytest.approx(h(z), abs=1e-14)


def test_circle_mean_rejects_singular_samples():
    def h(w):  # -inf everywhere
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(w) - np.asarray(w)))

    with pytest.raises(DomainViolation):
        circle_mean(0.0, 0.5, h)


def test_integrand_errors_propagate():
    # a vectorised integrand with a bug that only arrays reach; no
    # elementwise retry may hide it
    def flaky(z):
        if np.ndim(z):
            raise TypeError("bug in a vectorised integrand")
        return 1.0

    with pytest.raises(TypeError, match="bug"):
        disk_log_integral(0.5, flaky)
    with pytest.raises(TypeError, match="bug"):
        circle_mean(0.0, 0.5, flaky)


def test_domain_guards():
    with pytest.raises(DomainViolation):
        disk_log_integral(1.0, ones)
    with pytest.raises(DomainViolation):
        c_r_disk(0.4)
    with pytest.raises(DomainViolation):
        c_r_cyl(1.0)
    with pytest.raises(DomainViolation):
        c_r_cyl(math.nan)
    with pytest.raises(DomainViolation):
        annulus_log_integral_disk(0.45, ones)
