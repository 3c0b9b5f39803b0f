import math

import numpy as np
import pytest

from bergseq import (
    BlaschkeSpec,
    Domain,
    QuadratureRule,
    bergman_inequality_margin,
    circle_mean,
    custom_weight,
    mean_comparison_margin,
    mobius_involution,
    polar_integral,
    poisson_jensen_residual,
    standard_disk,
    standard_puncture,
)
from bergseq import quadrature, verify, weights
from bergseq.cli import _pj_suite
from bergseq.errors import DomainViolation
from bergseq.quadrature import _hyper_weight
from bergseq.weights import _curvature_masses

rng = np.random.default_rng(17)

# phi = 2 log 1/(1 - |z|^2) + |z|^2, with Delta phi / omega_P = 4 + 2 (1 - |z|^2)^2
CURVED = custom_weight(
    lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2,
    lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2,
    Domain.DISK,
)


def test_blaschke_validation():
    with pytest.raises(DomainViolation):
        BlaschkeSpec(zeros=(1.2,))
    with pytest.raises(DomainViolation):
        BlaschkeSpec(outer_coeffs=(0.0,))
    with pytest.raises(DomainViolation):
        BlaschkeSpec(outer_coeffs=(0.5, 1.0))  # root at -0.5 inside the disk
    BlaschkeSpec(outer_coeffs=(2.0, 1.0))  # root at -2 is fine


def test_blaschke_unimodular_on_boundary_limit():
    f = BlaschkeSpec(zeros=(0.3, -0.5j))
    z = 0.9999 * np.exp(1j * np.linspace(0, 2 * math.pi, 7))
    assert np.max(np.abs(np.abs(f(z)) - 1.0)) < 5e-4


def test_pj_trivial_and_classical():
    assert poisson_jensen_residual(BlaschkeSpec(), None, 0.2, 0.5) < 1e-13
    # f(zeta) = zeta as a Blaschke factor at 0; classical Jensen: both
    # sides equal log r^2 at any z with the zero inside
    f = BlaschkeSpec(zeros=(0.0,))
    assert poisson_jensen_residual(f, None, 0.3, 0.5) < 1e-12
    lhs = circle_mean(0.3, 0.5, lambda w: 2.0 * np.log(np.abs(np.asarray(w))))
    # LHS = 2 log|z| + log(r^2/|z|^2) = log r^2 when |phi_0(z)| < r
    assert lhs == pytest.approx(math.log(0.25), abs=1e-10)


def test_pj_weighted_suite_case():
    f = BlaschkeSpec(zeros=(0.2, -0.4j))
    res = poisson_jensen_residual(f, standard_disk(2.0), 0.1, 0.8)
    assert res < 1e-6


def test_pj_node_doubling_decreases_residual():
    f = BlaschkeSpec(zeros=(0.2, -0.4j, 0.5 + 0.3j))
    res_lo = poisson_jensen_residual(f, standard_disk(3.0), 0.1, 0.8, n_theta=64)
    res_hi = poisson_jensen_residual(f, standard_disk(3.0), 0.1, 0.8, n_theta=2048)
    assert res_hi <= res_lo + 1e-12
    assert res_hi < 1e-6


def test_pj_rotation_invariance():
    zeros = (0.2, -0.4j)
    rot = np.exp(0.7j)
    a = poisson_jensen_residual(BlaschkeSpec(zeros), standard_disk(2.0), 0.15, 0.7)
    b = poisson_jensen_residual(
        BlaschkeSpec(tuple(rot * z for z in zeros)), standard_disk(2.0), rot * 0.15, 0.7
    )
    assert abs(a - b) < 1e-8


def test_pj_boundary_zero_rejected():
    f = BlaschkeSpec(zeros=(0.5,))
    with pytest.raises(DomainViolation):
        poisson_jensen_residual(f, None, 0.0, 0.5)


@pytest.mark.parametrize("zeros", [(), (0.9 * np.exp(0.5j),), (0.95 * np.exp(0.75j), 0.3)])
@pytest.mark.parametrize("r", [0.5, 0.8, 0.95])
def test_pj_curved_weight_at_a_rim_center(zeros, r):
    assert poisson_jensen_residual(BlaschkeSpec(zeros), CURVED, 0.97 * np.exp(0.7j), r) <= 1e-10


@pytest.mark.parametrize("z, r", [(0.6, 0.5), (0.7j, 0.6), (-0.5 + 0.5j, 0.4)])
def test_pj_rejects_a_punctured_disk_weight(z, r):
    # lap_poincare_ratio is taken against the punctured-disk metric, and the
    # balance integrates it against the disk's hyperbolic area: these cases
    # read residuals of 0.149, 0.122 and 0.038.  No sample is taken.
    sp = standard_puncture(2.0, 3.0)
    calls = []
    spy = custom_weight(lambda w: calls.append(1) or sp.phi(w), sp.lap_poincare_ratio, Domain.PUNCTURED_DISK,
                        sp.lap_cyl_ratio)
    calls.clear()
    with pytest.raises(DomainViolation, match="punctured-disk metric"):
        poisson_jensen_residual(BlaschkeSpec((0.1 + 0.2j,)), spy, z, r)
    assert calls == []


def _pj_cases():
    """The pj-verify suite's (zeros, s, z, r), and its zero sets at the rim center 0.97 e^{0.7i}."""
    rim = 0.97 * np.exp(0.7j)
    return _pj_suite() + [(zeros, s, rim, r) for zeros, s, _, r in _pj_suite()]


@pytest.mark.parametrize("zeros, s, z, r", _pj_cases())
def test_pj_pins_the_quadrature_for_the_standard_weight(zeros, s, z, r):
    # a wrapped standard_disk(s) declares no constant, so its curvature term
    # is the pulled-back quadrature the sweep takes for curved weights
    closed = standard_disk(s)
    wrapped = custom_weight(closed.phi, closed.lap_poincare_ratio, Domain.DISK)
    mass = _curvature_masses(wrapped, [z], (r,))[0][0]
    assert mass == pytest.approx(_curvature_masses(closed, [z], (r,))[0][0], rel=1e-10)
    f = BlaschkeSpec(zeros)
    assert poisson_jensen_residual(f, wrapped, z, r) == pytest.approx(poisson_jensen_residual(f, closed, z, r),
                                                                       abs=1e-10)


def test_constant_curvature_pj_makes_no_quadrature_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return polar_integral(*args, **kwargs)

    for module in (quadrature, verify, weights):
        monkeypatch.setattr(module, "polar_integral", counted)
    for zeros, s, z, r in _pj_suite():
        assert poisson_jensen_residual(BlaschkeSpec(zeros), standard_disk(s), z, r) < 1e-13
        assert poisson_jensen_residual(BlaschkeSpec(zeros), None, z, r) < 1e-13
    assert calls == []
    # the count sees the quadrature: a weight without a declared constant makes one call
    s2 = standard_disk(2.0)
    wrapped = custom_weight(s2.phi, s2.lap_poincare_ratio, Domain.DISK)
    poisson_jensen_residual(BlaschkeSpec(), wrapped, 0.1, 0.5)
    assert calls == [1]


@pytest.mark.parametrize("weight", [CURVED, standard_disk(2.0)], ids=["curved", "standard"])
@pytest.mark.parametrize("r", [0.5, 0.8, 0.95])
def test_margin_at_a_rim_center_matches_a_dense_reference(weight, r):
    # the reference samples the explicit pull-back on uniform angles
    z = 0.97 * np.exp(-1.1j)
    coeffs = [1.0, -0.5, 0.25j]
    cs = np.asarray(coeffs[::-1])

    def pulled(zeta):
        w = mobius_involution(z, zeta)
        return np.abs(np.polyval(cs, w)) ** 2 * np.exp(-np.asarray(weight.phi(w), dtype=float))

    fine = QuadratureRule(n_panels=64, n_theta=512, rel_tol=1e-13, max_nodes=2**23)
    mass = polar_integral(pulled, 0.0, 0.0, r, _hyper_weight, None, fine)
    point = abs(np.polyval(cs, z)) ** 2 * math.exp(-float(weight.phi(np.asarray([z]))[0]))
    assert bergman_inequality_margin(coeffs, weight, z, r) == pytest.approx(point / mass, rel=1e-10)


def test_margin_trivial_zero():
    assert bergman_inequality_margin([0.0], None, 0.3, 0.5) == 0.0


def test_margin_constant_closed_form():
    # f = 1, phi = 0, r = 0.5: 1 / (pi r^2 / (1 - r^2)) = 3/pi
    got = bergman_inequality_margin([1.0], None, 0.2 + 0.1j, 0.5)
    assert got == pytest.approx(3.0 / math.pi, rel=1e-9)


def test_margin_scale_equivariance():
    coeffs = [1.0, -0.5, 0.25j]
    a = bergman_inequality_margin(coeffs, standard_disk(2.0), 0.3, 0.6)
    b = bergman_inequality_margin([2 * c for c in coeffs], standard_disk(2.0), 0.3, 0.6)
    assert a == pytest.approx(b, rel=1e-12)


def test_margin_uniformly_bounded_sample():
    w = standard_disk(2.0)
    worst = 0.0
    for _ in range(25):
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        worst = max(worst, bergman_inequality_margin(coeffs, w, complex(z), 0.5))
    assert math.isfinite(worst)
    assert worst < 50.0


def test_mean_comparison_harmonic_and_constant():
    from bergseq import custom_weight, Domain

    harm = custom_weight(
        lambda z: np.real(np.asarray(z) ** 2), lambda z: np.zeros(np.shape(z)), Domain.DISK
    )
    grid = 0.9 * np.sqrt(rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
    assert mean_comparison_margin(harm, 0.5, grid) < 1e-10
    const = custom_weight(
        lambda z: np.full(np.shape(z), 3.0), lambda z: np.zeros(np.shape(z)), Domain.DISK
    )
    assert mean_comparison_margin(const, 0.5, grid) < 1e-12


def test_mean_comparison_stable_under_refinement():
    w = standard_disk(2.0)
    grid = 0.9 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    m_half = mean_comparison_margin(w, 0.5, grid[:50])
    m_full = mean_comparison_margin(w, 0.5, grid)
    assert m_full >= m_half - 1e-14
    assert m_full <= 1.05 * m_half + 1e-12


def test_mean_comparison_margin_of_zero_mean_harmonic_weight():
    # the log-kernel mean of Re z about 0.3i is 0 exactly; convergence must
    # not need a relative tolerance on a value that is 0
    from bergseq import Domain, custom_weight

    w = custom_weight(np.real, lambda z: np.zeros(np.shape(z)), Domain.DISK)
    assert mean_comparison_margin(w, 0.8, [0.3j]) < 1e-12
