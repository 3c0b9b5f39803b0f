import math

import numpy as np
import pytest

from bergseq import (
    DISK_AREA_CONSTANT,
    gram_assemble,
    generate_lattice,
    interpolation_constant_estimate,
    kernel_diag_check,
    min_norm_interpolant,
    numeric_gram_kernel,
    standard_kernel,
)
from bergseq.errors import DomainViolation
from bergseq.kernels import _diag_scale, _monomial_norms

rng = np.random.default_rng(13)


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
def test_normalizer_matches_beta_value(s):
    # the quadrature normalizer must reproduce (s-1)/pi = 1/B(1, s-1)/pi
    k = standard_kernel(s)
    c_s = float(np.real(k.evaluate(0.0, 0.0)))
    assert c_s == pytest.approx((s - 1.0) / math.pi, rel=1e-9)


def test_kernel_hermitian_symmetry():
    k = standard_kernel(2.0)
    z, w = 0.3 + 0.4j, -0.5j
    assert k.evaluate(z, w) == pytest.approx(np.conjugate(k.evaluate(w, z)), rel=1e-14)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_diag_product_is_constant(s):
    k = standard_kernel(s)
    grid = 0.95 * np.sqrt(rng.random(60)) * np.exp(2j * np.pi * rng.random(60))
    diag = kernel_diag_check(k, grid)
    assert np.max(diag) / np.min(diag) == pytest.approx(1.0, abs=1e-9)
    # the constant itself: c_s * pi sinh^2(1) = (s-1) sinh^2(1)
    assert np.median(diag) == pytest.approx((s - 1.0) * math.sinh(1.0) ** 2, rel=1e-8)


def test_numeric_gram_matches_closed_form():
    for s in (2.0, 3.0):
        kc = standard_kernel(s)
        kn = numeric_gram_kernel(s)
        grid = 0.95 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        num = kn.evaluate(grid[:, None], grid[None, :])
        ref = kc.evaluate(grid[:, None], grid[None, :])
        assert np.max(np.abs(num - ref) / np.abs(ref)) < 1e-4


@pytest.mark.parametrize("n", [100, 200, 300])
@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
def test_in_place_gram_is_bit_identical_to_the_plain_formula(s, n):
    k = standard_kernel(s)
    pts = generate_lattice("hyperbolic-disk", n, seed=11, d=0.35, margin=0.02).array()
    g = gram_assemble(k, pts)
    c_s = 1.0 / _monomial_norms(s, 0)[0]
    raw = c_s * (1.0 - pts[:, None] * np.conjugate(pts[None, :])) ** (-s)
    root = np.sqrt(_diag_scale(k.weight, pts))
    scaled = raw * root[:, None] * root[None, :]
    assert g.raw.tobytes() == raw.tobytes()
    assert g.normalized.tobytes() == (0.5 * (scaled + scaled.conj().T)).tobytes()


def test_gram_normalized_hermitian_psd():
    k = standard_kernel(2.0)
    lat = generate_lattice("hyperbolic-disk", 25, seed=1, d=0.5)
    g = gram_assemble(k, lat.array())
    assert np.allclose(g.normalized, g.normalized.conj().T)
    eig = np.linalg.eigvalsh(g.normalized)
    assert eig[0] > 0


def test_interpolation_constant_single_point():
    # one point: normalized Gram is the scalar (s-1) sinh^2(1)
    k = standard_kernel(2.0)
    g = gram_assemble(k, np.array([0.4j]))
    expect = 1.0 / math.sqrt(DISK_AREA_CONSTANT / math.pi)
    assert interpolation_constant_estimate(g) == pytest.approx(expect, rel=1e-9)


def test_min_norm_interpolant_reproduces_data():
    k = standard_kernel(2.0)
    pts = np.array([0.1, 0.5j, -0.4 + 0.2j])
    vals = np.array([1.0, -2.0 + 1j, 0.5])
    f, norm = min_norm_interpolant(k, pts, vals)
    assert np.max(np.abs(f(pts) - vals)) < 1e-10
    assert norm > 0


def test_min_norm_single_point_norm():
    # norm^2 = |v|^2 / K(z, z)
    k = standard_kernel(2.0)
    z, v = 0.3 + 0.1j, 2.0 - 1.0j
    _, norm = min_norm_interpolant(k, np.array([z]), np.array([v]))
    expect = abs(v) / math.sqrt(float(np.real(k.evaluate(z, z))))
    assert norm == pytest.approx(expect, rel=1e-12)


def test_min_norm_is_minimal_among_interpolants():
    # adding any kernel-span correction vanishing on the nodes only
    # grows the norm: check against the two-point explicit solve
    k = standard_kernel(2.0)
    pts = np.array([0.2, -0.3j])
    vals = np.array([1.0, 1.0])
    _, norm = min_norm_interpolant(k, pts, vals)
    # perturb data off the solution manifold: interpolating a superset
    # of constraints can only need a larger norm
    pts3 = np.array([0.2, -0.3j, 0.6])
    vals3 = np.array([1.0, 1.0, 5.0])
    _, norm3 = min_norm_interpolant(k, pts3, vals3)
    assert norm3 >= norm - 1e-12


def test_gram_assemble_guards():
    k = standard_kernel(2.0)
    with pytest.raises(DomainViolation):
        gram_assemble(k, np.array([]))
    with pytest.raises(ValueError):
        standard_kernel(1.0)
