import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import bergseq
from bergseq import (
    DEFAULT_RULE,
    QuadratureRule,
    a_r_euclidean,
    a_r_hyperbolic,
    c_r_cyl,
    c_r_disk,
    circle_mean,
    disk_log_integral,
    polar_integral,
)
from bergseq.errors import DomainViolation, QuadratureNotConverged
from bergseq.geometry import _mobius, mobius_involution
from bergseq.quadrature import (
    _GL_W,
    _GL_X,
    _center_blocks,
    _circle_means,
    _euclid_weight,
    _hyper_weight,
    _log_kernel,
    _loop_points,
    _radial_nodes,
    _row_sums,
    _settled,
)


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
    # each of these was once accepted; with max_nodes = nan the node cap never trips
    for kw in ({"max_nodes": math.nan}, {"max_nodes": 0}, {"max_nodes": -5}, {"max_nodes": 2.5}, {"n_panels": 3.5}):
        with pytest.raises(ValueError, match="must be integers"):
            QuadratureRule(**kw)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.9, 0.99])
def test_a_r_hyperbolic_against_scipy(r):
    # oracle: 1-d radial integral of the same closed-form integrand
    oracle, err = integrate.quad(
        lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2) / (1 - rho**2) ** 2, 0, r
    )
    assert err < 1e-6 * oracle
    assert a_r_hyperbolic(r) == pytest.approx(oracle, rel=1e-8)
    assert disk_log_integral(r, ones) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("r", [0.3, 0.7])
def test_a_r_euclidean_against_scipy(r):
    oracle, err = integrate.quad(lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2), 0, r)
    assert err < 1e-10
    assert a_r_euclidean(r) == pytest.approx(oracle, rel=1e-11)
    assert polar_integral(ones, 0.0, 0.0, r, _euclid_weight, _log_kernel(r)) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("r", [0.6, 0.9, 0.975])
def test_c_r_disk_against_scipy(r):
    oracle, err = integrate.quad(
        lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2) / (1 - rho**2) ** 2, 0.5, r
    )
    assert err < 1e-6 * oracle
    assert c_r_disk(r) == pytest.approx(oracle, rel=1e-8)
    assert polar_integral(ones, 0.0, 0.5, r, _hyper_weight, _log_kernel(r)) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("r", [2.0, 8.0, 16.0])
def test_c_r_cyl_against_scipy(r):
    oracle, err = integrate.quad(lambda rho: 2 * math.pi * rho * math.log(r**2 / rho**2), 1.0, r)
    assert err < 1e-8 * oracle
    assert c_r_cyl(r) == pytest.approx(oracle, rel=1e-10)
    assert polar_integral(ones, 5j * r, 1.0, r, _euclid_weight, _log_kernel(r)) == pytest.approx(oracle, rel=1e-9)


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


def test_settled_judges_each_component_on_its_own():
    # the small component still moves by 10% when the large one has
    # settled; measured against the large one's magnitude it would pass
    rule = QuadratureRule(rel_tol=1e-2)
    ests = [np.array([100.0, 1.0]), np.array([100.0, 1.1]), np.array([100.0, 1.1001])]
    assert not _settled(ests[1], ests[0], rule, np.abs(ests[1]))
    assert _settled(ests[2], ests[1], rule, np.abs(ests[2]))


def test_kernel_columns_match_single_radius_integrals():
    # one pass over D_0.99 with one column per radius gives each disk's integral
    c, radii = 3.5, np.array([0.9, 0.99])
    const = lambda z: c * np.ones(z.shape)
    kernel = lambda rho: np.log(np.maximum(radii**2 / (rho * rho)[:, None], 1.0))
    got = polar_integral(const, 0.0, 0.0, 0.99, _hyper_weight, kernel, breaks=tuple(radii))
    assert got.shape == (2,)
    for r, g in zip(radii, got):
        assert g == pytest.approx(disk_log_integral(r, const), rel=1e-12)
        assert g == pytest.approx(c * a_r_hyperbolic(r), rel=1e-10)


def _angle_counts(f):
    """f, and the angular node counts of the arrays the quadrature hands it."""
    seen = set()

    def counted(z):
        seen.add(z.shape[1])
        return f(z)

    return counted, seen


def test_radial_integrand_never_doubles_angles():
    # no theta dependence: the even-angle estimate equals the full one, so
    # only the panels are refined
    f, seen = _angle_counts(lambda z: 1.0 / (1.0 + np.abs(z) ** 2))
    got = polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, _log_kernel(0.9))
    oracle, _ = integrate.quad(
        lambda rho: 2 * math.pi * rho * math.log(0.81 / rho**2) / ((1 + rho**2) * (1 - rho**2) ** 2),
        0.0, 0.9, epsabs=0.0, epsrel=1e-13,
    )
    assert seen == {DEFAULT_RULE.n_theta}
    assert got == pytest.approx(oracle, rel=1e-10)


def test_border_integrand_near_the_rim_doubles_angles():
    # the curved weight's pulled-back density about c = 0.94 peaks sharply
    # in theta, which 64 angles do not resolve
    c, r = 0.94, 0.99
    lap = lambda w: 4.0 + 2.0 * (1.0 - np.abs(w) ** 2) ** 2
    f, seen = _angle_counts(lambda zeta: lap(mobius_involution(c, zeta)) - 2.0)
    polar_integral(f, 0.0, 0.0, r, _hyper_weight, _log_kernel(r))
    assert max(seen) > DEFAULT_RULE.n_theta


def test_centers_on_shared_rings_take_their_own_table_rows():
    # three centers on one block of radii; the second samples every other
    # ring of it, as a center that doubled its panels samples only its new
    # radii.  Each gets its own nodes, and e^{iw} from the shared table as
    # from a call of its own, bit for bit.
    n_theta = 64
    ring = np.exp(1j * (2.0 * math.pi / n_theta) * np.arange(n_theta))
    centers = np.array([1.0 + 9.0j, 2.0 + 8.0j, 0.5 + 7.0j])
    rho = np.array([1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 1.0, 2.0, 3.0, 4.0])
    owners = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 2])
    seen = np.zeros(rho.size, dtype=int)
    for ks, nodes, _ in _center_blocks(rho, owners, ring, centers):
        w = np.array(nodes)
        assert w.tobytes() == (centers[owners[ks], None] - rho[ks, None] * ring).tobytes()
        z = nodes.exp_i()
        assert np.allclose(z, np.exp(1j * w), rtol=1e-14, atol=0.0)
        (_, alone, _), = _center_blocks(rho[ks], np.zeros(ks.size, dtype=int), ring, centers[owners[ks[:1]]])
        assert z.tobytes() == alone.exp_i().tobytes()
        seen[ks] += 1
    assert np.all(seen == 1)


@pytest.mark.parametrize("n_theta", [16, 64, 1024])
@pytest.mark.parametrize("z", [0.5, 0.97 * np.exp(0.3j), -0.995j])
def test_balanced_rings_keep_constants_exact(z, n_theta):
    # each ring's factor (1 - a^N)/(1 + a^N) undoes the N-angle trapezoid
    # sum of the Jacobian, for the full and for the even-angle sums
    rho = np.array([0.05, 0.5, 0.9, 0.99])
    z = np.repeat(_loop_points(0.0, z, 1.0)[2], rho.size, axis=1)
    sums = _row_sums(lambda w: np.full(w.shape, -2.5), rho, np.arange(rho.size), n_theta, z, _mobius, balanced=True)
    np.testing.assert_allclose(sums, np.outer([-2.5 * n_theta, -1.25 * n_theta, 2.5 * n_theta], np.ones(4)),
                               rtol=1e-14)

    # and the samples are phi_z of points on the rings |zeta| = rho (one
    # block of 4 rows; the round trip through phi_z near the rim costs
    # up to (1 + |z|)/(1 - |z|) ulps)
    def on_rings(w):
        np.testing.assert_allclose(np.abs(mobius_involution(z[0, :, None], w)), np.broadcast_to(rho[:, None], w.shape),
                                   rtol=1e-12)
        return np.ones(w.shape)

    _row_sums(on_rings, rho, np.arange(rho.size), n_theta, z, _mobius, balanced=True)


@pytest.mark.parametrize("z", [1.0, -1.5j, complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_pullback_point_is_checked_before_sampling(z):
    # the balanced rings would take sqrt(1 - |z|^2 rho^2) and sample NaN,
    # which the row sums excise to 0
    calls = []

    def f(w):
        calls.append(w.shape)
        return np.ones(w.shape)

    with pytest.raises(DomainViolation):
        polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, None, pullback=z)
    with pytest.raises(DomainViolation):
        disk_log_integral(0.9, f, pullback=z)
    # anywhere in a vector of points, ahead of good ones and after them
    with pytest.raises(DomainViolation):
        polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, None, pullback=[0.5, -0.2j, z, 0.0])
    assert calls == []


@pytest.mark.parametrize("z", [1.0, -1.5j, complex(math.nan, 0.0), complex(0.0, math.inf)])
@pytest.mark.parametrize("call", [
    lambda w, z: bergseq.border_density_ratio([], w, z, 0.9),
    lambda w, z: bergseq.log_mean_disk(w, 0.8, z),
    lambda w, z: bergseq.truncated_log_mean(w, 0.8, 0.2, z),
    lambda w, z: bergseq.mean_comparison_margin(w, 0.8, [z]),
    lambda w, z: bergseq.poisson_jensen_residual(bergseq.BlaschkeSpec(()), w, z, 0.8),
    lambda w, z: bergseq.bergman_inequality_margin([1.0, 0.5], w, z, 0.8),
    lambda w, z: bergseq.mean_comparison_margin(w, 0.8, [0.3, -0.4j, z, 0.1]),
    lambda w, z: bergseq.density_sweep(bergseq.SequenceSet((0.3,), bergseq.Domain.DISK), w,
                                       centers=[0.2, 0.5j, z]),
], ids=["border_quotient", "log_mean_disk", "truncated_log_mean", "mean_comparison_margin",
        "poisson_jensen_residual", "bergman_inequality_margin", "mean_comparison_grid", "density_sweep"])
def test_every_pullback_caller_rejects_a_bad_center(call, z):
    calls = []

    def counted(f):
        def g(w):
            calls.append(np.shape(w))
            return f(w)
        return g

    weight = bergseq.custom_weight(counted(lambda w: np.abs(w) ** 2), counted(lambda w: 4.0 + np.abs(w) ** 2),
                                   bergseq.Domain.DISK)
    calls.clear()
    with pytest.raises(DomainViolation):
        call(weight, z)
    # no quadrature node was sampled (those come as 2-D arrays)
    assert [shape for shape in calls if len(shape) == 2] == []


def test_pullback_needs_a_disk_about_zero_inside_the_unit_disk():
    with pytest.raises(DomainViolation):
        polar_integral(ones, 0.1, 0.0, 0.5, _hyper_weight, None, pullback=0.3)
    with pytest.raises(DomainViolation):
        polar_integral(ones, 0.0, 0.0, 1.5, _euclid_weight, None, pullback=0.3)


def test_pullback_at_zero_keeps_uniform_angles():
    # phi_0(zeta) = -zeta leaves no peak to balance: no restart on
    # balanced angles, and the same nodes as the explicit pull-back
    counts = []

    def counted(f):
        def g(w):
            counts.append(w.size)
            return f(w)
        return g

    got = polar_integral(counted(lambda w: np.real(w) ** 40), 0.0, 0.0, 0.9, _hyper_weight, _log_kernel(0.9),
                         pullback=0.0)
    n_pullback, counts[:] = sum(counts), []
    want = polar_integral(counted(lambda zeta: np.real(-zeta) ** 40), 0.0, 0.0, 0.9, _hyper_weight,
                          _log_kernel(0.9))
    assert got == want
    assert n_pullback == sum(counts)


def _level_radii(f):
    """f, and the number of radii the quadrature samples it on at each level.

    Within a level the rows come in increasing radius, so a level starts
    wherever the radius drops.
    """
    rows = []

    def counted(z):
        rows.extend(np.abs(z[:, 0]))
        return f(z)

    def levels():
        starts = [0] + [i for i in range(1, len(rows)) if rows[i] < rows[i - 1]] + [len(rows)]
        return [b - a for a, b in zip(starts, starts[1:])]

    return counted, levels


@pytest.mark.parametrize("measure, r", [
    (_euclid_weight, 0.5), (_euclid_weight, 0.9), (_euclid_weight, 0.99),
    (_hyper_weight, 0.5), (_hyper_weight, 0.9),
])
@pytest.mark.parametrize(
    "profile", [lambda z: np.ones(z.shape), lambda z: 1.0 / (1.0 + np.abs(z) ** 2)], ids=["constant", "radial"]
)
def test_origin_centred_integrals_settle_at_the_second_level(measure, r, profile):
    # the mapped center panel takes the kernel's rho log(1/rho) out of the
    # radial error, so 8 and 16 panels of 12 nodes agree and no third
    # level (384 radii) runs.  (Under the hyperbolic measure at r = 0.99
    # the outer rim panel, not the center, still asks for a third.)  The
    # six panels the doubling leaves whole, 72 radii, are not sampled again.
    f, levels = _level_radii(profile)
    f, seen = _angle_counts(f)
    grids = []

    def weight(rho):
        grids.append(rho.size)
        return measure(rho)

    polar_integral(f, 0.0, 0.0, r, weight, _log_kernel(r))
    assert grids == [96, 192]
    assert levels() == [96, 120]
    assert seen == {DEFAULT_RULE.n_theta}


@pytest.mark.parametrize("pullback", [None, 0.3 - 0.2j])
def test_no_node_is_sampled_twice_on_equal_angles(pullback):
    # a radial profile doubles the panels on 64 angles: the second level
    # samples only the radii of the panels it split
    nodes = []

    def counted(z):
        nodes.extend(z.ravel().tolist())
        return 1.0 / (1.0 + np.abs(z) ** 2)

    got = polar_integral(counted, 0.0, 0.0, 0.9, _hyper_weight, _log_kernel(0.9), pullback=pullback)
    assert len(nodes) == (96 + 120) * DEFAULT_RULE.n_theta
    assert len(set(nodes)) == len(nodes)
    # and reuse keeps the sum of a call that samples every level whole
    flat = lambda z: 1.0 / (1.0 + np.abs(z) ** 2)
    assert got == polar_integral(flat, 0.0, 0.0, 0.9, _hyper_weight, _log_kernel(0.9), pullback=pullback)


def test_radial_nodes_are_shared_and_read_only():
    rho, w = _radial_nodes(0.0, 0.9, 16, (0.3,))
    assert _radial_nodes(0.0, 0.9, 16, (0.3,)) == (rho, w)
    assert _radial_nodes(0.0, 0.9, 16, (0.3,))[0] is rho
    assert not rho.flags.writeable and not w.flags.writeable


def test_empty_pullback_vector_returns_an_empty_result():
    def f(w):
        raise AssertionError("no node is sampled")

    kernel = lambda rho: np.log(np.maximum(np.array([0.81, 0.25]) / (rho * rho)[:, None], 1.0))
    assert polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, kernel, breaks=(0.5,), pullback=[]).shape == (0, 2)
    assert polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, None, pullback=np.array([])).shape == (0,)
    with pytest.raises(DomainViolation):
        polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, None, pullback=np.zeros((2, 2)))


def test_per_point_breaks_must_match_the_points():
    def f(w):
        raise AssertionError("no node is sampled")

    with pytest.raises(ValueError, match="one tuple of breaks per point: got 1 for 2 points"):
        polar_integral(f, [0.1, 0.2j], 0.0, 0.9, _euclid_weight, None, breaks=[(0.5,)])
    with pytest.raises(ValueError, match="got 2 for 1 points"):
        polar_integral(f, 0.0, 0.0, 0.9, _hyper_weight, None, breaks=[(0.5,), (0.6,)], pullback=0.3)


def test_a_point_that_does_not_converge_raises_with_its_own_level():
    # the pulled-back step jumps across Re w = 0.5, which the disk of
    # pseudohyperbolic radius 0.3 about 0.5 crosses and the ones about
    # -0.5 and 0.1j do not
    rule = QuadratureRule(max_nodes=2**16)
    step = lambda w: (w.real > 0.5).astype(float)
    integral = lambda z: polar_integral(step, 0.0, 0.0, 0.3, _hyper_weight, None, rule, pullback=z)
    with pytest.raises(QuadratureNotConverged) as alone:
        integral(0.5)
    with pytest.raises(QuadratureNotConverged) as among:
        integral([-0.5, 0.1j, 0.5])
    a, b = alone.value, among.value
    assert (b.n_panels, b.n_theta, b.n_nodes) == (a.n_panels, a.n_theta, a.n_nodes)
    assert b.last_estimates == a.last_estimates
    assert list(integral([-0.5, 0.1j])) == [integral(-0.5), integral(0.1j)]
    # the message names the point among the others, by index and value
    assert str(b).startswith("polar integral at pullback[2] = (0.5+0j): ")
    # and so for centers: the step crosses the disk about 0.5 off its center
    step = lambda w: (w.real > 0.6).astype(float)
    with pytest.raises(QuadratureNotConverged, match=r"^polar integral at center\[1\] = \(0\.5\+0j\): "):
        polar_integral(step, [0.0, 0.5, 0.1j], 0.0, 0.3, _euclid_weight, None, rule)


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.8, 0.9, 0.99])
def test_disk_log_integral_of_one_matches_the_closed_forms(r):
    assert disk_log_integral(r, ones) == pytest.approx(a_r_hyperbolic(r), rel=1e-13)
    assert polar_integral(ones, 0.0, 0.0, r, _euclid_weight, _log_kernel(r)) == pytest.approx(a_r_euclidean(r),
                                                                                            rel=1e-13)


def _sawtooth(z):
    # jumps by -2 pi at theta = pi, where every level samples the one-sided
    # value pi: the full and even-angle estimates differ by pi/n_theta of
    # the radial mass, so the angles never settle
    return np.angle(z)


def test_level_memory_is_bounded_by_the_block():
    # the last level has 192 radii x 2048 angles, so its whole sample array
    # alone would take 3 MB
    rule = QuadratureRule(max_nodes=2**19)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureNotConverged) as err:
            polar_integral(_sawtooth, 0.0, 0.0, 0.9, _hyper_weight, _log_kernel(0.9), rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.n_nodes >= 2**18
    assert peak < 2**20


def test_not_converged_reports_the_last_level():
    rule = QuadratureRule(max_nodes=2**16)
    with pytest.raises(QuadratureNotConverged) as err:
        polar_integral(_sawtooth, 0.0, 0.0, 0.9, _hyper_weight, _log_kernel(0.9), rule)
    exc = err.value
    # the radii settle after one doubling, to 16 panels of 12 Gauss nodes,
    # and from then on only the angles double
    assert (exc.n_panels, exc.n_theta, exc.n_nodes) == (16, 256, 16 * 12 * 256)
    assert exc.n_nodes * 2 > rule.max_nodes
    assert len(exc.last_estimates) == 2
    assert "16 panels x 256 angles, 49152 nodes" in str(exc)


def _one(z):
    return 1.0


def _radial_columns(g):
    """The kernel columns (1, g) of a radial mean of the profile g, for a polar_integral of 1."""
    return lambda rho: np.column_stack((np.ones_like(rho), g(rho)))


def _radial_mean(g, rho_lo, rho_hi, radial_weight, rule, breaks=()):
    """The mean of the profile g(rho) against radial_weight(rho) rho drho: one polar_integral of 1."""
    est = polar_integral(_one, 0.0, rho_lo, rho_hi, radial_weight, _radial_columns(g), rule, breaks)
    return est[1:] / est[0]


def test_radial_mean_not_converged_reports_the_last_level():
    # a profile of fresh noise at every level never settles; the levels
    # have 8 and 16 panels of 12 Gauss nodes on 64 angles, and the next
    # one (32 panels, 24576 nodes) would pass max_nodes
    noise = lambda rho: np.random.default_rng(5).standard_normal(rho.size)
    rule = QuadratureRule(max_nodes=2**14)
    with pytest.raises(QuadratureNotConverged) as err:
        polar_integral(_one, 0.0, 0.0, 0.9, _euclid_weight, _radial_columns(noise), rule)
    exc = err.value
    assert (exc.n_panels, exc.n_theta, exc.n_nodes) == (16, 64, 16 * 12 * 64)
    assert len(exc.last_estimates) == 2
    assert "at 16 panels x 64 angles, 12288 nodes" in str(exc)


def test_radial_mean_that_cancels_to_zero_settles():
    # int_0^1 (2/3 - rho) rho drho = 0: the signed profile column has no
    # magnitude of its own, so it settles only against the mean of |.|,
    # at the second level; max_nodes allows no third
    rule = QuadratureRule(max_nodes=2**14)
    got = _radial_mean(lambda rho: 2.0 / 3.0 - rho, 0.0, 1.0, _euclid_weight, rule)
    assert abs(float(got[0])) < 1e-15


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
    got = _radial_mean(g, 0.0, r, hyper, DEFAULT_RULE, breaks=(b,))
    assert float(got[0]) == pytest.approx(oracle / norm, rel=1e-11)


def test_gauss_rule_is_numpys():
    x, w = np.polynomial.legendre.leggauss(12)
    assert _GL_X.tobytes() == x.tobytes()
    assert _GL_W.tobytes() == w.tobytes()


def test_quadrature_imports_neither_numpy_ma_nor_numpy_polynomial():
    # together they add about 2 MB to the resident size of a process
    code = (
        "import sys, numpy as np, bergseq\n"
        "bergseq.polar_integral(lambda z: np.abs(z), 0.0, 0.0, 0.9, np.ones_like,"
        " lambda rho: np.log(0.81 / rho ** 2), breaks=(0.3, 0.6))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial'])))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(bergseq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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


def test_circle_means_of_a_quadratic_are_exact_and_each_its_own_call():
    # the mean of |q + r e^{it}|^2 - |q|^2 is r^2; the angles settle at once
    sizes = []
    f = lambda w: sizes.append(w.size) or np.abs(w) ** 2
    centers = np.array([0.0, 1.0 + 2.0j, -3.0j, 40.0 + 7.0j])
    got = _circle_means(f, centers, 2.5)
    assert got == pytest.approx(np.full(4, 6.25), rel=1e-13)
    assert sizes == [4, 4 * 64]  # the centers, then one level of 64 angles
    assert got.tobytes() == np.concatenate([_circle_means(f, [q], 2.5) for q in centers]).tobytes()
    assert _circle_means(f, np.zeros(0), 2.5).shape == (0,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_circle_means_raise_at_a_non_finite_sample_naming_the_center():
    # the circle of radius 4 about 3j reaches Im w < 0, where log is NaN:
    # no sample is excised
    f = lambda w: np.log(np.imag(w))
    with pytest.raises(DomainViolation, match=r"center\[1\] = 3j: .* on the circle of radius 4\.0"):
        _circle_means(f, [9j, 3j], 4.0)
    calls = []
    with pytest.raises(DomainViolation, match=r"center\[1\] = \(nan\+9j\) is not finite"):
        _circle_means(lambda w: calls.append(1) or f(w), [5j, complex(math.nan, 9.0)], 4.0)
    assert calls == []


def test_circle_means_past_max_nodes_raise_naming_the_center():
    # |Re w| is kinked on the circle about 0, so its trapezoid sums settle
    # only like N^-2; about 5 the circle misses the kink and settles
    rule = QuadratureRule(rel_tol=1e-12, max_nodes=256)
    with pytest.raises(QuadratureNotConverged, match=r"radius 1\.0 about center\[1\] = 0j") as err:
        _circle_means(lambda w: np.abs(w.real), [5.0, 0.0], 1.0, rule)
    assert err.value.n_theta == 256 and len(err.value.last_estimates) == 2
    # each doubling samples only its new, odd-indexed angles
    sizes = []
    with pytest.raises(QuadratureNotConverged):
        _circle_means(lambda w: sizes.append(w.size) or np.abs(w.real), [0.0], 1.0, rule)
    assert sizes == [1, 64, 64, 128]
    assert _circle_means(lambda w: np.abs(w.real), [5.0], 1.0, rule) == pytest.approx([0.0], abs=1e-14)


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
