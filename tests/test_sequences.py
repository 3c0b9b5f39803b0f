import cmath
import copy
import math
import pickle
import re
import warnings
from dataclasses import astuple, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from bergseq import (
    BORDER_R_GRID,
    ClassifyParams,
    Domain,
    SequenceSet,
    a_r_hyperbolic,
    border_density_ratio,
    center_net,
    classify,
    custom_weight,
    cyl_dist,
    decompose,
    density_sweep,
    disk_log_integral,
    generate_lattice,
    hyp_dist,
    lift_value,
    mobius_involution,
    pseudo_dist,
    puncture_density_ratio,
    separation_border,
    separation_puncture,
    standard_disk,
    standard_puncture,
)
from bergseq import sequences, weights
from bergseq.errors import BergseqError, DomainViolation, WindowViolation
from bergseq.geometry import _mobius
from bergseq.quadrature import DEFAULT_RULE, QuadratureRule, _balanced_rings, _circle_means, _hyper_weight, polar_integral
from bergseq.sequences import CENTER_CAP, PUNCTURE_R_GRID, _greedy_separated
from bergseq.weights import _nested_kernel

rng = np.random.default_rng(99)


def test_sequence_set_validation():
    with pytest.raises(DomainViolation):
        SequenceSet((1.0 + 0j,), Domain.DISK)
    with pytest.raises(DomainViolation):
        SequenceSet((0.0j,), Domain.PUNCTURED_DISK)
    with pytest.raises(DomainViolation):
        SequenceSet((0.3, 0.3), Domain.DISK)
    with pytest.raises(DomainViolation):
        SequenceSet((complex(math.nan, 0.0),), Domain.DISK)
    assert len(SequenceSet((), Domain.DISK)) == 0


def test_decompose_split():
    seq = SequenceSet((0.1, 0.5, 0.9j), Domain.PUNCTURED_DISK)
    star, border = decompose(seq, 0.5)
    assert star.points == (0.1, 0.5)
    assert border.points == (0.9j,)
    with pytest.raises(DomainViolation):
        decompose(SequenceSet((0.1,), Domain.DISK), 0.5)


@pytest.mark.parametrize("a", [math.nan, -1.0, 0.0, 1.0])
def test_split_modulus_must_lie_in_the_unit_interval(a):
    # NaN once put every point in neither part, and -1 every star point on
    # the border side, so either classified anything as Interpolating
    seq = generate_lattice("puncture-exponential", 60, s=0.3, n=6)
    with pytest.raises(DomainViolation):
        decompose(seq, a)
    with pytest.raises(DomainViolation):
        classify(seq, standard_puncture(2.0, 3.0), ClassifyParams(split_a=a))


def _hyperbolic_exact(z, w):
    """The hyperbolic distance of two disk points, taken in 60-digit decimals from their doubles."""
    with localcontext() as ctx:
        ctx.prec = 60
        zx, zy, wx, wy = map(Decimal, (z.real, z.imag, w.real, w.imag))
        re, im = 1 - (zx * wx + zy * wy), zy * wx - zx * wy  # 1 - conj(z) w
        q = (1 - zx * zx - zy * zy) * (1 - wx * wx - wy * wy) / (re * re + im * im)  # 1 - rho^2
        rho = (1 - q).sqrt()
        return float(((1 + rho) * (1 + rho) / q).ln() / 2)


def test_hyperbolic_separation_stays_finite_at_the_rim():
    # rho rounds to 1 here, and artanh rho taken from 1 - rho divided by 0
    pts = [(1.0 - 1e-9) * cmath.exp(1j * t) for t in (0.0, 1.0, 3.0)]
    seq = SequenceSet(pts, Domain.PUNCTURED_DISK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            want = _hyperbolic_exact(pts[i], pts[j])
            assert hyp_dist(pts[i], pts[j]) == pytest.approx(want, rel=1e-12)
        sep = separation_border(seq)
        verdict = classify(seq, standard_puncture(2.0, 3.0), ClassifyParams(r_grid=(0.9,)))
    assert sep == pytest.approx(0.5 * _hyperbolic_exact(pts[0], pts[1]), rel=1e-12)
    assert sep == pytest.approx(10.34, abs=0.01)
    assert verdict.separation_border == sep


def test_separation_values():
    seq = SequenceSet((0.0, 0.5), Domain.DISK)
    assert separation_border(seq) == pytest.approx(0.25, abs=1e-15)
    assert separation_border(SequenceSet((0.3,), Domain.DISK)) == math.inf
    # punctured-disk border part measures in the geodesic metric
    seqp = SequenceSet((0.6, 0.8), Domain.PUNCTURED_DISK)
    assert separation_border(seqp) == pytest.approx(0.5 * hyp_dist(0.6, 0.8), rel=1e-13)
    # puncture part: cylindrical metric
    seqs = SequenceSet((math.exp(-1.0), math.exp(-2.0)), Domain.PUNCTURED_DISK)
    assert separation_puncture(seqs) == pytest.approx(
        0.5 * cyl_dist(math.exp(-1.0), math.exp(-2.0)), rel=1e-13
    )


def test_border_density_ratio_hand_value():
    # single point at rho = 0.7 from the center, StandardDisk(2):
    # numerator 2 pi log(r^2/0.49), denominator 2 a_r
    w = standard_disk(2.0)
    r = 0.95
    rep = border_density_ratio(np.array([0.7]), w, 0.0, r)
    num = 2.0 * math.pi * math.log(r * r / 0.49)
    assert rep.numerator == pytest.approx(num, rel=1e-13)
    assert rep.denominator == pytest.approx(2.0 * a_r_hyperbolic(r), rel=1e-13)
    assert rep.ratio == pytest.approx(num / (2.0 * a_r_hyperbolic(r)), rel=1e-13)
    assert rep.kind == "border"


def test_border_density_nonconstant_ratio_path():
    # a custom disk weight exercising the quadrature denominator: for
    # the standard family both paths must agree
    from bergseq import custom_weight

    w = standard_disk(3.0)
    w_slow = custom_weight(w.phi, w.lap_poincare_ratio, Domain.DISK)
    pts = np.array([0.6, -0.55j])
    fast = border_density_ratio(pts, w, 0.1, 0.9)
    slow = border_density_ratio(pts, w_slow, 0.1, 0.9)
    assert fast.ratio == pytest.approx(slow.ratio, rel=1e-8)


def test_custom_weight_wraps_scalar_only_callables():
    # one curved weight written with numpy and with math: the math one
    # raises TypeError on arrays, so custom_weight wraps it point by point
    from bergseq import custom_weight

    vec = custom_weight(lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2,
                        lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2, Domain.DISK)
    scal = custom_weight(lambda z: -2.0 * math.log1p(-abs(z) ** 2) + abs(z) ** 2,
                         lambda z: 4.0 + 2.0 * math.pow(1.0 - abs(z) ** 2, 2), Domain.DISK)
    zs = np.array([[0.0, 0.3 - 0.2j], [0.9j, -0.5]])
    assert np.allclose(scal.phi(zs), vec.phi(zs), rtol=1e-15, atol=0.0)
    pts = np.array([0.6, -0.55j])
    want = border_density_ratio(pts, vec, 0.1, 0.9).denominator
    assert border_density_ratio(pts, scal, 0.1, 0.9).denominator == pytest.approx(want, rel=1e-13)


def test_puncture_density_ratio_guards():
    w = standard_puncture(2.0, 3.0)
    with pytest.raises(DomainViolation):
        puncture_density_ratio(np.array([1e-4]), w, 8j, 0.5)
    with pytest.raises(WindowViolation):
        puncture_density_ratio(np.array([1e-4]), w, -8j, 4.0)


def test_puncture_density_ratio_center_lift_invariance():
    w = standard_puncture(2.0, 3.0)
    pts = np.exp(-np.arange(1.0, 14.0))
    a = puncture_density_ratio(pts, w, 8j, 4.0)
    b = puncture_density_ratio(pts, w, 2 * math.pi + 8j, 4.0)
    assert a.ratio == pytest.approx(b.ratio, rel=1e-9)


@pytest.mark.parametrize("q", [2j, 5j, math.pi + 4.5j, 1.0 - 8j])
def test_puncture_density_ratio_takes_only_the_lifts_a_sweep_takes(q, monkeypatch):
    # D_4(2j) crosses the line Im w = 0.1 where the reflected density of
    # the old eps extension was kinked: the quotient once sampled 786 432
    # nodes there and then raised QuadratureNotConverged.  A sweep takes a
    # lift at r only if Im q > r + 1.
    calls = []
    monkeypatch.setattr(weights, "polar_integral", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(WindowViolation, match="Im q > r \\+ 1 = 5,"):
        puncture_density_ratio(np.exp(-np.arange(1.0, 14.0)), standard_puncture(2.0, 3.0), q, 4.0)
    assert calls == []


def _cover_denominator_scipy(y, r, s=2.0, t=3.0):
    """The puncture denominator of standard_puncture(s, t) about a lift at height y, by scipy quad.

    On the cover U(w) = phi(e^{iw}) + 2 log(2 Im w) depends on Im w only,
    U(y) = -s log1p(-e^{-2y}) + (2 - t) log(2y), and the denominator is
    the integral over theta of U(y + r sin theta) - U(y), its differences
    written without cancellation."""
    def f(theta):
        h = r * math.sin(theta)
        return (-s * (math.log1p(-math.exp(-2.0 * (y + h))) - math.log1p(-math.exp(-2.0 * y)))
                + (2.0 - t) * math.log1p(h / y))

    return integrate.quad(f, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def test_puncture_denominators_match_a_scipy_circle_mean():
    w = standard_puncture(2.0, 3.0)
    reps = density_sweep(generate_lattice("puncture-exponential", 30, s=1.0, n=2), w).reports
    for rep in reps[::5]:
        want = _cover_denominator_scipy(rep.center.imag, rep.radius)
        assert rep.denominator == pytest.approx(want, rel=1e-12, abs=0.0)
        assert puncture_density_ratio(np.zeros(0), w, rep.center, rep.radius).denominator == rep.denominator


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(1.0, 20.0, exclude_min=True, exclude_max=True), st.floats(1e-6, 39.0), st.floats(0.0, 2.0 * math.pi),
       st.floats(1.1, 4.0, exclude_min=True, exclude_max=True), st.floats(2.0, 5.0))
# t = 2 at Im q = 18, where the mean of U - U(q) is rounding: without the
# floor its circle ran to 2^20 angles and raised QuadratureNotConverged
@example(4.0, 13.0, 0.0, 2.0, 2.0)
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_puncture_denominators_match_scipy_and_the_next_lift(r, height, x, s, t):
    # Im q in (r + 1, r + 40].  At t = 2 deep in the cusp U cancels to
    # s e^{-2 Im w}, far below its terms, whose rounding then bounds the
    # error: about 64 ulps of |phi| + |2 log 2 Im q| a sample (see
    # weights._U_ROUNDING), and the mean settles there.
    q = complex(x, r + 1.0 + height)
    w = standard_puncture(s, t)
    got = puncture_density_ratio([], w, q, r).denominator
    rounding = 2.0 * math.pi * weights._U_ROUNDING * (abs(float(w.phi(np.exp(1j * q))))
                                                     + abs(2.0 * math.log(2.0 * q.imag)))
    assert got == pytest.approx(_cover_denominator_scipy(q.imag, r, s, t), rel=1e-10, abs=rounding)
    shifted = puncture_density_ratio([], w, q + 2.0 * math.pi, r).denominator
    assert shifted == pytest.approx(got, rel=1e-12, abs=rounding)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_deep_lift_denominator_matches_scipy():
    # at Im q = 200 the denominator is about 1e-4 of U, which cancels
    # against U(q)
    got = puncture_density_ratio([], standard_puncture(2.0, 3.0), 0.3 + 200j, 4.0).denominator
    assert got == pytest.approx(_cover_denominator_scipy(200.0, 4.0), rel=1e-10, abs=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("q, r", [(0.3 + 360j, 4.0), (0.3 + 400j, 4.0), (0.3 + 700j, 16.0)])
def test_a_lift_past_the_depth_limit_raises(q, r):
    # |e^{iw}|^2 underflows past Im w of about 354, where the 2-D curvature
    # integral read 1.09e-309, 0.0 and 0.0 here against 1.939e-4, 1.571e-4
    # and 8.21e-4
    with pytest.raises(DomainViolation, match=re.escape(f"lift[0] = {q}") + ".*radius " + re.escape(str(r))):
        puncture_density_ratio([], standard_puncture(2.0, 3.0), q, r)


def test_center_net_takes_a_scalar_as_one_point():
    # a scalar once raised a bare IndexError
    net = center_net(0.3, 0.3)
    assert net.tolist() == center_net([0.3], 0.3).tolist() and net[0] == 0.3


def test_center_net_is_separated_and_covers():
    pts = 0.8 * np.sqrt(rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
    net = center_net(pts, 0.3)
    for i in range(len(net)):
        for j in range(i + 1, len(net)):
            assert pseudo_dist(net[i], net[j]) >= 0.15 - 1e-12
    # every sequence point is within one mesh of some center
    for p in pts:
        assert min(pseudo_dist(p, c) for c in net) <= 0.3 + 1e-12


@pytest.mark.parametrize("mesh", [0.0, -0.3, math.nan, 1.0])
def test_center_net_needs_a_mesh_in_the_unit_interval(mesh):
    # mesh 0 once repeated each point in the net, a negative mesh kept the
    # first CENTER_CAP candidates unseparated
    pts = generate_lattice("hyperbolic-disk", 10, seed=1, d=0.5).array()
    with pytest.raises(DomainViolation):
        center_net(pts, mesh)


@pytest.mark.parametrize("max_centers", [0, math.nan, -1, 2.5, None, "8"], ids=["0", "nan", "-1", "2.5", "None", "str"])
def test_center_net_needs_an_integer_cap_of_at_least_one(max_centers):
    # 0 and nan once returned an empty net, -1 raised numpy's "negative
    # dimensions are not allowed", and 2.5 and None a TypeError from numpy
    pts = generate_lattice("hyperbolic-disk", 10, seed=1, d=0.5).array()
    with pytest.raises(ValueError, match=re.escape(f"max_centers must be an integer >= 1, got {max_centers!r}")):
        center_net(pts, 0.3, max_centers)


def test_generate_lattice_examples():
    seq = generate_lattice("puncture-exponential", 3, s=1.0, n=1)
    assert np.allclose(seq.array(), np.exp(-np.arange(1.0, 4.0)))
    lat = generate_lattice("hyperbolic-disk", 30, seed=5, d=0.4)
    assert separation_border(lat) >= 0.2 - 1e-12
    with pytest.raises(ValueError):
        generate_lattice("hyperbolic-disk", 5, d=-1.0)
    with pytest.raises(ValueError):
        generate_lattice("puncture-exponential", 5, s=1.0, n=0)
    # s = nan once passed its check and failed later, as points off the
    # domain; inf and 1e308 put their points at 0, 1e-17 on the circle
    for s in (math.nan, math.inf, 1e308, 1e-17):
        with pytest.raises(ValueError, match=f"need s > 0 .* got s = {re.escape(repr(s))}, n = 1"):
            generate_lattice("puncture-exponential", 5, s=s)
    # the deepest ring of 5 points on 2 rays is k = 3: e^(-3 * 250) is 0
    with pytest.raises(ValueError, match="need s > 0"):
        generate_lattice("puncture-exponential", 5, s=250.0, n=2)
    assert len(generate_lattice("puncture-exponential", 4, s=250.0, n=2)) == 4
    with pytest.raises(ValueError):
        generate_lattice("moebius-strip", 5)
    with pytest.raises(BergseqError, match="asked for 30 points, placed 12"):
        generate_lattice("hyperbolic-disk", 30, seed=3, d=0.5, margin=0.3)


@pytest.mark.parametrize("kw, name", [
    ({"margin": 0.0}, "margin"),
    ({"margin": -0.1}, "margin"),
    ({"margin": math.nan}, "margin"),
    ({"margin": 1.0}, "margin"),
    ({"margin": 1e-17}, "margin"),
    ({"margin": 1e-16}, "margin"),
    ({"d": math.nan}, "mesh d"),
    ({"d": 1.5}, "mesh d"),
], ids=["margin=0", "margin=-0.1", "margin=nan", "margin=1", "margin=1e-17", "margin=1e-16", "d=nan", "d=1.5"])
def test_hyperbolic_lattice_parameters_must_lie_in_the_unit_interval(kw, name):
    # these once raised a bare ZeroDivisionError (margin 0, and 1e-17, for
    # which 1 - margin rounds to 1), a candidate off the disk that did not
    # name the margin (1e-16, whose candidates round onto the unit circle),
    # or "asked for 10 points, placed 1"
    with pytest.raises(ValueError, match=f"the {name} must lie in \\(0, 1\\)"):
        generate_lattice("hyperbolic-disk", 10, seed=0, **{"d": 0.35, **kw})


@pytest.mark.parametrize("count", [-2, -1, 2.5], ids=["-2", "-1", "2.5"])
@pytest.mark.parametrize("kind, kw", [("hyperbolic-disk", {"d": 0.35}), ("puncture-exponential", {"s": 1.0})],
                         ids=["hyperbolic-disk", "puncture-exponential"])
def test_generate_lattice_rejects_a_bad_count(kind, kw, count):
    # a negative count once gave an empty puncture set, or numpy's
    # "negative dimensions" on the disk; 2.5 gave three puncture points
    with pytest.raises(ValueError, match="the point count must be an integer >= 0"):
        generate_lattice(kind, count, **kw)


def _plain_candidates(seed, rmax, n=20000):
    """The origin, then n points uniform in hyperbolic area up to rmax, from one draw of all 2 n numbers."""
    gen = np.random.default_rng(seed)
    u = gen.random(n)
    s_max = rmax * rmax / (1.0 - rmax * rmax)
    rho = np.sqrt(u * s_max / (1.0 + u * s_max))
    theta = gen.random(n) * 2.0 * math.pi
    return np.concatenate(([0.0 + 0.0j], rho * np.exp(1j * theta)))


@pytest.mark.parametrize("seed, n", [(0, 100), (7, 100), (11, 100), (0, 300), (11, 300)],
                         ids=["0", "7", "11", "0-n300", "11-n300"])
def test_hyperbolic_lattice_matches_the_plain_formula(seed, n):
    # the in-place candidate build must draw the same points, bit for bit;
    # 300 points reach the fifth of the doubling chunks
    want = _greedy_separated(_plain_candidates(seed, 0.98), 0.35, n)
    got = generate_lattice("hyperbolic-disk", n, seed=seed, d=0.35, margin=0.02).array()
    assert got.tobytes() == want.tobytes()


def test_hyperbolic_lattice_that_runs_out_places_the_whole_greedy_set():
    # every chunk is drawn, and the greedy keeps what one pass over all
    # 20 001 candidates keeps
    want = _greedy_separated(_plain_candidates(3, 0.98), 0.35, 10 ** 6)
    with pytest.raises(BergseqError, match=f"asked for 1000 points, placed {want.size} "):
        generate_lattice("hyperbolic-disk", 1000, seed=3, d=0.35, margin=0.02)
    got = generate_lattice("hyperbolic-disk", want.size, seed=3, d=0.35, margin=0.02).array()
    assert got.tobytes() == want.tobytes()


def test_density_sweep_monotone_under_superset():
    # adding points can only grow the numerator at fixed (z, r)
    w = standard_disk(2.0)
    base = 0.85 * np.sqrt(rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
    extra = np.concatenate([base, [0.4 + 0.3j]])
    for r in BORDER_R_GRID:
        for z in base[:4]:
            small = border_density_ratio(base, w, complex(z), r)
            big = border_density_ratio(extra, w, complex(z), r)
            assert big.numerator >= small.numerator - 1e-12


def test_classify_singleton_interpolating():
    seq = SequenceSet((0.5,), Domain.DISK)
    verdict = classify(seq, standard_disk(2.0))
    assert verdict.verdict == "Interpolating"
    assert verdict.separation_border == math.inf
    assert verdict.density_border == 0.0


def test_classify_separation_failure():
    seq = SequenceSet((0.5, 0.5 + 1e-9), Domain.DISK)
    verdict = classify(seq, standard_disk(2.0))
    assert verdict.verdict == "NotInterpolating"
    assert any("separation" in reason for reason in verdict.reasons)


def test_classify_dense_lattice_not_interpolating():
    lat = generate_lattice("hyperbolic-disk", 50, seed=3, d=0.35)
    verdict = classify(lat, standard_disk(2.0))
    assert verdict.verdict == "NotInterpolating"
    assert verdict.density_border > 1.05


@pytest.mark.parametrize("rays, estimate", [(1, 787.5), (2, 349.8), (3, 200.6)])
def test_classify_puncture_estimate_needs_strict_bound(rays, estimate):
    # standard_puncture fails the strict cylindrical lower bound, so its
    # puncture quotients cannot show that a sequence is not interpolating
    seq = generate_lattice("puncture-exponential", 30, s=1.0, n=rays)
    w = standard_puncture(2.0, 3.0)
    v = classify(seq, w)
    assert v.density_puncture == pytest.approx(estimate, rel=1e-3)
    assert v.verdict == "Indeterminate"
    assert any("strict cylindrical lower bound" in reason for reason in v.reasons)
    strict = replace(w, hypothesis_flags={**w.hypothesis_flags, "puncture_strict": True})
    assert classify(seq, strict).verdict == "NotInterpolating"


def test_classify_domain_mismatch_indeterminate():
    seq = SequenceSet((0.5,), Domain.DISK)
    verdict = classify(seq, standard_puncture(2.0, 3.0))
    assert verdict.verdict == "Indeterminate"


@pytest.mark.parametrize("seq, weight", [
    (generate_lattice("hyperbolic-disk", 20, seed=1, d=0.35), standard_puncture(2.0, 3.0)),
    (generate_lattice("puncture-exponential", 20, s=0.5, n=2), standard_disk(2.0)),
], ids=["disk-sequence", "punctured-sequence"])
def test_sweep_refuses_a_weight_of_the_other_domain(seq, weight):
    # each once swept without a word (estimates 0.2025 and 0.109), where
    # classify calls the pair Indeterminate
    with pytest.raises(DomainViolation, match="the weight lives on the"):
        density_sweep(seq, weight)
    assert classify(seq, weight).verdict == "Indeterminate"


def test_classify_deterministic():
    lat = generate_lattice("hyperbolic-disk", 25, seed=8, d=0.5)
    a = classify(lat, standard_disk(2.0))
    b = classify(lat, standard_disk(2.0))
    assert a == b


def test_equal_sweeps_compare_and_hash_equal():
    lat = generate_lattice("hyperbolic-disk", 25, seed=8, d=0.5)
    a, b = (classify(lat, standard_disk(2.0)) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert a.sweep == b.sweep and hash(a.sweep) == hash(b.sweep)
    assert classify(lat, standard_disk(2.0), ClassifyParams(r_grid=(0.9, 0.95))).sweep != a.sweep
    # the same centers, radii and numerators, other denominators
    assert density_sweep(lat, standard_disk(3.0)) != a.sweep


class _NoReport:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a DensityReport was built")


def test_classify_and_density_sweep_build_no_density_report(monkeypatch):
    cases = [(generate_lattice("hyperbolic-disk", 25, seed=8, d=0.5), standard_disk(2.0)),
             (generate_lattice("puncture-exponential", 40, s=0.5, n=2), standard_puncture(2.0, 3.0))]
    monkeypatch.setattr(sequences, "DensityReport", _NoReport)
    results = [(classify(seq, w), density_sweep(seq, w)) for seq, w in cases]
    monkeypatch.undo()
    for v, sweep in results:
        assert sweep.reports and v.sweep.reports == sweep.reports
        assert sweep.reports is sweep.reports  # built once, then cached


def test_sweep_columns_are_read_only_views():
    lat = generate_lattice("hyperbolic-disk", 12, seed=3, d=0.35, margin=0.1)
    ctrs = np.array([0.0, 0.3 - 0.2j])
    sweep = density_sweep(lat, standard_disk(2.0), centers=ctrs)
    for block in sweep._blocks:
        for column in (block.centers, block.numerators, block.denominators):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
    ctrs[0] = 0.5  # the caller's array stays writable, and the sweep keeps its centers
    assert sweep.reports[0].center == 0.0


def test_reports_are_the_single_quotient_calls_field_by_field():
    # the border quotients of a disk weight and the puncture quotients are
    # taken per center and radius, so a sweep's are the single calls' to the
    # bit, and of the same Python types
    lat = generate_lattice("hyperbolic-disk", 12, seed=3, d=0.35, margin=0.1)
    star = generate_lattice("puncture-exponential", 30, s=1.0, n=2)
    for seq, w, single in ((lat, CURVED, border_density_ratio),
                           (star, standard_puncture(2.0, 3.0), puncture_density_ratio)):
        reps = density_sweep(seq, w).reports
        assert reps
        for rep in reps:
            want = single(seq, w, rep.center, rep.radius)
            assert [(type(x), x) for x in astuple(rep)] == [(type(x), x) for x in astuple(want)]


def test_sweep_records_skipped_radii_and_degenerate_count():
    # the star lifts reach Im q = 10: past r + 1 = 5 and 9, short of 17
    seq = generate_lattice("puncture-exponential", 40, s=0.5, n=2)
    sweep = density_sweep(seq, standard_puncture(2.0, 3.0))
    assert sweep.skipped_radii == (16.0,)
    assert sweep.notes == ("no admissible center lifts at r = 16.0",)
    assert {rep.radius for rep in sweep.reports if rep.kind == "puncture"} == {4.0, 8.0}
    assert (sweep.n_degenerate, sweep.degenerate) == (0, False)
    # a declared curvature of 2 puts every border denominator at 0
    flat_border = replace(standard_puncture(2.0, 3.0), constant_poincare_ratio=2.0)
    sweep = density_sweep(seq, flat_border)
    border = [rep for rep in sweep.reports if rep.kind == "border"]
    assert sweep.n_degenerate == sum(rep.degenerate for rep in sweep.reports) == len(border) > 0
    assert all(rep.ratio == math.inf for rep in border)
    assert sweep.degenerate and sweep.skipped_radii == (16.0,)
    # the border side never skips a radius
    lat = generate_lattice("hyperbolic-disk", 12, seed=3, d=0.35)
    assert density_sweep(lat, standard_disk(2.0)).skipped_radii == ()


def test_classify_params_validation():
    with pytest.raises(ValueError):
        ClassifyParams(delta=0.7)


@pytest.mark.parametrize("value", [math.nan, 3.0, 1.0, 0.0, -0.5, math.inf],
                         ids=["nan", "3", "1", "0", "-0.5", "inf"])
@pytest.mark.parametrize("key, name", [("split_a", "split modulus"), ("mesh", "mesh")])
def test_split_modulus_and_mesh_are_checked_on_every_domain(key, name, value):
    # a bad split modulus once classified a disk lattice without complaint,
    # and a bad mesh was checked only when a border part had points
    with pytest.raises(DomainViolation, match=f"the {name} must lie in \\(0, 1\\)"):
        ClassifyParams(**{key: value})
    lat = generate_lattice("hyperbolic-disk", 10, seed=0, d=0.35)
    with pytest.raises(DomainViolation, match=f"the {name} must lie in \\(0, 1\\)"):
        density_sweep(lat, standard_disk(2.0), **{key: value})
    star_only = generate_lattice("puncture-exponential", 10, s=1.0, n=1)
    with pytest.raises(DomainViolation, match=f"the {name} must lie in \\(0, 1\\)"):
        density_sweep(star_only, standard_puncture(2.0, 3.0), **{key: value})


def test_sweep_removal_stability_shrinks_with_r():
    # discarding one point changes the quotient at radius r by at most
    # its own numerator contribution over the denominator, which decays
    w = standard_disk(2.0)
    lat = generate_lattice("hyperbolic-disk", 30, seed=4, d=0.5)
    pts = lat.array()
    z = complex(pts[0])
    diffs = []
    for r in (0.9, 0.99):
        full = border_density_ratio(pts, w, z, r).ratio
        drop = border_density_ratio(pts[1:], w, z, r).ratio
        diffs.append(abs(full - drop))
    assert diffs[1] < diffs[0] + 1e-12


def test_border_density_ratio_checks_radius():
    lat = generate_lattice("hyperbolic-disk", 12, seed=2, d=0.5)
    for r in (0.3, 1.0):
        with pytest.raises(DomainViolation):
            border_density_ratio(lat, standard_disk(2.0), 0.1, r)


def test_density_sweep_explicit_grid_errors():
    lat = generate_lattice("hyperbolic-disk", 5, seed=1, d=0.5)
    w = standard_disk(2.0)
    with pytest.raises(DomainViolation):
        density_sweep(lat, w, r_grid=())
    with pytest.raises(DomainViolation):  # r >= 1 is not a border radius
        density_sweep(lat, w, r_grid=(0.9, 1.5))
    # a star part needs a radius above 1
    star_only = generate_lattice("puncture-exponential", 10, s=1.0, n=1)
    with pytest.raises(DomainViolation, match="puncture"):
        density_sweep(star_only, standard_puncture(2.0, 3.0), r_grid=(0.9,))


def test_density_sweep_rejects_empty_center_list():
    lat = generate_lattice("hyperbolic-disk", 20, seed=1, d=0.5)
    with pytest.raises(DomainViolation, match="center"):
        density_sweep(lat, standard_disk(2.0), centers=[])


@pytest.mark.parametrize("centers, shape", [([[0.1, 0.2]], "(1, 2)"), (0.1, "()"), ([[]], "(1, 0)")])
def test_density_sweep_rejects_centers_that_are_not_a_list_of_points(centers, shape):
    # these raised numpy's broadcast ValueError, a TypeError from len() and
    # a ValueError from max() of an empty sequence
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    with pytest.raises(DomainViolation, match=re.escape(f"1-D list of disk points, got an array of shape {shape}")):
        density_sweep(lat, standard_disk(2.0), centers=centers)


def test_classify_r_grid_reaches_puncture_side():
    seq = generate_lattice("puncture-exponential", 30, s=1.0, n=1)
    v = classify(seq, standard_puncture(2.0, 3.0), ClassifyParams(r_grid=(4.0,)))
    assert v.sweep.reports
    assert {rep.radius for rep in v.sweep.reports} == {4.0}
    assert {rep.kind for rep in v.sweep.reports} == {"puncture"}


# phi = 2 log 1/(1-|z|^2) + |z|^2, so Delta phi / omega_P = 4 + 2 (1-|z|^2)^2
CURVED = custom_weight(
    lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2,
    lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2,
    Domain.DISK,
)


def test_one_pass_sweep_matches_per_radius_quotients():
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    sweep = density_sweep(lat, CURVED)
    n = sweep.n_centers
    assert len(sweep.reports) == len(BORDER_R_GRID) * n
    ctrs = [rep.center for rep in sweep.reports[:n]]
    for i, rep in enumerate(sweep.reports):
        r, c = BORDER_R_GRID[i // n], ctrs[i % n]
        assert (rep.radius, rep.center) == (r, c)
        # the numerator does not depend on the weight, and is exact
        assert rep.numerator == border_density_ratio(lat, standard_disk(2.0), c, r).numerator
        g = lambda zeta: CURVED.lap_poincare_ratio(mobius_involution(c, zeta)) - 2.0
        assert rep.denominator == pytest.approx(disk_log_integral(r, g), rel=1e-8)
    # closed-form and circle-mean denominators are taken per center and
    # radius, so each report is the single call's bit for bit.  Not so a
    # weight whose phi fails custom_weight's check: its sweep integrates
    # every radius in one 2-D pass, the single call one radius, and the
    # two differ by design in their last digits (by up to 1.4e-12 relative
    # under phi = |z|^2, ratio 4 + |z|^2).
    s3 = standard_disk(3.0)
    for w in (standard_disk(2.0), custom_weight(s3.phi, s3.lap_poincare_ratio, Domain.DISK), CURVED):
        for rep in density_sweep(lat, w).reports:
            assert rep == border_density_ratio(lat, w, rep.center, rep.radius)


def test_one_pass_sweep_keeps_an_explicit_grid_order():
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    ctrs = [0.0, 0.3 - 0.2j, -0.6j]
    reps = density_sweep(lat, CURVED, r_grid=(0.99, 0.9, 0.9), centers=ctrs).reports
    assert [(rep.radius, rep.center) for rep in reps] == [(r, c) for r in (0.99, 0.9, 0.9) for c in ctrs]
    assert reps[3:6] == reps[6:]


def test_one_pass_sweep_reproduces_constant_curvature():
    # a wrapped standard weight goes through quadrature: (6 - 2) a_r
    s3 = standard_disk(3.0)
    wrapped = custom_weight(s3.phi, s3.lap_poincare_ratio, Domain.DISK)
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    for rep in density_sweep(lat, wrapped).reports:
        assert rep.denominator == pytest.approx(4.0 * a_r_hyperbolic(rep.radius), rel=1e-12)


def test_curved_denominator_near_the_rim_matches_closed_form():
    # 1 - |phi_c(zeta)|^2 = (1 - |c|^2)(1 - rho^2)/|1 - conj(c) zeta|^2, and the
    # mean of |1 - conj(c) zeta|^-4 over |zeta| = rho is (1 + x)/(1 - x)^3
    # with x = |c|^2 rho^2, so the denominator is a 1-d integral
    c, r = 0.97 * np.exp(0.3j), 0.99
    a = abs(c) ** 2

    def radial(rho):
        x = a * rho * rho
        lap = 2.0 / (1.0 - rho * rho) ** 2 + 2.0 * (1.0 - a) ** 2 * (1.0 + x) / (1.0 - x) ** 3
        return 2.0 * math.pi * rho * math.log(r * r / (rho * rho)) * lap

    exact, _ = integrate.quad(radial, 0.0, r, epsabs=0.0, epsrel=1e-13, limit=200)
    sweep = density_sweep(SequenceSet((0.3,), Domain.DISK), CURVED, r_grid=(r,), centers=[c])
    assert sweep.reports[0].denominator == pytest.approx(exact, rel=1e-12)


def _counting_curved():
    """CURVED with a phi that records the shape of every array of circle points
    it is handed (2-D), and a curvature density that records every call, both
    after construction."""
    shapes, ratio_calls = [], []

    def phi(w):
        if np.ndim(w) == 2:
            shapes.append(w.shape)
        return CURVED.phi(w)

    def lap(w):
        ratio_calls.append(np.shape(w))
        return CURVED.lap_poincare_ratio(w)

    weight = custom_weight(phi, lap, Domain.DISK)
    shapes.clear()
    ratio_calls.clear()
    return weight, shapes, ratio_calls


@pytest.mark.parametrize("c, grid, max_samples", [
    (0.97 * np.exp(0.3j), (0.99,), 256),            # fault F2; uniform angles take 1 024
    (0.995 * np.exp(2.0j), BORDER_R_GRID, 1152),    # uniform angles take 512 + 1 024 + 2 048 + 4 096
])
def test_rim_center_denominators_settle_on_balanced_angles(c, grid, max_samples):
    # one circle mean of phi per radius: 256 angles at F2, and 128 + 256 +
    # 256 + 512 at 0.995 e^{2i}.  Uniform angles, judged the same way, need
    # the counts above.
    weight, shapes, _ = _counting_curved()
    density_sweep(SequenceSet((0.3,), Domain.DISK), weight, r_grid=grid, centers=[c])
    assert sum(rows * n for rows, n in shapes) <= max_samples


def _bench_seed(seed, *parts):
    """The benchmark's lattice seed for a run seed and a path (its subseed)."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def _explicit_border_denominators(weight, centers, radii):
    """Border denominators written out: (c - 2) a_r for a declared constant c.
    For a phi that passed custom_weight's check, 2 pi times one circle mean of phi
    per radius, on balanced angles, settled to 1e-11 of the mean less a_r/pi or to
    64 ulps of |phi(z)| + a_r/pi, less 2 a_r.  Else one polar_integral per 16
    centers with one nested kernel column and one break per radius, and a break
    at |z| on the punctured disk."""
    if weight.constant_poincare_ratio is not None:
        return np.array([[(weight.constant_poincare_ratio - 2.0) * a_r_hyperbolic(r) for r in radii]] * len(centers))
    if weight.phi_matches_curvature:
        rule = QuadratureRule(rel_tol=DEFAULT_RULE.rel_tol * 1e-3)
        size = np.abs(weight.phi(centers))
        cols = []
        for r in radii:
            a_r = a_r_hyperbolic(r)
            floor = 64.0 * np.finfo(float).eps * (size + a_r / math.pi)
            means = _circle_means(weight.phi, centers, r, rule, "center", floor, _mobius, a_r / math.pi)
            cols.append(2.0 * math.pi * means - 2.0 * a_r)
        return np.transpose(cols)
    g = lambda w: weight.lap_poincare_ratio(w) - 2.0
    punctured = weight.domain is Domain.PUNCTURED_DISK
    rows = []
    for i in range(0, len(centers), 16):
        chunk = centers[i:i + 16]
        rows.extend(polar_integral(g, 0.0, 0.0, max(radii), _hyper_weight, _nested_kernel(radii),
                                   breaks=[radii + ((abs(z),) if punctured else ()) for z in chunk], pullback=chunk))
    return np.array(rows)


_S3 = standard_disk(3.0)
_WRAPPED = custom_weight(_S3.phi, _S3.lap_poincare_ratio, Domain.DISK)
# phi = 0 with the curvature density of CURVED: the benchmark's self-test weight
_FLAT = custom_weight(lambda w: 0.0 * np.abs(w), CURVED.lap_poincare_ratio, Domain.DISK)
# the curved-sweep benchmark's 24-point lattice and the lattice-gram one's
# 100-point lattice, at seeds 201 and 301, round 0
_SWEEP_LATTICE = lambda: generate_lattice("hyperbolic-disk", 24, seed=_bench_seed(201, 20, 0, 0), d=0.35, margin=0.1)
_GRAM_LATTICE = lambda: generate_lattice("hyperbolic-disk", 100, seed=_bench_seed(301, 10, 0, 0), d=0.35, margin=0.02)


def _border_table(sweep):
    """(centers, radii, denominators) of a sweep's border reports, one row of denominators per center."""
    n = sweep.n_centers
    border = [rep for rep in sweep.reports if rep.kind == "border"]
    radii = tuple(rep.radius for rep in border[::n])
    got = np.array([rep.denominator for rep in border]).reshape(len(radii), n).T
    return np.array([rep.center for rep in border[:n]]), radii, got


@pytest.mark.parametrize("make, weight", [
    (_SWEEP_LATTICE, CURVED),
    (_SWEEP_LATTICE, _WRAPPED),
    (_SWEEP_LATTICE, _FLAT),
    (_GRAM_LATTICE, standard_disk(2.0)),
    (_GRAM_LATTICE, _S3),
    # fault F1: 18 border centers of a punctured-disk weight, each with its own break at |z|
    (lambda: generate_lattice("puncture-exponential", 40, s=0.5, n=2), standard_puncture(2.0, 3.0)),
], ids=["curved", "wrapped", "flat", "standard-2", "standard-3", "F1"])
def test_border_denominators_are_the_explicit_ones_bit_for_bit(make, weight):
    sweep = classify(make(), weight).sweep
    centers, radii, got = _border_table(sweep)
    assert got.tobytes() == _explicit_border_denominators(weight, centers, radii).tobytes()
    assert all(rep.ratio == rep.numerator / rep.denominator for rep in sweep.reports if rep.kind == "border")


def _curved_closed_form(c, r):
    """CURVED's border denominator: its phi has circle means -2 log(1 - |c|^2) - 2 log(1 - r^2)
    + 1 - (1 - |c|^2)(1 - r^2)/(1 - |c|^2 r^2) about c, so by Green's formula it is
    2 a_r + 2 pi r^2 (1 - |c|^2)^2 / (1 - |c|^2 r^2)."""
    a = np.abs(c) ** 2
    return 2.0 * a_r_hyperbolic(r) + 2.0 * math.pi * r * r * (1.0 - a) ** 2 / (1.0 - a * r * r)


@pytest.mark.parametrize("weight, closed", [
    (CURVED, _curved_closed_form),
    (_WRAPPED, lambda c, r: np.full(np.shape(c), 4.0 * a_r_hyperbolic(r))),
], ids=["curved", "wrapped"])
def test_circle_mean_denominators_match_closed_forms_and_the_2d_integrals(weight, closed):
    centers, radii, got = _border_table(density_sweep(_SWEEP_LATTICE(), weight))
    want = np.transpose([closed(centers, r) for r in radii])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # the 2-D integrals of the ratio carry an error of their own: 1.5e-12
    # relative at center 0.2359 + 0.6590i, r = 0.99, under CURVED, where the
    # circle mean is within 3e-15 of the closed form
    two_d = np.array(weights._curvature_masses(weight, centers, radii, less=2.0))
    assert np.all(np.abs(got - two_d) <= 1e-12 * np.abs(two_d) + np.abs(two_d - want))


def test_a_phi_off_its_curvature_keeps_the_2d_denominators_and_says_so():
    # the benchmark's self-test weight fails the check, and its quotients are
    # the 2-D integrals of its ratio, as before circle means, bit for bit
    assert not _FLAT.phi_matches_curvature
    assert CURVED.phi_matches_curvature and _WRAPPED.phi_matches_curvature
    rep = border_density_ratio([0.3], _FLAT, 0.5 + 0.1j, 0.9)
    assert rep.denominator == float(_explicit_border_denominators(_FLAT, np.array([0.5 + 0.1j]), (0.9,))[0, 0])
    note = ("phi did not match lap_poincare_ratio at custom_weight's check:"
            " the border denominators are 2-D integrals of the ratio")
    assert note in density_sweep(_SWEEP_LATTICE(), _FLAT).notes
    assert note not in density_sweep(_SWEEP_LATTICE(), CURVED).notes
    assert density_sweep(_SWEEP_LATTICE(), standard_disk(2.0)).notes == density_sweep(_SWEEP_LATTICE(), CURVED).notes


def test_a_curvature_just_above_2_settles_on_the_rounding_floor():
    # under standard_disk(1 + 1e-9) a denominator is 1e-9 of the circle-mean
    # mass it is left of, so it loses nine digits, and its circles settle on
    # the rounding of phi's samples: 2 068 points for these 16 circles.
    # Judged on the denominator alone, the rim center's circle at r = 0.99
    # ran to 2^20 angles and raised QuadratureNotConverged.
    near = standard_disk(1.0 + 1e-9)
    points = []
    weight = custom_weight(lambda w: points.append(np.size(w)) or near.phi(w), near.lap_poincare_ratio, Domain.DISK)
    assert weight.phi_matches_curvature
    points.clear()
    sweep = density_sweep(SequenceSet((0.3,), Domain.DISK), weight, centers=[0.0, 0.5, 0.9j, 0.97 * np.exp(0.3j)])
    assert sum(points) <= 1.25 * 2068
    for rep in sweep.reports:
        assert rep.denominator == pytest.approx((near.constant_poincare_ratio - 2.0) * a_r_hyperbolic(rep.radius), rel=1e-3)


def test_denominators_that_settle_at_the_first_level_are_its_trapezoid_sums():
    # the first level of a circle mean: 64 balanced angles (uniform about 0),
    # the mean of (phi o phi_z - phi(z)) times the Jacobian, scaled by
    # (1 - a^64)/(1 + a^64), settled when the 32 even-indexed angles agree
    # with it to 1e-11 of the mean less a_r/pi
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    ctrs = np.append(0.0, center_net(lat.array(), 0.3))
    reps = density_sweep(lat, _WRAPPED, centers=ctrs).reports
    ring = np.exp(1j * (2.0 * math.pi / 64) * np.arange(64))
    settled = 0
    for k, z in enumerate(map(complex, ctrs)):
        # Python's complex abs and division, as the library takes them
        m, turn = np.array([[abs(z)]]), np.array([[z / abs(z) if z else 1.0]])
        for j, r in enumerate(BORDER_R_GRID):
            w, jac, a = _balanced_rings(m, turn, np.array([[r]]), ring)
            if z == 0:
                assert np.array_equal(w[0], -r * ring)  # uniform angles
            vals = (_S3.phi(w) - _S3.phi(np.array([z]))[:, None]) * jac
            even = vals[:, ::2].sum(axis=1)
            est = (even + vals[:, 1::2].sum(axis=1)) / 64 * ((1.0 - a ** 64) / (1.0 + a ** 64))
            ref = 2.0 * even / 64 * ((1.0 - a ** 32) / (1.0 + a ** 32))
            shift = a_r_hyperbolic(r) / math.pi
            if abs(est - ref)[0] <= 1e-11 * max(abs(est - shift)[0], abs(ref - shift)[0], 1e-12):
                settled += 1
                rep = reps[j * len(ctrs) + k]
                assert rep.denominator == float(2.0 * math.pi * est[0] - 2.0 * a_r_hyperbolic(r))
    assert settled == 99  # of the 65 x 4 circles


def test_curved_sweep_node_budget(monkeypatch):
    # the curved-weight sweep of a pinned lattice evaluates phi on 26 176
    # circle points and never calls polar_integral or the curvature density.
    # The 2-D integrals of the ratio sampled 1 556 740 nodes in four level
    # loops; uniform angles, judged the same way, take 63 360 points.
    weight, shapes, ratio_calls = _counting_curved()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return polar_integral(*args, **kwargs)

    monkeypatch.setattr(weights, "polar_integral", counted)
    sweep = density_sweep(generate_lattice("hyperbolic-disk", 24, seed=0, d=0.35, margin=0.1), weight)
    assert sum(rows * n_theta for rows, n_theta in shapes) <= 1.25 * 26176
    assert sweep.n_centers == 64 and calls == [] and ratio_calls == []


def test_sequence_layer_mobius_call_budget(monkeypatch):
    # the blocked pairwise kernels make 22, 9 and 52 _mobius calls here,
    # where one call per point or per center made 1 072, 662 and 2 999: a
    # per-point loop that comes back fails without any timing.  The
    # argument windows evaluate 26 057, 26 243 and 118 521 pair distances,
    # where screening every kept point evaluated 226 613, 74 518 (48 822
    # of them in the separation) and 2 374 765; and the lattice draws
    # 1 985 candidates in doubling chunks, where one chunk drew 4 097.
    # The separations take their pairs through sequences._mobius on
    # either domain: 547 on the disk (in classify's 26 243 too), and 540
    # for the lattice without the origin on the punctured disk, where the
    # dense scan takes 48 589.
    calls, pairs, drawn = [], [], []
    mobius, candidates = sequences._mobius, sequences._disk_candidates

    def counted(*args):
        calls.append(1)
        pairs.append(np.broadcast(*args).size)
        return mobius(*args)

    def counted_candidates(*args):
        for chunk in candidates(*args):
            drawn.append(chunk.size)
            yield chunk

    monkeypatch.setattr(sequences, "_mobius", counted)
    monkeypatch.setattr(sequences, "_disk_candidates", counted_candidates)
    lat = generate_lattice("hyperbolic-disk", 300, seed=11, d=0.35, margin=0.02)
    assert len(calls) <= 1.25 * 22 and sum(pairs) <= 1.25 * 26057
    # the greedy reaches candidate 1 073
    assert sum(drawn) <= 2 * 1037
    calls.clear()
    pairs.clear()
    classify(lat, standard_disk(2.0))
    assert len(calls) <= 1.25 * 9 and sum(pairs) <= 1.25 * 26243
    calls.clear()
    pairs.clear()
    net = center_net(lat.array(), 0.35, max_centers=10 ** 6)
    assert len(net) == 1453 and len(calls) <= 1.25 * 52 and sum(pairs) <= 1.25 * 118521
    for points, domain, budget in ((lat.points, Domain.DISK, 547), (lat.points[1:], Domain.PUNCTURED_DISK, 540)):
        pairs.clear()
        separation_border(SequenceSet(points, domain))
        assert sum(pairs) <= 1.25 * budget


def test_a_second_weight_pays_only_its_denominators(monkeypatch):
    # the sequence half of a classify (separation, center net, numerators)
    # is kept on the SequenceSet: a classify under another weight with the
    # same mesh, split and grid evaluates no pair distance and builds no
    # net, and one with another mesh builds them again
    mobius, net = sequences._mobius, sequences.center_net
    lat = generate_lattice("hyperbolic-disk", 300, seed=11, d=0.35, margin=0.02)
    calls, nets = [], []
    monkeypatch.setattr(sequences, "_mobius", lambda *args: calls.append(1) or mobius(*args))
    monkeypatch.setattr(sequences, "center_net", lambda *args: nets.append(1) or net(*args))
    first = classify(lat, standard_disk(2.0))
    assert calls and nets == [1]
    calls.clear()
    nets.clear()
    second = classify(lat, standard_disk(3.0))
    assert calls == [] and nets == []
    assert second == classify(SequenceSet(lat.points, lat.domain), standard_disk(3.0)) != first
    calls.clear()
    nets.clear()
    classify(lat, standard_disk(3.0), ClassifyParams(mesh=0.35))
    assert calls and nets == [1]


def test_a_sequence_set_pickles_and_copies_without_its_sweep_half():
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    sweep = density_sweep(lat, standard_disk(2.0))
    assert lat._sweep_half is not None
    for other in (pickle.loads(pickle.dumps(lat)), copy.copy(lat), copy.deepcopy(lat)):
        assert other == lat and other._sweep_half is None
        assert density_sweep(other, standard_disk(2.0)) == sweep


def test_puncture_side_lifts_make_no_2d_integral(monkeypatch):
    # the puncture denominators are circle means, with no polar_integral
    # call: F1's 18 border centers take one call, and the lifts of either
    # lattice none.  The 2-D curvature integrals made 3 and 4.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return polar_integral(*args, **kwargs)

    monkeypatch.setattr(weights, "polar_integral", counted)
    weight = standard_puncture(2.0, 3.0)
    classify(generate_lattice("puncture-exponential", 30, s=1.0, n=1), weight)
    assert len(calls) == 0
    v = classify(generate_lattice("puncture-exponential", 40, s=0.5, n=2), weight)
    assert v.sweep.n_centers == 18 and len(calls) == 1


def test_puncture_sweeps_evaluate_psi_on_few_points(monkeypatch):
    # the three 30-point classifies of the benchmark's punctured rounds
    # evaluate phi at 7 258 points: their circles, their lifts, and each
    # lift's rounding floor.  The 2-D curvature integrals sampled 846 336
    # nodes.  The curvature density is never sampled, and each call lifts
    # the points once.
    weight = standard_puncture(2.0, 3.0)
    nodes, ratios, lifted = [], [], []
    phi, lift = weight.phi, sequences._lifted_points

    def counted_phi(z):
        nodes.append(np.size(z))
        return phi(z)

    def no_translates(*args):
        raise AssertionError("lifted_translates re-checks and re-lifts the points")

    monkeypatch.setattr(sequences, "_lifted_points", lambda points: lifted.append(1) or lift(points))
    monkeypatch.setattr(weights, "lifted_translates", no_translates)
    counted = replace(weight, phi=counted_phi, lap_cyl_ratio=lambda z: ratios.append(1) or weight.lap_cyl_ratio(z))
    for n, calls in ((1, 3), (2, 2), (3, 2)):
        # one call per set of admissible radii
        lifted.clear()
        classify(generate_lattice("puncture-exponential", 30, s=1.0, n=n), counted)
        assert len(lifted) == calls
    assert sum(nodes) <= 1.25 * 7258 and ratios == []


def _puncture_border_denominator_scipy(c, r, s=2.0, t=3.0):
    """The border denominator of standard_puncture(s, t) at (c, r) by nested
    scipy quad, with breaks at the pulled-back puncture, rho = |c| and
    theta = arg c.  Delta phi / omega_P = 2t + 2s u L^2/(1 - u)^2 with
    u = |w|^2 and L = log(1/u)."""
    th0 = math.atan2(c.imag, c.real) % (2.0 * math.pi)

    def f(theta, rho):
        zeta = rho * complex(math.cos(theta), math.sin(theta))
        u = abs((c - zeta) / (1.0 - c.conjugate() * zeta)) ** 2
        lap = 2.0 * t + (2.0 * s * u * math.log(u) ** 2 / (1.0 - u) ** 2 if u > 0.0 else 0.0)
        return (lap - 2.0) * math.log(r * r / (rho * rho)) * rho / (1.0 - rho * rho) ** 2

    def ring(rho):
        return integrate.quad(f, 0.0, 2.0 * math.pi, args=(rho,), points=[th0], epsabs=0.0, epsrel=1e-12, limit=200)[0]

    return integrate.quad(ring, 0.0, r, points=[abs(c)], epsabs=0.0, epsrel=1e-12, limit=200)[0]


def test_punctured_border_quotients_converge():
    # the border part of this lattice reaches |z| = 0.61, so every border
    # disk holds the pulled-back puncture, where the weight is not smooth
    v = classify(generate_lattice("puncture-exponential", 40, s=0.5, n=2), standard_puncture(2.0, 3.0))
    assert v.verdict == "Indeterminate"
    border = [rep for rep in v.sweep.reports if rep.kind == "border"]
    for rep in (border[0], border[-1]):
        assert rep.denominator == pytest.approx(_puncture_border_denominator_scipy(rep.center, rep.radius), rel=1e-8)


def test_one_pass_puncture_quotients_match_single_radius_quotients():
    # lifts up to Im q = 20, so each lift is admissible at one to all three radii
    seq = generate_lattice("puncture-exponential", 40, s=1.0, n=2)
    w = standard_puncture(2.0, 3.0)
    star, _ = decompose(seq, 0.5)
    reps = density_sweep(seq, w).reports
    assert {rep.kind for rep in reps} == {"puncture"}
    # (r, lift)-major: every radius of the grid in order, each over the
    # lifts admissible at it in lift order
    assert [rep.radius for rep in reps] == sorted(rep.radius for rep in reps)
    assert {rep.radius for rep in reps} == set(PUNCTURE_R_GRID)
    for r in PUNCTURE_R_GRID:
        lifts = [rep.center for rep in reps if rep.radius == r]
        want = [complex(q) for q in lift_value(star.array()) if q.imag > r + 1.0]
        assert lifts == want
    for rep in reps:
        assert rep == puncture_density_ratio(star, w, rep.center, rep.radius)


def test_unsorted_repeated_puncture_grid_keeps_grid_order():
    # lifts at Im q = 1 .. 24: some admissible at 4 only, some at 4 and 8,
    # some at every radius, and the shallowest at none
    seq = generate_lattice("puncture-exponential", 24, s=1.0, n=1)
    w = standard_puncture(2.0, 3.0)
    grid = (16.0, 4.0, 8.0, 8.0)
    sweep = density_sweep(seq, w, r_grid=grid)
    assert [block.radius for block in sweep._blocks] == list(grid)
    lifts = lift_value(seq.array())
    for block, r in zip(sweep._blocks, grid):
        assert block.centers.tolist() == [complex(q) for q in lifts if q.imag > r + 1.0]
    assert [rep.radius for rep in sweep.reports] == [block.radius for block in sweep._blocks for _ in block.centers]
    for rep in sweep.reports:
        assert rep == puncture_density_ratio(seq, w, rep.center, rep.radius)


def test_empty_disk_sequence_is_swept_at_the_origin():
    # the net of no points is the origin
    sweep = density_sweep(SequenceSet((), Domain.DISK), standard_disk(2.0))
    assert (sweep.n_centers, sweep.coverage_radius) == (1, None)
    assert [block.radius for block in sweep._blocks] == list(BORDER_R_GRID)
    assert all(block.centers.tolist() == [0j] for block in sweep._blocks)


def test_sweeps_call_center_net_through_the_module(monkeypatch):
    # a tracer that wraps sequences.center_net sees each border part's net,
    # one per sequence and key: the sweeps of a SequenceSet under one mesh,
    # split and grid share the net, whatever the weight
    calls = []
    net = sequences.center_net
    monkeypatch.setattr(sequences, "center_net", lambda *args: calls.append(args) or net(*args))
    lat = generate_lattice("hyperbolic-disk", 24, seed=1, d=0.35, margin=0.1)
    density_sweep(lat, standard_disk(2.0))
    classify(lat, standard_disk(2.0))
    density_sweep(lat, standard_disk(3.0))
    assert len(calls) == 1
    # a new SequenceSet, equal or not, and a new mesh build their own nets
    density_sweep(SequenceSet(lat.points, lat.domain), standard_disk(2.0))
    classify(lat, standard_disk(2.0), ClassifyParams(mesh=0.35))
    assert [args[1] for args in calls] == [0.3, 0.3, 0.35]
    # the punctured disk: one call for the border part, none for the puncture part
    calls.clear()
    seq = generate_lattice("puncture-exponential", 40, s=0.5, n=2)
    density_sweep(seq, standard_puncture(2.0, 3.0))
    classify(seq, standard_puncture(2.0, 3.0))
    assert len(calls) == 1
    classify(SequenceSet(seq.points, seq.domain), standard_puncture(2.0, 3.0))
    assert len(calls) == 2
    assert all(np.array_equal(args[0], decompose(seq, 0.5)[1].array()) for args in calls)
    # no border part, or explicit centers: no net
    calls.clear()
    density_sweep(generate_lattice("puncture-exponential", 10, s=1.0, n=1), standard_puncture(2.0, 3.0))
    density_sweep(lat, standard_disk(2.0), centers=[0.0, 0.5j])
    assert calls == []


def _coverage(points, centers):
    return max(min(pseudo_dist(p, c) for c in centers) for p in points)


def test_sweep_reports_center_cap_and_coverage():
    # the net takes the points first, so it needs more points than its cap
    # to leave any at a positive distance
    lat = generate_lattice("hyperbolic-disk", 80, seed=1, d=0.35, margin=0.02)
    sweep = density_sweep(lat, standard_disk(2.0))
    net = center_net(lat.array(), 0.3)
    assert sweep.n_centers == len(net) == CENTER_CAP
    assert sweep.coverage_radius == pytest.approx(_coverage(lat.points, net), rel=1e-12)
    assert sweep.coverage_radius > 0.3
    assert sweep.notes == (
        f"center net reached its cap of 64 centers; coverage radius {sweep.coverage_radius:.3f}",
    )
    small = generate_lattice("hyperbolic-disk", 3, seed=1, d=0.35, margin=0.1)
    sweep = density_sweep(small, standard_disk(2.0))
    assert sweep.n_centers < CENTER_CAP and sweep.notes == ()
    assert sweep.coverage_radius == 0.0  # every point is a center
    # explicit centers get the coverage radius and never the note
    ctrs = [0.0, 0.5j]
    sweep = density_sweep(lat, standard_disk(2.0), centers=ctrs)
    assert (sweep.n_centers, sweep.notes) == (2, ())
    assert sweep.coverage_radius == pytest.approx(_coverage(lat.points, ctrs), rel=1e-12)
    # a punctured-disk sequence with no border part has no coverage radius,
    # and a border estimate of 0
    star = generate_lattice("puncture-exponential", 10, s=1.0, n=1)
    sweep = density_sweep(star, standard_puncture(2.0, 3.0))
    assert (sweep.n_centers, sweep.coverage_radius, sweep.border_estimate) == (0, None, 0.0)
