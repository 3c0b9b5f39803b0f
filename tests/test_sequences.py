import math
from dataclasses import replace

import numpy as np
import pytest

from bergseq import (
    BORDER_R_GRID,
    ClassifyParams,
    Domain,
    SequenceSet,
    a_r_hyperbolic,
    border_density_ratio,
    center_net,
    classify,
    cyl_dist,
    decompose,
    density_sweep,
    generate_lattice,
    hyp_dist,
    pseudo_dist,
    puncture_density_ratio,
    separation_border,
    separation_puncture,
    standard_disk,
    standard_puncture,
)
from bergseq.errors import BergseqError, DomainViolation, WindowViolation

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


def test_center_net_is_separated_and_covers():
    pts = 0.8 * np.sqrt(rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
    net = center_net(pts, 0.3)
    for i in range(len(net)):
        for j in range(i + 1, len(net)):
            assert pseudo_dist(net[i], net[j]) >= 0.15 - 1e-12
    # every sequence point is within one mesh of some center
    for p in pts:
        assert min(pseudo_dist(p, c) for c in net) <= 0.3 + 1e-12


def test_generate_lattice_examples():
    seq = generate_lattice("puncture-exponential", 3, s=1.0, n=1)
    assert np.allclose(seq.array(), np.exp(-np.arange(1.0, 4.0)))
    lat = generate_lattice("hyperbolic-disk", 30, seed=5, d=0.4)
    assert separation_border(lat) >= 0.2 - 1e-12
    with pytest.raises(ValueError):
        generate_lattice("hyperbolic-disk", 5, d=-1.0)
    with pytest.raises(ValueError):
        generate_lattice("puncture-exponential", 5, s=1.0, n=0)
    with pytest.raises(ValueError):
        generate_lattice("moebius-strip", 5)
    with pytest.raises(BergseqError, match="asked for 30 points, placed 12"):
        generate_lattice("hyperbolic-disk", 30, seed=3, d=0.5, margin=0.3)


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


def test_classify_deterministic():
    lat = generate_lattice("hyperbolic-disk", 25, seed=8, d=0.5)
    a = classify(lat, standard_disk(2.0))
    b = classify(lat, standard_disk(2.0))
    assert a == b


def test_classify_params_validation():
    with pytest.raises(ValueError):
        ClassifyParams(delta=0.7)


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


def test_classify_r_grid_reaches_puncture_side():
    seq = generate_lattice("puncture-exponential", 30, s=1.0, n=1)
    v = classify(seq, standard_puncture(2.0, 3.0), ClassifyParams(r_grid=(4.0,)))
    assert v.sweep.reports
    assert {rep.radius for rep in v.sweep.reports} == {4.0}
    assert {rep.kind for rep in v.sweep.reports} == {"puncture"}
