"""Every public function that takes points or centers checks them before any work.

Points off the domain (|z| = 1, |z| = 1.5, NaN, inf, and z = 0 on the
punctured disk) raise the DomainViolation of the one domain check before
a weight or kernel callable is called; empty point arrays give empty
results.  A lift or an integration center that is not finite raises
DomainViolation too, where it would otherwise read as 0.
"""

import json
import math

import numpy as np
import pytest

from bergseq import (
    BlaschkeSpec,
    Domain,
    KernelSpec,
    SequenceSet,
    area_A,
    bergman_inequality_margin,
    border_density_form,
    border_density_ratio,
    border_potential,
    center_net,
    circle_mean,
    custom_weight,
    cyl_dist,
    density_sweep,
    disk_log_integral,
    extended_covered_mean,
    gram_assemble,
    hyp_dist,
    injectivity_radius,
    kernel_diag_check,
    lifted_translates,
    log_mean_disk,
    mean_comparison_margin,
    min_norm_interpolant,
    mobius_involution,
    pdisk_radial_dist,
    poincare_coeff,
    poisson_jensen_residual,
    polar_integral,
    pseudo_dist,
    puncture_density_form,
    puncture_density_ratio,
    puncture_potential,
    standard_disk,
    standard_kernel,
    standard_puncture,
    truncated_log_mean,
)
from bergseq import kernels
from bergseq.cli import parse_sequence_file
from bergseq.errors import DomainViolation
from bergseq.quadrature import _euclid_weight, _hyper_weight

OFF_DISK = [1.0 + 0j, 1.5j, complex(math.nan, 0.0), complex(math.inf, 0.0)]
OFF_PUNCTURED = OFF_DISK + [0j]

_KERNEL = standard_kernel(2.0)


class Spy:
    """A disk and a punctured-disk weight, and a kernel on each, that record every call."""

    def __init__(self, tmp_path):
        self.calls = []
        self.tmp_path = tmp_path
        sp = standard_puncture(2.0, 3.0)
        self.disk = custom_weight(self.counted(lambda w: np.abs(w) ** 2),
                                  self.counted(lambda w: 4.0 + np.abs(w) ** 2), Domain.DISK)
        self.punct = custom_weight(self.counted(sp.phi), self.counted(sp.lap_poincare_ratio), Domain.PUNCTURED_DISK)
        self.kernel = KernelSpec(self.counted(_KERNEL.evaluate), self.disk)
        self.pkernel = KernelSpec(self.counted(_KERNEL.evaluate), self.punct)
        self.calls.clear()

    def counted(self, f):
        def g(*args):
            self.calls.append(len(args))
            return f(*args)
        return g

    def sequence_file(self, z, domain):
        path = self.tmp_path / "seq.json"
        path.write_text(json.dumps({"domain": domain.value, "points": [[0.1, 0.0], [z.real, z.imag]]}))
        return path


DISK_CALLS = {
    "mobius_involution/z": lambda z, s: mobius_involution(z, 0.3),
    "mobius_involution/zeta": lambda z, s: mobius_involution(0.3, [0.1, z]),
    "pseudo_dist": lambda z, s: pseudo_dist(0.2, z),
    "hyp_dist": lambda z, s: hyp_dist(z, 0.2),
    "poincare_coeff": lambda z, s: poincare_coeff([0.1, z], Domain.DISK),
    "area_A": lambda z, s: area_A(z, Domain.DISK),
    "SequenceSet": lambda z, s: SequenceSet((0.1, z), Domain.DISK),
    "parse_sequence_file": lambda z, s: parse_sequence_file(s.sequence_file(z, Domain.DISK)),
    "BlaschkeSpec": lambda z, s: BlaschkeSpec((0.2, z)),
    "border_potential/points": lambda z, s: border_potential([0.6, z], 0.9, 0.1),
    "border_potential/z": lambda z, s: border_potential([0.6], 0.9, z),
    "border_density_form/points": lambda z, s: border_density_form([0.6, z], 0.9, 0.1),
    "border_density_form/z": lambda z, s: border_density_form([0.6], 0.9, z),
    "border_density_ratio/points": lambda z, s: border_density_ratio([0.6, z], s.disk, 0.1, 0.9),
    "border_density_ratio/z": lambda z, s: border_density_ratio([0.6], s.disk, z, 0.9),
    "center_net": lambda z, s: center_net([0.1, z], 0.3),
    "density_sweep/centers": lambda z, s: density_sweep(SequenceSet((0.3,), Domain.DISK), s.disk,
                                                        centers=[0.2, z]),
    "log_mean_disk": lambda z, s: log_mean_disk(s.disk, 0.8, [0.1, z]),
    "truncated_log_mean": lambda z, s: truncated_log_mean(s.disk, 0.8, 0.2, z),
    "circle_mean": lambda z, s: circle_mean(z, 0.5, s.disk.phi),
    "disk_log_integral": lambda z, s: disk_log_integral(0.8, s.disk.phi, pullback=z),
    "polar_integral": lambda z, s: polar_integral(s.disk.phi, 0.0, 0.0, 0.8, _hyper_weight, None,
                                                  pullback=[0.1, z]),
    "gram_assemble": lambda z, s: gram_assemble(s.kernel, [0.1, z]),
    "kernel_diag_check": lambda z, s: kernel_diag_check(s.kernel, [0.1, z]),
    "min_norm_interpolant": lambda z, s: min_norm_interpolant(s.kernel, [0.1, z], [1.0, 1.0]),
    "poisson_jensen_residual": lambda z, s: poisson_jensen_residual(BlaschkeSpec((0.3,)), s.disk, z, 0.5),
    "bergman_inequality_margin": lambda z, s: bergman_inequality_margin([1.0, 0.5], s.disk, z, 0.5),
    "mean_comparison_margin": lambda z, s: mean_comparison_margin(s.disk, 0.8, [0.1, z]),
}

PUNCTURED_CALLS = {
    "poincare_coeff": lambda z, s: poincare_coeff([0.1, z], Domain.PUNCTURED_DISK),
    "area_A": lambda z, s: area_A([0.1, z], Domain.PUNCTURED_DISK),
    "injectivity_radius": lambda z, s: injectivity_radius(z),
    "pdisk_radial_dist/z": lambda z, s: pdisk_radial_dist(z, 0.2),
    "pdisk_radial_dist/w": lambda z, s: pdisk_radial_dist(0.2, z),
    "cyl_dist/z": lambda z, s: cyl_dist(z, 0.2),
    "cyl_dist/w": lambda z, s: cyl_dist(0.2, [0.1, z]),
    "SequenceSet": lambda z, s: SequenceSet((0.1, z), Domain.PUNCTURED_DISK),
    "parse_sequence_file": lambda z, s: parse_sequence_file(s.sequence_file(z, Domain.PUNCTURED_DISK)),
    "puncture_potential/points": lambda z, s: puncture_potential([1e-3, z], 2.0, 1e-4),
    "puncture_potential/z": lambda z, s: puncture_potential([1e-3], 2.0, z),
    "puncture_density_form/points": lambda z, s: puncture_density_form([1e-3, z], 4.0, z=1e-4),
    "puncture_density_form/z": lambda z, s: puncture_density_form([1e-3], 4.0, z=z),
    "lifted_translates": lambda z, s: lifted_translates([1e-3, z], 5j, 4.0),
    "puncture_density_ratio": lambda z, s: puncture_density_ratio([1e-3, z], s.punct, 8j, 4.0),
    "gram_assemble": lambda z, s: gram_assemble(s.pkernel, [0.1, z]),
    "kernel_diag_check": lambda z, s: kernel_diag_check(s.pkernel, [0.1, z]),
}


@pytest.mark.parametrize("z", OFF_DISK, ids=["1", "1.5j", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(DISK_CALLS))
def test_disk_entry_point_rejects_a_point_off_the_disk(name, z, tmp_path):
    spy = Spy(tmp_path)
    with pytest.raises(DomainViolation, match="lies outside"):
        DISK_CALLS[name](z, spy)
    assert spy.calls == []


@pytest.mark.parametrize("z", OFF_PUNCTURED, ids=["1", "1.5j", "nan", "inf", "0"])
@pytest.mark.parametrize("name", sorted(PUNCTURED_CALLS))
def test_punctured_entry_point_rejects_a_point_off_the_punctured_disk(name, z, tmp_path):
    spy = Spy(tmp_path)
    with pytest.raises(DomainViolation, match="lies outside"):
        PUNCTURED_CALLS[name](z, spy)
    assert spy.calls == []


@pytest.mark.parametrize("call", [
    lambda e: mobius_involution(0.3, e),
    lambda e: mobius_involution(e, 0.3),
    lambda e: pseudo_dist(0.3, e),
    lambda e: hyp_dist(e, 0.3),
    lambda e: poincare_coeff(e, Domain.DISK),
    lambda e: poincare_coeff(e, Domain.PUNCTURED_DISK),
    lambda e: area_A(e, Domain.DISK),
    lambda e: area_A(e, Domain.PUNCTURED_DISK),
    lambda e: injectivity_radius(e),
    lambda e: pdisk_radial_dist(e, e),
    lambda e: cyl_dist(e, e),
    lambda e: kernel_diag_check(_KERNEL, e),
    lambda e: lifted_translates(e, 5j, 4.0),
    lambda e: log_mean_disk(_KERNEL.weight, 0.8, e),
], ids=["mobius_involution/zeta", "mobius_involution/z", "pseudo_dist", "hyp_dist", "poincare_coeff/disk",
        "poincare_coeff/punctured", "area_A/disk", "area_A/punctured", "injectivity_radius",
        "pdisk_radial_dist", "cyl_dist", "kernel_diag_check", "lifted_translates", "log_mean_disk"])
def test_empty_points_give_an_empty_result(call):
    assert np.shape(call([])) == (0,)


NON_FINITE = [complex(0.3, math.inf), complex(math.nan, 9.0), complex(math.inf, 9.0)]

NON_FINITE_CALLS = {
    "puncture_density_ratio": lambda q, s: puncture_density_ratio([1e-3, 2e-3], s.punct, q, 4.0),
    "lifted_translates": lambda q, s: lifted_translates([1e-3, 2e-3], q, 4.0),
    "puncture_density_form": lambda q, s: puncture_density_form([1e-3, 2e-3], 4.0, q=q),
    "polar_integral": lambda q, s: polar_integral(s.punct.phi, q, 1.0, 4.0, _euclid_weight, None),
    "polar_integral_centers": lambda q, s: polar_integral(s.punct.phi, [5j, q], 1.0, 4.0, _euclid_weight, None),
}


@pytest.mark.parametrize("q", NON_FINITE, ids=["0.3+inf*j", "nan+9j", "inf+9j"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_a_non_finite_lift_or_center_fails_before_any_sampling(name, q, tmp_path):
    # each of these once excised every sample as non-finite and returned 0,
    # or a degenerate report with numerator and denominator 0
    spy = Spy(tmp_path)
    with pytest.raises(DomainViolation, match="is not finite"):
        NON_FINITE_CALLS[name](q, spy)
    assert spy.calls == []


# The lift log(1/|z|) of z = 0, and of a z so small that 1/|z| overflows,
# is not finite.  extended_covered_mean takes any z with a finite lift;
# the punctured-disk calls refuse 0 as off the domain (see above).
NO_FINITE_LIFT_CALLS = {
    "extended_covered_mean": lambda z, s: extended_covered_mean(s.punct, 0.1, 1.0, z),
    "extended_covered_mean/array": lambda z, s: extended_covered_mean(s.punct, 0.1, 1.0, [0.1, z]),
    "puncture_potential/z": lambda z, s: puncture_potential([1e-3], 2.0, z),
    "puncture_potential/points": lambda z, s: puncture_potential([1e-3, z], 2.0, 1e-4),
    "puncture_density_form/z": lambda z, s: puncture_density_form([1e-3], 4.0, z=z),
    "puncture_density_form/points": lambda z, s: puncture_density_form([1e-3, z], 4.0, z=1e-4),
    "lifted_translates": lambda z, s: lifted_translates([1e-3, z], 5j, 4.0),
    "puncture_density_ratio": lambda z, s: puncture_density_ratio([1e-3, z], s.punct, 8j, 4.0),
    "density_sweep": lambda z, s: density_sweep(SequenceSet((1e-3, z), Domain.PUNCTURED_DISK), s.punct),
}
NO_FINITE_LIFT = {"0": 0j, "1e-320": complex(1e-320)}
NO_FINITE_LIFT_CASES = [(name, z) for name in sorted(NO_FINITE_LIFT_CALLS)
                        for z in (NO_FINITE_LIFT if name.startswith("extended") else ("1e-320",))]


@pytest.mark.parametrize("name, z", NO_FINITE_LIFT_CASES, ids=[f"{name}-{z}" for name, z in NO_FINITE_LIFT_CASES])
def test_a_point_without_a_finite_lift_fails_before_any_warning(name, z, tmp_path):
    # these warned of a division by zero or an overflow in lift_value, which
    # the suite turns into an error, before any check refused the point
    spy = Spy(tmp_path)
    with pytest.raises(DomainViolation, match="has no finite lift"):
        NO_FINITE_LIFT_CALLS[name](NO_FINITE_LIFT[z], spy)
    assert spy.calls == []


BAD_RADII = [math.nan, math.inf, -1.0]

BAD_RADIUS_CALLS = {
    "lifted_translates": lambda r, s: lifted_translates([1e-3, 2e-3], 5j, r),
    "puncture_density_form": lambda r, s: puncture_density_form([1e-3, 2e-3], r, q=5j),
    "puncture_density_ratio": lambda r, s: puncture_density_ratio([1e-3, 2e-3], s.punct, 8j, r),
    "puncture_potential": lambda r, s: puncture_potential([1e-3], r, 1e-4),
}


@pytest.mark.parametrize("r", BAD_RADII, ids=["nan", "inf", "-1"])
@pytest.mark.parametrize("name", sorted(BAD_RADIUS_CALLS))
def test_a_bad_radius_on_the_cover_fails_before_any_sampling(name, r, tmp_path):
    # the first two once raised OverflowError or ValueError from the
    # translate window's int(), or took a negative radius for an empty window
    spy = Spy(tmp_path)
    with pytest.raises(DomainViolation, match="needs"):
        BAD_RADIUS_CALLS[name](r, spy)
    assert spy.calls == []


DISK_BAD_RADIUS_CALLS = {
    "log_mean_disk": lambda r, s: log_mean_disk(s.disk, r, 0.1),
    "truncated_log_mean": lambda r, s: truncated_log_mean(s.disk, r, 0.2, 0.5),
    "polar_integral": lambda r, s: polar_integral(s.disk.phi, 0.0, 0.0, r, _hyper_weight, None, pullback=0.1),
}


@pytest.mark.parametrize("r", [1.0, 1.5])
@pytest.mark.parametrize("name", sorted(DISK_BAD_RADIUS_CALLS))
def test_a_pullback_radius_off_the_disk_fails_before_any_sampling(name, r, tmp_path):
    # at r = 1 the hyperbolic mass is infinite: these sampled the rim,
    # warned of a division by zero, and raised QuadratureNotConverged
    # with NaN estimates at 309 panels x 256 angles
    spy = Spy(tmp_path)
    with pytest.raises(DomainViolation, match="outer radius below 1"):
        DISK_BAD_RADIUS_CALLS[name](r, spy)
    assert spy.calls == []


NON_FINITE_WEIGHTS = {
    "standard_disk(nan)": lambda: standard_disk(math.nan),
    "standard_disk(inf)": lambda: standard_disk(math.inf),
    "standard_puncture(nan, 3)": lambda: standard_puncture(math.nan, 3.0),
    "standard_puncture(inf, 3)": lambda: standard_puncture(math.inf, 3.0),
    "standard_puncture(2, nan)": lambda: standard_puncture(2.0, math.nan),
    "standard_puncture(2, inf)": lambda: standard_puncture(2.0, math.inf),
    "standard_kernel(nan)": lambda: standard_kernel(math.nan),
    "standard_kernel(inf)": lambda: standard_kernel(math.inf),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_WEIGHTS))
def test_a_non_finite_weight_parameter_fails_before_any_quadrature(name, monkeypatch):
    # each was accepted: classify under standard_disk(nan) read Indeterminate
    # with a curvature reason, and standard_kernel(nan) ran a 393 216-node
    # quadrature before QuadratureNotConverged
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the kernel's mass was integrated")

    monkeypatch.setattr(kernels, "_monomial_norms", no_quadrature)
    with pytest.raises(ValueError, match="needs? a finite"):
        NON_FINITE_WEIGHTS[name]()
