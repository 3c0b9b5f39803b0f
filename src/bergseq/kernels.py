"""Reproducing kernels, Gram systems, and interpolation-constant estimates.

Kernels are normalized by quadrature, not by closed form, so that the
diagonal identity K(z, z) = e^{phi(z)} / A(z) * (1 + o(1)) can serve as
an end-to-end consistency check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, SingularSystem
from .geometry import area_A
from .quadrature import _one, polar_integral
from .weights import WeightModel, standard_disk


@dataclass(frozen=True)
class KernelSpec:
    """A positive-definite kernel together with its weight model."""

    evaluate: Callable  # (z, w) -> K(z, w), w conjugate-linear slot
    weight: WeightModel
    name: str = ""


def standard_kernel(s) -> KernelSpec:
    """K(z, w) = c_s (1 - z conj(w))^{-s} with c_s fixed by K(0,0) = 1/mass.

    The mass, the integral of (1 - |zeta|^2)^(s-2) over the unit disk, is
    the squared norm of the monomial 1, by quadrature.
    """
    # written so that NaN fails too, before any quadrature
    if not 1.0 < s < math.inf:
        raise ValueError(f"need a finite s > 1, got {s}")
    c_s = 1.0 / _monomial_norms(s, 0)[0]

    def evaluate(z, w):
        # in place, so that an n x n evaluation holds one n x n buffer; the
        # outer asarray makes a scalar product 0-d, which out= accepts
        t = np.asarray(np.asarray(z, dtype=complex) * np.conjugate(w))
        np.subtract(1.0, t, out=t)
        np.power(t, -s, out=t)
        t *= c_s
        return t[()]

    return KernelSpec(evaluate, standard_disk(s), f"standard-disk s={s}")


def _monomial_norms(s, degree):
    """Squared weighted norms of 1, z, ..., z^degree, by quadrature.

    One polar_integral of 1 against the columns rho^(2k) (1 - rho^2)^(s-2),
    k = 0, ..., degree.  The norms are radial, so the trapezoid rule in
    theta is exact and only the panels are refined; the weight's integrable
    blow-up at the rim for s < 2 is absorbed by the rim-graded panels.
    """
    ks = np.arange(degree + 1)
    w = lambda rho: (1.0 - rho * rho) ** (s - 2.0)
    moments = lambda rho: rho[:, None] ** (2 * ks)
    return polar_integral(_one, 0.0, 0.0, 1.0 - 1e-12, w, moments)


def numeric_gram_kernel(s, degree=160) -> KernelSpec:
    """Truncated monomial expansion sum_k z^k conj(w)^k / ||z^k||^2.

    The truncation tail at |z| = |w| = r is O((s r^2)^degree-ish); degree
    160 keeps it below 1e-6 throughout |z| <= 0.95 for s in {2, 3}.
    """
    norms = _monomial_norms(s, degree)
    if np.any(norms <= 0):
        raise SingularSystem("nonpositive monomial norm in kernel expansion")
    coeff = 1.0 / norms

    def evaluate(z, w):
        t = np.asarray(z, dtype=complex) * np.conjugate(w)
        # Horner in t keeps the sum stable for |t| < 1
        acc = np.zeros_like(t)
        for c in coeff[::-1]:
            acc = acc * t + c
        return acc

    return KernelSpec(evaluate, standard_disk(s), f"numeric-gram s={s} deg={degree}")


def _diag_scale(weight: WeightModel, z):
    """e^{-phi} A at an array of points of the weight's domain, A the area function."""
    area = area_A(z, weight.domain)
    return np.exp(-np.asarray(weight.phi(z), dtype=float)) * area


def kernel_diag_check(kernel: KernelSpec, z):
    """The invariant diagonal product K(z, z) e^{-phi(z)} A(z).

    For the standard disk family this is constant in z (the two-sided
    diagonal bound with equal constants), so max/min over a grid equals
    1 up to quadrature error.
    """
    z = np.asarray(z, dtype=complex)
    return np.asarray(_diag_scale(kernel.weight, z) * np.real(kernel.evaluate(z, z)))


@dataclass(frozen=True)
class GramSystem:
    points: np.ndarray
    raw: np.ndarray          # G_ij = K(gamma_i, gamma_j)
    normalized: np.ndarray   # D^{1/2} G D^{1/2}, D_ii = e^{-phi} A
    scale: np.ndarray        # the diagonal of D


def gram_assemble(kernel: KernelSpec, points) -> GramSystem:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise DomainViolation("need a nonempty 1-d array of points")
    scale = _diag_scale(kernel.weight, pts)
    raw = np.asarray(kernel.evaluate(pts[:, None], pts[None, :]), dtype=complex)
    root = np.sqrt(scale)
    # in place, so that at most three n x n matrices are alive at once
    normalized = raw * root[:, None]
    normalized *= root[None, :]
    normalized += normalized.conj().T
    normalized *= 0.5
    return GramSystem(pts, raw, normalized, scale)


def interpolation_constant_estimate(gram: GramSystem):
    """(smallest eigenvalue of the normalized Gram matrix)^(-1/2).

    Large values signal a nearly degenerate sampling configuration; a
    nonpositive eigenvalue (within round-off) is reported as infinity.
    """
    eig = np.linalg.eigvalsh(gram.normalized)
    lo = float(eig[0])
    if lo <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(lo)


def min_norm_interpolant(kernel: KernelSpec, points, values):
    """Least-norm interpolant through (gamma_i, v_i) in the kernel span.

    Returns (f, norm) where f evaluates sum_j c_j K(., gamma_j) and
    norm^2 = Re(conj(c) . v).
    """
    gram = gram_assemble(kernel, points)
    v = np.asarray(values, dtype=complex)
    if v.shape != gram.points.shape:
        raise DomainViolation("values must match points in shape")
    try:
        c = np.linalg.solve(gram.raw, v)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Gram system is singular: {exc}") from exc
    norm_sq = float(np.real(np.vdot(c, v)))
    if norm_sq < 0 and norm_sq > -1e-10:
        norm_sq = 0.0
    if norm_sq < 0:
        raise SingularSystem("negative squared norm; Gram matrix not PSD")

    def f(z):
        z = np.asarray(z, dtype=complex)
        kv = kernel.evaluate(z[..., None], gram.points)
        return kv @ c

    return f, math.sqrt(norm_sq)
