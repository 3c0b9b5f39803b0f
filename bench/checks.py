"""Output checks, computed apart from the program.

Each checker takes values the program produced and returns a list of
failure messages (empty when the values pass).  The references are
recomputed here with numpy from the definitions (pseudohyperbolic
distances, lifts and translates, closed-form kernel masses), taken from
scipy's adaptive quadrature, or are properties the method must have.
None of them runs inside a timed region.

`self_test` feeds every checker one correct and one perturbed value and
reports the checkers that fail to tell them apart.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
SINH2 = math.sinh(1.0) ** 2
SEPARATION_FLOOR = 1e-6
EDGE = 1e-12          # a distance this close to an annulus edge may fall either side


# ---------------------------------------------------------------------------
# Independent geometry.

def pseudo(a, b):
    """|a - b| / |1 - conj(a) b|, broadcasting."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.abs((a - b) / (1.0 - np.conjugate(a) * b))


def lift(z):
    z = np.asarray(z, dtype=complex)
    return np.mod(np.angle(z), TWO_PI) + 1j * np.log(1.0 / np.abs(z))


def translates(points, q, radius):
    """Lifts of the points, shifted by multiples of 2 pi, within radius of q."""
    w = lift(points).ravel()
    if w.size == 0:
        return w
    span = int(radius / TWO_PI) + 2
    k0 = np.round((q.real - w.real) / TWO_PI)
    ks = k0[:, None] + np.arange(-span, span + 1)[None, :]
    t = (w[:, None] + TWO_PI * ks).ravel()
    return t[np.abs(t - q) <= radius]


def a_r(r):
    """Kernel mass of log(r^2/rho^2) over D_r(0) in the hyperbolic area."""
    return -math.pi * math.log1p(-r * r)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Checkers.

def lattice(points, count, d, margin, tag):
    pts = np.asarray(points, dtype=complex)
    out = []
    if pts.size != count:
        out.append(f"{tag}: {pts.size} points, {count} asked for")
    if pts.size and np.max(np.abs(pts)) > 1.0 - margin + 1e-12:
        out.append(f"{tag}: |z| = {np.max(np.abs(pts))!r} > 1 - margin")
    if pts.size > 1:
        dist = pseudo(pts[:, None], pts[None, :])
        iu = np.triu_indices(pts.size, 1)
        low = float(np.min(dist[iu]))
        if low < d - 1e-12:
            out.append(f"{tag}: pairwise pseudohyperbolic distance {low!r} < {d}")
    return out


def same_points(a, b, tag):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or not np.array_equal(a, b):
        return [f"{tag}: the same seed gave different points"]
    return []


def _annulus_sums(dist, lo, radii):
    """2 pi sum of log(r^2/d^2) over lo < d < r, per row, with edge slack."""
    r = radii[:, None]
    with np.errstate(divide="ignore"):
        terms = np.log(r * r / dist**2)
    inside = (dist > lo) & (dist < r)
    edge = (np.abs(dist - lo) < EDGE) | (np.abs(dist - r) < EDGE)
    exact = TWO_PI * np.sum(np.where(inside, terms, 0.0), axis=1)
    slack = TWO_PI * np.sum(np.where(edge, np.abs(terms), 0.0), axis=1)
    return exact, slack


def _compare_numerators(numers, exact, slack, scale, tag):
    bad = np.abs(numers - exact) > 1e-10 * np.maximum(scale, 1.0) + slack
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{tag}: numerator {numers[i]!r} != recomputed {exact[i]!r} (report {i})"]
    return []


def border_numerators(points, centers, radii, numers, tag):
    """Numerator = 2 pi sum of log(r^2/rho^2) over 1/2 < rho < r."""
    pts = np.asarray(points, dtype=complex)
    numers = np.asarray(numers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if pts.size == 0:
        return [] if np.all(numers == 0.0) else [f"{tag}: nonzero numerator without points"]
    dist = pseudo(np.asarray(centers, dtype=complex)[:, None], pts[None, :])
    exact, slack = _annulus_sums(dist, 0.5, radii)
    return _compare_numerators(numers, exact, slack, np.abs(exact), tag)


def puncture_numerators(points, lifts, radii, numers, tag):
    """Numerator = 2 pi sum of log(r^2/d^2) over lifted points with 1 < d < r."""
    out_exact, out_slack = [], []
    for q, r in zip(lifts, radii):
        d = np.abs(translates(points, complex(q), r) - q)
        e, s = _annulus_sums(d[None, :], 1.0, np.asarray([r]))
        out_exact.append(e[0])
        out_slack.append(s[0])
    exact = np.asarray(out_exact)
    return _compare_numerators(np.asarray(numers, dtype=float), exact, np.asarray(out_slack), np.abs(exact), tag)


def closed_denominators(radii, denoms, coeff, rtol, tag):
    """Denominator = coeff * a_r, coeff = 2s - 2 for a constant-curvature weight."""
    for r, den in zip(radii, denoms):
        want = coeff * a_r(r)
        if not _rel(den, want) <= rtol:
            return [f"{tag}: denominator {den!r} != {coeff} a_r = {want!r} at r = {r}"]
    return []


def bracketed_denominators(radii, denoms, lo_coeff, hi_coeff, tag):
    """lo_coeff a_r <= denominator <= hi_coeff a_r, for curvature in a band."""
    for r, den in zip(radii, denoms):
        lo, hi = lo_coeff * a_r(r), hi_coeff * a_r(r)
        if not lo * (1.0 - 1e-9) <= den <= hi * (1.0 + 1e-9):
            return [f"{tag}: denominator {den!r} outside [{lo!r}, {hi!r}] at r = {r}"]
    return []


def positive_finite(values, tag):
    v = np.asarray(values, dtype=float)
    if v.size and not (np.all(np.isfinite(v)) and np.all(v > 0)):
        return [f"{tag}: a value is not positive and finite"]
    return []


def gram(diag, eig, trace, s, tag):
    """Normalized diagonal = (s-1) sinh^2(1); eigenvalues sum to the trace."""
    out = []
    dev = float(np.max(np.abs(np.asarray(diag) - (s - 1.0) * SINH2)))
    if not dev <= 1e-10:
        out.append(f"{tag}: normalized Gram diagonal off (s-1) sinh^2(1) by {dev!r}")
    total = float(np.sum(eig))
    if not abs(total - trace) <= 1e-9 * max(1.0, abs(trace)):
        out.append(f"{tag}: eigenvalues sum to {total!r}, trace {trace!r}")
    return out


def diag_product(values, s, tag):
    """K(z, z) e^-phi A(z) = (s-1) sinh^2(1) for the standard disk kernel."""
    dev = float(np.max(np.abs(np.asarray(values) - (s - 1.0) * SINH2)))
    return [] if dev <= 1e-10 else [f"{tag}: kernel diagonal product off by {dev!r}"]


def verdict(name, estimates, separations, delta, tag):
    """Interpolating only with every estimate <= 1 - delta and separations above the floor."""
    if name != "Interpolating":
        return []
    est = [e for e in estimates if e is not None]
    seps = [s for s in separations if s is not None]
    if all(e <= 1.0 - delta for e in est) and all(s > SEPARATION_FLOOR for s in seps):
        return []
    return [f"{tag}: Interpolating with estimates {est!r}, separations {seps!r}"]


def below(values, limit, tag):
    v = np.asarray(values, dtype=float)
    if v.size and not np.all(v < limit):
        return [f"{tag}: {float(np.max(v))!r} is not below {limit!r}"]
    return []


def sigma_bound(sigmas, tag):
    """0 <= sigma <= 1 at every evaluation."""
    s = np.asarray(sigmas, dtype=float)
    if s.size and not (np.all(s <= 1.0 + 1e-9) and np.all(s >= 0.0)):
        return [f"{tag}: sigma = {float(np.max(s))!r} outside [0, 1]"]
    return []


def close(got, want, rtol, atol, tag):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= atol + rtol * np.abs(want)):
        return [f"{tag}: {got!r} != {want!r} (rtol {rtol}, atol {atol})"]
    return []


def exit_code(out, expected, tag):
    """`out` is a subcommand's {"code", "stdout", "stderr"}."""
    if out["code"] != expected:
        return [f"{tag}: exit code {out['code']}, expected {expected}; stderr {out['stderr'].strip()[-200:]!r}"]
    return []


# ---------------------------------------------------------------------------
# Reference integrals (scipy).

def border_denominator_scipy(lap_ratio, z, r):
    """int_{D_r(0)} (lap(phi_z(zeta)) - 2) log(r^2/|zeta|^2) dA/(1-|zeta|^2)^2."""
    from scipy import integrate

    def f(theta, rho):
        zeta = rho * complex(math.cos(theta), math.sin(theta))
        w = (z - zeta) / (1.0 - z.conjugate() * zeta)
        lap = float(np.asarray(lap_ratio(np.asarray([w])))[0])
        return (lap - 2.0) * math.log(r * r / (rho * rho)) * rho / (1.0 - rho * rho) ** 2

    val, _ = integrate.dblquad(f, 0.0, r, 0.0, TWO_PI, epsabs=0.0, epsrel=1e-10)
    return val


def lambda_scipy(dists, lo, r, radial_weight, harm=0.0):
    """Kernel-weighted radial mean of sum_j 2 log max(rho, d_j) over (lo, r)."""
    from scipy import integrate

    ker = lambda rho: rho * radial_weight(rho) * math.log(r * r / (rho * rho))
    norm, _ = integrate.quad(ker, lo, r, epsabs=0.0, epsrel=1e-12, limit=200)
    total = 0.0
    for d in dists:
        pts = [d] if lo < d < r else None
        g = lambda rho, d=d: 2.0 * math.log(max(rho, d)) * ker(rho)
        val, _ = integrate.quad(g, lo, r, points=pts, epsabs=0.0, epsrel=1e-12, limit=200)
        total += val
    return total / norm + harm


def hyperbolic_density(rho):
    return 1.0 / (1.0 - rho * rho) ** 2


def euclidean_density(rho):
    return 1.0


# ---------------------------------------------------------------------------
# Self-test.

def self_test():
    """(checker name, accepts the true value, rejects the perturbed one)."""
    import bergseq as bs

    res = []

    def case(name, good, bad):
        res.append((name, not good(), bool(bad())))

    lat = bs.generate_lattice("hyperbolic-disk", 20, seed=5, d=0.35, margin=0.02)
    pts = lat.array()
    moved = pts.copy()
    moved[1] = moved[0] * (1.0 + 1e-3)
    case("lattice", lambda: lattice(pts, 20, 0.35, 0.02, "t"), lambda: lattice(moved, 20, 0.35, 0.02, "t"))
    case("lattice count", lambda: lattice(pts, 20, 0.35, 0.02, "t"), lambda: lattice(pts[:12], 20, 0.35, 0.02, "t"))
    case("same points", lambda: same_points(pts, pts.copy(), "t"), lambda: same_points(pts, moved, "t"))

    w2 = bs.standard_disk(2.0)
    reps = [bs.border_density_ratio(lat, w2, c, r) for c in pts[:4] for r in (0.9, 0.99)]
    cen = [x.center for x in reps]
    rad = [x.radius for x in reps]
    num = np.asarray([x.numerator for x in reps])
    den = np.asarray([x.denominator for x in reps])
    case("border numerators", lambda: border_numerators(pts, cen, rad, num, "t"),
         lambda: border_numerators(pts, cen, rad, num * (1.0 + np.where(np.arange(num.size) == 3, 1e-6, 0.0)), "t"))
    case("closed denominators", lambda: closed_denominators(rad, den, 2.0, 1e-12, "t"),
         lambda: closed_denominators(rad, den * (1.0 + 1e-6), 2.0, 1e-12, "t"))
    case("bracketed denominators", lambda: bracketed_denominators(rad, den, 2.0, 4.0, "t"),
         lambda: bracketed_denominators(rad, den * 0.999, 2.0, 4.0, "t"))

    pex = np.asarray(bs.generate_lattice("puncture-exponential", 12, s=1.0, n=2).points)
    qs = [complex(0.5, 6.0), complex(2.0, 7.0), complex(4.0, 6.5)]
    wp = bs.standard_puncture(2.0, 3.0)
    preps = [bs.puncture_density_ratio(pex, wp, q, 4.0) for q in qs]
    pnum = np.asarray([x.numerator for x in preps])
    case("puncture numerators", lambda: puncture_numerators(pex, qs, [4.0] * 3, pnum, "t"),
         lambda: puncture_numerators(pex, qs, [4.0] * 3, pnum + 1e-6 * np.abs(pnum).max(), "t"))

    k2 = bs.standard_kernel(2.0)
    g = bs.gram_assemble(k2, pts)
    diag = np.real(np.diag(g.normalized))
    eig = np.linalg.eigvalsh(g.normalized)
    tr = float(np.real(np.trace(g.normalized)))
    case("gram diagonal", lambda: gram(diag, eig, tr, 2.0, "t"), lambda: gram(diag + 1e-9, eig, tr, 2.0, "t"))
    case("gram trace", lambda: gram(diag, eig, tr, 2.0, "t"), lambda: gram(diag, eig * (1.0 + 1e-6), tr, 2.0, "t"))
    kd = bs.kernel_diag_check(k2, pts)
    case("kernel diagonal", lambda: diag_product(kd, 2.0, "t"), lambda: diag_product(kd * (1.0 + 1e-9), 2.0, "t"))
    case("verdict", lambda: verdict("Interpolating", [0.5], [0.1], 0.05, "t"),
         lambda: verdict("Interpolating", [0.99], [0.1], 0.05, "t"))
    case("residual", lambda: below([1e-9], 1e-6, "t"), lambda: below([1e-9, 2e-6], 1e-6, "t"))
    case("harmonic margin", lambda: below([1e-14], 1e-10, "t"), lambda: below([1e-9], 1e-10, "t"))
    case("sigma", lambda: sigma_bound([0.2, 1.0], "t"), lambda: sigma_bound([0.2, 1.01], "t"))
    case("agreement", lambda: close([1.0], [1.0 + 1e-12], 1e-9, 0.0, "t"), lambda: close([1.0], [1.0 + 1e-6], 1e-9, 0.0, "t"))

    z = 0.4 + 0.2j
    d = pseudo(z, pts)
    sig, lam = bs.border_potential(pts, 0.9, z)
    ref = lambda_scipy(d, 0.5, 0.9, hyperbolic_density)
    case("lambda vs scipy", lambda: close([lam], [ref], 1e-9, 1e-12, "t"), lambda: close([lam + 1e-5], [ref], 1e-9, 1e-12, "t"))
    lap = lambda w: 4.0 + 2.0 * (1.0 - np.abs(w) ** 2) ** 2
    cw = bs.custom_weight(lambda w: 0.0 * np.abs(w), lap, bs.Domain.DISK)
    zc = 0.5 + 0.1j
    dc = bs.border_density_ratio([0.3], cw, zc, 0.9).denominator
    dref = border_denominator_scipy(lap, zc, 0.9)
    case("denominator vs scipy", lambda: close([dc], [dref], 1e-7, 0.0, "t"),
         lambda: close([dc * (1.0 + 1e-6)], [dref], 1e-7, 0.0, "t"))
    ran = lambda code: {"code": code, "stdout": "", "stderr": ""}
    case("exit code", lambda: exit_code(ran(0), 0, "t"), lambda: exit_code(ran(2), 0, "t"))
    return res
