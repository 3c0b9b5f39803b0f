"""The three workloads: set-up, one round of operations, output checks.

A run repeats whole rounds.  Round k of a run with seed S draws its
inputs from (S, k), so a run with the same seed sees the same inputs,
and every round attempts the same operations in the same order.  The
operations that reproduce a known fault use inputs that do not depend
on the seed, so they fail in every round.

Each workload also makes a small share of the other kinds of work (a
few potentials, identity checks, one Gram system, ...) so that every
end-to-end and per-layer metric is measured on every workload.  Each
kind has its own rate, so this share does not enter the rates that the
workload is named for.
"""

from __future__ import annotations

import cmath
import math
import os
import time

import numpy as np

import bergseq as bs
from bergseq import cli as bcli

import checks

D_MESH = 0.35
DELTA = bs.ClassifyParams().delta
FAULT_F1 = "F1"
FAULT_F2 = "F2"


def subseed(seed, *parts):
    """A 32-bit generator seed derived from the run seed and a path."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def rng_for(seed, *parts):
    return np.random.default_rng(np.random.SeedSequence([seed, *parts]))


def disk_points(rng, n, rmax):
    """n points uniform in area on |z| < rmax."""
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))


def puncture_points(rng, n, r):
    """n evaluation points whose lifts have Im in (r + 0.5, r + 3.5)."""
    depth = r + 0.5 + 3.0 * rng.random(n)
    return np.exp(-depth) * np.exp(2j * math.pi * rng.random(n))


def pj_cases(rng, n, weight):
    """Seeded Poisson-Jensen inputs, zeros kept 0.02 off the circle."""
    cases = []
    while len(cases) < n:
        zeros = disk_points(rng, int(rng.integers(0, 5)), 0.7)
        z = complex(disk_points(rng, 1, 0.3)[0])
        r = float(rng.choice((0.5, 0.8)))
        rho = checks.pseudo(zeros, z)
        if np.any(np.abs(rho - r) < 0.02) or np.any(rho < 1e-3):
            continue
        cases.append((bs.BlaschkeSpec(tuple(zeros)), weight, z, r))
    return cases


def pexp_points(count, s, n):
    return np.asarray(bs.generate_lattice("puncture-exponential", count, s=s, n=n).points)


def window(points, r):
    """The points with |gamma| < e^-r, off the edge by more than rounding."""
    return points[np.abs(points) < math.exp(-r) * (1.0 - 1e-9)]


def curved_weight():
    """phi = 2 log 1/(1-|z|^2) + |z|^2; Delta phi / omega_P = 4 + 2 (1-|z|^2)^2."""
    return bs.custom_weight(
        lambda z: -2.0 * np.log1p(-np.abs(z) ** 2) + np.abs(z) ** 2,
        lambda z: 4.0 + 2.0 * (1.0 - np.abs(z) ** 2) ** 2,
        bs.Domain.DISK,
    )


def harmonic_weight():
    """A harmonic weight that stays near 1 on the grids used here."""
    return bs.custom_weight(
        lambda z: 1.0 + 0.5 * np.real(z) - 0.3 * np.imag(z),
        lambda z: np.zeros(np.shape(z)),
        bs.Domain.DISK,
    )


def warm_up():
    """One small call into each path, LAPACK included, before timing."""
    np.linalg.eigvalsh(np.eye(4))
    lat = bs.generate_lattice("hyperbolic-disk", 6, seed=0, d=D_MESH, margin=0.02)
    bs.classify(lat, bs.standard_disk(2.0))
    k = bs.standard_kernel(2.0)
    bs.interpolation_constant_estimate(bs.gram_assemble(k, lat.array()))
    bs.kernel_diag_check(k, lat.array())
    bs.border_potential(lat.array(), 0.9, 0.1j, rule=bs.FAST_RULE)
    bs.puncture_potential([math.exp(-3.0)], 2.0, math.exp(-3.0) * 1j, rule=bs.FAST_RULE)
    bs.poisson_jensen_residual(bs.BlaschkeSpec((0.2,)), bs.standard_disk(2.0), 0.1, 0.5)


def gram_op(kernel, pts):
    """Assembly, spectrum and constant: one Gram spectrum."""
    g = bs.gram_assemble(kernel, pts)
    eig = np.linalg.eigvalsh(g.normalized)
    const = bs.interpolation_constant_estimate(g)
    kdiag = bs.kernel_diag_check(kernel, pts)
    return {
        "diag": np.real(np.diag(g.normalized)).copy(),
        "eig": eig,
        "trace": float(np.real(np.trace(g.normalized))),
        "const": const,
        "kdiag": kdiag,
    }


def reports_of(sweep):
    reps = sweep.reports if sweep is not None else ()
    return {
        "kind": [r.kind for r in reps],
        "center": np.asarray([r.center for r in reps], dtype=complex),
        "radius": np.asarray([r.radius for r in reps], dtype=float),
        "numer": np.asarray([r.numerator for r in reps], dtype=float),
        "denom": np.asarray([r.denominator for r in reps], dtype=float),
    }


def verdict_of(v):
    return {
        "verdict": v.verdict,
        "d_b": v.density_border,
        "d_p": v.density_puncture,
        "seps": (v.separation_border, v.separation_puncture),
        "reports": reports_of(v.sweep),
    }


def n_reports(v):
    sweep = v.sweep if isinstance(v, bs.ClassificationVerdict) else v
    return len(sweep.reports) if sweep is not None else 0


def parse_fields(text):
    """'key: value' lines of a subcommand's output."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(":")
        if sep and val.strip():
            out.setdefault(key.strip(), val.strip())
    return out


def proc_of(p):
    return {"code": p.returncode, "stdout": p.stdout, "stderr": p.stderr}


def check_analyze(out, seq, weight, tag):
    """The analyze subcommand agrees with classify on the same file."""
    lib = bs.classify(seq, weight)
    fails = checks.exit_code(out, 2 if lib.verdict == "Indeterminate" else 0, tag)
    got = parse_fields(out["stdout"])
    want = {"verdict": lib.verdict, "separation_border": repr(float(lib.separation_border))}
    if lib.density_border is not None:
        want["density_border"] = repr(float(lib.density_border))
    if lib.density_puncture is not None:
        want["density_puncture"] = repr(float(lib.density_puncture))
    for key, val in want.items():
        if got.get(key) != val:
            fails.append(f"{tag}: {key} = {got.get(key)!r}, classify gives {val!r}")
    return fails


def check_common(o):
    """Checks of the work every workload shares: Gram (s = 2), potentials, identities."""
    fails = []
    for i, g in enumerate(o.get("gram", ())):
        fails += checks.gram(g["diag"], g["eig"], g["trace"], 2.0, f"gram {i}")
        fails += checks.diag_product(g["kdiag"], 2.0, f"kernel diagonal {i}")
    fails += checks.sigma_bound(o.get("sigma", ()), "sigma")
    fails += checks.below(o.get("pj", ()), 1e-6, "Poisson-Jensen residual")
    fails += checks.positive_finite(np.asarray(o.get("mcm", ())) + 1e-300, "mean comparison margin")
    for q, rep, pts in o.get("pdr", ()):
        fails += checks.puncture_numerators(pts, [q], [rep.radius], [rep.numerator], "puncture quotient")
        fails += checks.positive_finite([rep.denominator], "puncture quotient denominator")
    return fails


class Workload:
    """Shared minor share of work and its inputs."""

    name = ""

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.w2 = bs.standard_disk(2.0)
        self.wp = bs.standard_puncture(2.0, 3.0)
        self.pex60 = pexp_points(60, 1.0, 3)
        self.pex_r2 = window(self.pex60, 2.0)
        self.coverage_q = complex(1.0, 6.25)     # Im q > r + 1, as classify's centers
        rng = rng_for(seed, 0)
        self.minor_pj = pj_cases(rng, 40, self.w2)
        self.minor_grid = disk_points(rng, 2, 0.6)
        self.build_s = 0.0

    def build_kernel(self, s):
        t0 = time.perf_counter()
        k = bs.standard_kernel(s)
        self.build_s += time.perf_counter() - t0
        return k

    def minor_potentials(self, rec, o, disk_pts, rng, n_border, n_puncture):
        for z in disk_points(rng, n_border, 0.9):
            res = rec.op("potential", bs.border_potential, disk_pts, 0.9, z, rule=bs.FAST_RULE)
            if res is not None:
                o["sigma"].append(res[0])
        for z in puncture_points(rng, n_puncture, 2.0):
            res = rec.op("potential", bs.puncture_potential, self.pex_r2, 2.0, z, rule=bs.FAST_RULE)
            if res is not None:
                o["sigma"].append(res[0])

    def minor_identities(self, rec, o):
        for f, w, z, r in self.minor_pj:
            res = rec.op("identity", bs.poisson_jensen_residual, f, w, z, r)
            if res is not None:
                o["pj"].append(res)
        res = rec.op("identity", bs.mean_comparison_margin, self.w2, 0.8, self.minor_grid, work=len(self.minor_grid))
        if res is not None:
            o["mcm"].append(res)

    def coverage(self, rec, o):
        """One puncture quotient, so its layer is traced on every workload."""
        rep = rec.op("coverage", bs.puncture_density_ratio, self.pex60, self.wp, self.coverage_q, 4.0)
        if rep is not None:
            o["pdr"].append((self.coverage_q, rep, self.pex60))

    @staticmethod
    def new_output():
        return {"sigma": [], "pj": [], "mcm": [], "pdr": [], "gram": []}


# ---------------------------------------------------------------------------


class LatticeGram(Workload):
    """Greedy lattices, constant-curvature classification, Gram spectra."""

    name = "lattice-gram"
    SIZES = (100, 200, 300)
    MARGIN = 0.02
    CLI_N = 60

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.weights = {2.0: self.w2, 3.0: bs.standard_disk(3.0)}
        self.kernel = self.build_kernel(2.0)
        self.cli_seed = subseed(seed, 2)
        self.cli_lat = bs.generate_lattice(
            "hyperbolic-disk", self.CLI_N, seed=self.cli_seed, d=D_MESH, margin=self.MARGIN
        )
        self.cli_file = os.path.join(tmp, "lattice.json")
        self.gen_file = os.path.join(tmp, "gen.json")
        bcli.write_sequence_file(self.cli_file, self.cli_lat)

    def round(self, rec, k):
        o = self.new_output()
        o["lattices"], o["classify"] = [], []
        lats = []
        for j, n in enumerate(self.SIZES):
            s = subseed(self.seed, 10, k, j)
            lat = rec.op("lattice", bs.generate_lattice, "hyperbolic-disk", n,
                         seed=s, d=D_MESH, margin=self.MARGIN, work=len)
            if lat is not None:
                lats.append(lat)
                o["lattices"].append((n, s, lat.array()))
        for lat in lats:
            for s, w in self.weights.items():
                v = rec.op("density", bs.classify, lat, w, work=n_reports)
                if v is not None:
                    o["classify"].append((s, lat.array(), verdict_of(v)))
        for lat in lats:
            g = rec.op("gram", gram_op, self.kernel, lat.array())
            if g is not None:
                o["gram"].append(g)
        o["gen"] = proc_of(rec.cli("gen", "--kind", "hyperbolic-disk", "--count", str(self.CLI_N),
                                   "--mesh", str(D_MESH), "--seed", str(self.cli_seed), "--out", self.gen_file))
        with open(self.gen_file) as fh:
            o["gen"]["file"] = fh.read()
        o["analyze"] = proc_of(rec.cli("analyze", self.cli_file, "--weight", "standard-disk:s=2"))
        o["gram_cli"] = proc_of(rec.cli("gram", self.cli_file, "--weight", "standard-disk:s=2"))
        rng = rng_for(self.seed, 11, k)
        if lats:
            self.minor_potentials(rec, o, lats[0].array(), rng, 250, 80)
        self.minor_identities(rec, o)
        self.coverage(rec, o)
        return o

    def check(self, outs):
        fails = []
        for k, o in enumerate(outs):
            fails += check_common(o)
            for n, s, pts in o["lattices"]:
                fails += checks.lattice(pts, n, D_MESH, self.MARGIN, f"round {k} lattice n={n}")
            for s, pts, v in o["classify"]:
                rep = v["reports"]
                tag = f"round {k} classify s={s} n={pts.size}"
                fails += checks.border_numerators(pts, rep["center"], rep["radius"], rep["numer"], tag)
                fails += checks.closed_denominators(rep["radius"], rep["denom"], 2.0 * s - 2.0, 1e-12, tag)
                fails += checks.verdict(v["verdict"], [v["d_b"], v["d_p"]], v["seps"], DELTA, tag)
            for key in ("gen", "analyze", "gram_cli"):
                if o[key]["stdout"] != outs[0][key]["stdout"] or o[key].get("file") != outs[0][key].get("file"):
                    fails.append(f"round {k}: {key} output differs from round 0")
        o = outs[0]
        for n, s, pts in o["lattices"][:2]:
            again = bs.generate_lattice("hyperbolic-disk", n, seed=s, d=D_MESH, margin=self.MARGIN)
            fails += checks.same_points(pts, again.array(), f"lattice n={n}")
        fails += checks.exit_code(o["gen"], 0, "gen")
        want = bs.generate_lattice("hyperbolic-disk", self.CLI_N, seed=self.cli_seed, d=D_MESH)
        got = bcli.parse_sequence_file(self.gen_file)
        fails += checks.same_points(got.array(), want.array(), "gen subcommand")
        fails += check_analyze(o["analyze"], self.cli_lat, self.w2, "analyze")
        fails += checks.exit_code(o["gram_cli"], 0, "gram")
        lines = o["gram_cli"]["stdout"].splitlines()
        spectrum = [float(x) for x in lines[1:1 + self.CLI_N]]
        lib = gram_op(self.kernel, self.cli_lat.array())
        fails += checks.close(spectrum, lib["eig"], 1e-12, 1e-15, "gram subcommand spectrum")
        return fails


class CurvedSweep(Workload):
    """Density sweeps whose denominators need 2-D quadrature; identities."""

    name = "curved-sweep"
    SWEEP_N = 24
    SWEEP_MARGIN = 0.1     # keeps every net center below |z| = 0.95 (F2 starts near 0.97)
    GRAM_N = 100

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.curved = curved_weight()
        s3 = bs.standard_disk(3.0)
        self.wrapped = bs.custom_weight(s3.phi, s3.lap_poincare_ratio, bs.Domain.DISK)
        self.harmonic = harmonic_weight()
        self.kernel = self.build_kernel(2.0)
        rng = rng_for(seed, 1)
        self.pj = pj_cases(rng, 20, s3) + pj_cases(rng, 20, self.curved)
        self.grid = disk_points(rng, 8, 0.6)
        self.kc_seed = subseed(seed, 2)
        self.f2_seq = bs.SequenceSet((0.3,), bs.Domain.DISK)
        self.f2_center = 0.97 * cmath.exp(0.3j)

    def round(self, rec, k):
        o = self.new_output()
        lat = rec.op("lattice", bs.generate_lattice, "hyperbolic-disk", self.SWEEP_N,
                     seed=subseed(self.seed, 20, k, 0), d=D_MESH, margin=self.SWEEP_MARGIN, work=len)
        big = rec.op("lattice", bs.generate_lattice, "hyperbolic-disk", self.GRAM_N,
                     seed=subseed(self.seed, 20, k, 1), d=D_MESH, margin=0.02, work=len)
        o["lattices"] = [(self.SWEEP_N, self.SWEEP_MARGIN, lat.array()), (self.GRAM_N, 0.02, big.array())]
        o["sweeps"] = {}
        for key, w in (("curved", self.curved), ("wrapped", self.wrapped)):
            sw = rec.op("density", bs.density_sweep, lat, w, work=n_reports)
            if sw is not None:
                o["sweeps"][key] = reports_of(sw)
        rec.op("fault", bs.density_sweep, self.f2_seq, self.curved,
               r_grid=(0.99,), centers=[self.f2_center], fault=FAULT_F2)
        for f, w, z, r in self.pj:
            res = rec.op("identity", bs.poisson_jensen_residual, f, w, z, r)
            if res is not None:
                o["pj"].append(res)
        m = rec.op("identity", bs.mean_comparison_margin, self.curved, 0.8, self.grid, work=len(self.grid))
        o["mcm"].append(m)
        o["harmonic"] = rec.op("identity", bs.mean_comparison_margin, self.harmonic, 0.8, self.grid,
                               work=len(self.grid))
        o["pj_cli"] = proc_of(rec.cli("pj-verify"))
        o["kc_cli"] = proc_of(rec.cli("kernel-check", "--seed", str(self.kc_seed)))
        g = rec.op("gram", gram_op, self.kernel, big.array())
        if g is not None:
            o["gram"].append(g)
        rng = rng_for(self.seed, 21, k)
        self.minor_potentials(rec, o, lat.array(), rng, 250, 80)
        rec.op("coverage", bs.separation_border, lat)
        self.coverage(rec, o)
        o["lat"] = lat
        return o

    def check(self, outs):
        fails = []
        for k, o in enumerate(outs):
            fails += check_common(o)
            for n, margin, pts in o["lattices"]:
                fails += checks.lattice(pts, n, D_MESH, margin, f"round {k} lattice n={n}")
            pts = o["lattices"][0][2]
            for key, rep in o["sweeps"].items():
                tag = f"round {k} sweep {key}"
                fails += checks.border_numerators(pts, rep["center"], rep["radius"], rep["numer"], tag)
                if key == "wrapped":
                    fails += checks.closed_denominators(rep["radius"], rep["denom"], 4.0, 1e-8, tag)
                else:
                    fails += checks.bracketed_denominators(rep["radius"], rep["denom"], 2.0, 4.0, tag)
            fails += checks.below([o["harmonic"]], 1e-10, f"round {k} harmonic mean comparison")
            for key, ok_line in (("pj_cli", "max_residual"), ("kc_cli", "numeric_gram_deviation")):
                fails += checks.exit_code(o[key], 0, key)
                lines = o[key]["stdout"].splitlines()
                if not lines or lines[-1] != "pass" or ok_line not in o[key]["stdout"]:
                    fails.append(f"round {k}: {key} output does not end in a pass")
                if o[key]["stdout"] != outs[0][key]["stdout"]:
                    fails.append(f"round {k}: {key} output differs from round 0")
            residuals = [float(line.rsplit("=", 1)[1]) for line in o["pj_cli"]["stdout"].splitlines()
                         if "residual=" in line]
            if len(residuals) != 20:
                fails.append(f"round {k}: pj-verify printed {len(residuals)} cases, 20 expected")
            fails += checks.below(residuals, 1e-6, "pj-verify residuals")
        o = outs[0]
        rep = o["sweeps"].get("curved")
        if rep is not None and len(rep["radius"]):
            rng = rng_for(self.seed, 3)
            for i in rng.choice(len(rep["radius"]), 3, replace=False):
                turned = rep["center"][i] * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
                den = bs.border_density_ratio(o["lat"], self.curved, turned, rep["radius"][i]).denominator
                fails += checks.close([den], [rep["denom"][i]], 1e-7, 0.0, "denominator under rotation")
            for r in (0.9, 0.99):
                sel = np.flatnonzero(rep["radius"] == r)
                i = int(sel[np.argmax(np.abs(rep["center"][sel]))])
                ref = checks.border_denominator_scipy(self.curved.lap_poincare_ratio, complex(rep["center"][i]), r)
                fails += checks.close([rep["denom"][i]], [ref], 1e-6, 0.0, f"denominator vs scipy at r = {r}")
        return fails


class Punctured(Workload):
    """Potentials at many points, puncture-side classification, fault F1."""

    name = "punctured"
    BORDER_EVALS = 1200
    PUNCTURE_EVALS = ((2.0, 800), (8.0, 400))
    LATTICES = ((1.0, 1, 30), (1.0, 2, 30), (1.0, 3, 30))
    DISK_N = 40
    GRAM_N = 100

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.kernel = self.build_kernel(2.0)
        self.pex_r8 = window(self.pex60, 8.0)
        self.f1_seq = bs.generate_lattice("puncture-exponential", 40, s=0.5, n=2)
        rng = rng_for(seed, 1)
        turn = cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        pts = pexp_points(20, 1.0, 2) * turn
        self.cli_seq = bs.SequenceSet(tuple(pts), bs.Domain.PUNCTURED_DISK, "rotated puncture-exponential")
        self.cli_file = os.path.join(tmp, "punctured.json")
        bcli.write_sequence_file(self.cli_file, self.cli_seq)

    def round(self, rec, k):
        o = self.new_output()
        rng = rng_for(self.seed, 30, k)
        turn = cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        disk = rec.op("lattice", bs.generate_lattice, "hyperbolic-disk", self.DISK_N,
                      seed=subseed(self.seed, 30, k), d=D_MESH, margin=0.05, work=len)
        big = rec.op("lattice", bs.generate_lattice, "hyperbolic-disk", self.GRAM_N,
                     seed=subseed(self.seed, 31, k), d=D_MESH, margin=0.02, work=len)
        o["lattices"] = [(self.DISK_N, 0.05, disk.array()), (self.GRAM_N, 0.02, big.array())]
        seqs = []
        for s, n, count in self.LATTICES:
            lat = rec.op("lattice", bs.generate_lattice, "puncture-exponential", count, s=s, n=n, work=len)
            pts = np.asarray(lat.points) * turn
            seqs.append(bs.SequenceSet(tuple(pts), bs.Domain.PUNCTURED_DISK, lat.label))
        border = disk.array()[np.abs(disk.array()) > 0.5]
        o["potentials"] = []
        zs = disk_points(rng, self.BORDER_EVALS, 0.9)
        sig = np.full(zs.size, np.nan)
        lam = np.full(zs.size, np.nan)
        for i, z in enumerate(zs):
            res = rec.op("potential", bs.border_potential, border, 0.9, z, rule=bs.FAST_RULE)
            if res is not None:
                sig[i], lam[i] = res
        o["potentials"].append(("border", 0.9, border, zs, sig, lam))
        for r, count in self.PUNCTURE_EVALS:
            pts = (self.pex_r2 if r == 2.0 else self.pex_r8) * turn
            zs = puncture_points(rng, count, r)
            sig = np.full(zs.size, np.nan)
            lam = np.full(zs.size, np.nan)
            for i, z in enumerate(zs):
                res = rec.op("potential", bs.puncture_potential, pts, r, z, rule=bs.FAST_RULE)
                if res is not None:
                    sig[i], lam[i] = res
            o["potentials"].append(("puncture", r, pts, zs, sig, lam))
        for p in o["potentials"]:
            o["sigma"].extend(p[4][np.isfinite(p[4])])
        o["classify"] = []
        for seq in seqs:
            v = rec.op("density", bs.classify, seq, self.wp, work=n_reports)
            if v is not None:
                o["classify"].append((seq.array(), verdict_of(v)))
        rec.op("fault", bs.classify, self.f1_seq, self.wp, fault=FAULT_F1)
        o["analyze"] = proc_of(rec.cli("analyze", self.cli_file, "--weight", "standard-puncture:s=2,t=3"))
        g = rec.op("gram", gram_op, self.kernel, big.array())
        if g is not None:
            o["gram"].append(g)
        self.minor_identities(rec, o)
        return o

    def check(self, outs):
        fails = []
        first = outs[0]["classify"]
        for k, o in enumerate(outs):
            fails += check_common(o)
            for n, margin, pts in o["lattices"]:
                fails += checks.lattice(pts, n, D_MESH, margin, f"round {k} lattice n={n}")
            for i, (pts, v) in enumerate(o["classify"]):
                rep = v["reports"]
                tag = f"round {k} classify {i}"
                punct = np.asarray([kd == "puncture" for kd in rep["kind"]], dtype=bool)
                fails += checks.puncture_numerators(pts[np.abs(pts) <= 0.5], rep["center"][punct],
                                                    rep["radius"][punct], rep["numer"][punct], tag)
                fails += checks.positive_finite(rep["denom"], tag + " denominators")
                fails += checks.verdict(v["verdict"], [v["d_b"], v["d_p"]], v["seps"], DELTA, tag)
                if i < len(first) and v["d_p"] is not None:
                    fails += checks.close([v["d_p"]], [first[i][1]["d_p"]], 1e-9, 0.0,
                                          f"{tag}: puncture density under rotation")
            if o["analyze"]["stdout"] != outs[0]["analyze"]["stdout"]:
                fails.append(f"round {k}: analyze output differs from round 0")
        o = outs[0]
        fails += check_analyze(o["analyze"], self.cli_seq, self.wp, "analyze (punctured)")
        rng = rng_for(self.seed, 4)
        for kind, r, pts, zs, sig, lam in o["potentials"]:
            pot = bs.border_potential if kind == "border" else bs.puncture_potential
            for i in rng.choice(zs.size, 4, replace=False):
                a = complex(*rng.normal(size=2))
                b = complex(*rng.normal(size=2))
                s2, _ = pot(pts, r, zs[i], harmonic=(a, b), rule=bs.FAST_RULE)
                fails += checks.close([s2], [sig[i]], 1e-9, 1e-14, f"{kind} sigma with a harmonic factor")
            for i in rng.choice(zs.size, 2, replace=False):
                if kind == "border":
                    d = checks.pseudo(zs[i], pts)
                    ref = checks.lambda_scipy(d, 0.5, r, checks.hyperbolic_density)
                else:
                    q = complex(checks.lift(zs[i]))
                    d = np.abs(checks.translates(pts, q, r + 2.0 * math.pi) - q)
                    ref = checks.lambda_scipy(d, 1.0, r, checks.euclidean_density)
                fails += checks.close([lam[i]], [ref], 1e-9, 1e-12, f"{kind} lambda vs scipy at r = {r}")
            if kind == "puncture":
                for i in rng.choice(zs.size, 3, replace=False):
                    q = complex(checks.lift(zs[i]))
                    a = bs.puncture_density_form(pts, r, q=q)
                    b = bs.puncture_density_form(pts, r, q=q + 2.0 * math.pi)
                    fails += checks.close([b], [a], 1e-12, 1e-12, "puncture density form at q and q + 2 pi")
        return fails


WORKLOADS = {w.name: w for w in (LatticeGram, CurvedSweep, Punctured)}
