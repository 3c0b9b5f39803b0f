"""Command-line front end.

Subcommands: analyze, sweep, gram, pj-verify, kernel-check, gen.
Sequence files are JSON objects {"domain", "points", "label"} with
points as [re, im] pairs.  All output is deterministic byte-for-byte for
a fixed config and seed: floats are written with repr precision and no
run metadata (timestamps, hostnames) is ever emitted.

Exit codes: 0 success, 1 error, 2 Indeterminate (analyze only).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import BergseqError, DomainViolation
from .geometry import Domain
from .kernels import (
    gram_assemble,
    interpolation_constant_estimate,
    kernel_diag_check,
    numeric_gram_kernel,
    standard_kernel,
)
from .sequences import (
    ClassifyParams,
    SequenceSet,
    classify,
    density_sweep,
    generate_lattice,
)
from .verify import BlaschkeSpec, poisson_jensen_residual
from .weights import standard_disk, standard_puncture

SWEEP_HEADER = "center_re,center_im,r,kind,numerator,denominator,ratio"


def parse_weight(spec):
    """Parse 'standard-disk:s=2' or 'standard-puncture:s=2,t=2'.

    Omitted parameters default to 2; an unknown or repeated parameter is
    an error.
    """
    family, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"malformed weight parameter {item!r}")
            if key in params:
                raise ValueError(f"weight parameter {key!r} given twice")
            params[key] = float(val)
    if family == "standard-disk":
        make, keys = standard_disk, ("s",)
    elif family == "standard-puncture":
        make, keys = standard_puncture, ("s", "t")
    else:
        raise ValueError(f"unknown weight family {family!r}")
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"unknown {family} weight parameter(s) {', '.join(unknown)}")
    return make(*(params.get(k, 2.0) for k in keys))


def parse_sequence_file(path) -> SequenceSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DomainViolation(f"sequence file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DomainViolation(f"malformed sequence file {path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise DomainViolation(f"sequence file {path}: top level must be an object")
    for field in ("domain", "points"):
        if field not in doc:
            raise DomainViolation(f"sequence file {path}: missing field {field!r}")
    try:
        domain = Domain(doc["domain"])
    except ValueError:
        raise DomainViolation(f"sequence file {path}: unknown domain {doc['domain']!r}")
    if not isinstance(doc["points"], list):
        raise DomainViolation(f"sequence file {path}: points must be a list of [re, im] pairs")
    pts = []
    for i, pair in enumerate(doc["points"]):
        # json reads a number as an int or a float; a bool, a string or null is not a coordinate
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)):
            raise DomainViolation(f"sequence file {path}: points[{i}] = {pair!r} is not a [re, im] pair of numbers")
        try:
            pts.append(complex(float(pair[0]), float(pair[1])))
        except OverflowError:
            raise DomainViolation(f"sequence file {path}: points[{i}] has a coordinate too large for a float")
    return SequenceSet(tuple(pts), domain, str(doc.get("label", "")))


def write_sequence_file(path, seq: SequenceSet):
    doc = {
        "domain": seq.domain.value,
        "points": [[p.real, p.imag] for p in seq.points],
        "label": seq.label,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    _emit(path, text + "\n")


def _emit(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x):
    return repr(float(x))  # "inf" for an infinite value


def _parse_grid(text):
    """The --r-grid value; empty means each side's built-in grid."""
    return tuple(float(v) for v in text.split(",")) if text else None


def cmd_analyze(args):
    seq = parse_sequence_file(args.sequence)
    weight = parse_weight(args.weight)
    verdict = classify(seq, weight, ClassifyParams(r_grid=_parse_grid(args.r_grid), delta=args.delta,
                                                   split_a=args.split_a))
    lines = [
        f"verdict: {verdict.verdict}",
        f"separation_border: {_fmt(verdict.separation_border)}",
    ]
    for key in ("separation_puncture", "density_border", "density_puncture"):
        if getattr(verdict, key) is not None:
            lines.append(f"{key}: {_fmt(getattr(verdict, key))}")
    for reason in verdict.reasons:
        lines.append(f"reason: {reason}")
    if verdict.sweep is not None:
        lines += [f"note: {note}" for note in verdict.sweep.notes]
    _emit(args.out, "\n".join(lines) + "\n")
    return 2 if verdict.verdict == "Indeterminate" else 0


def cmd_sweep(args):
    seq = parse_sequence_file(args.sequence)
    weight = parse_weight(args.weight)
    result = density_sweep(seq, weight, r_grid=_parse_grid(args.r_grid), split_a=args.split_a)
    rows = [SWEEP_HEADER]
    # straight from the sweep's columns, with no DensityReport built
    for center, radius, numerator, denominator, ratio, kind, _ in result._rows():
        rows.append(",".join([_fmt(center.real), _fmt(center.imag), _fmt(radius), kind, _fmt(numerator),
                              _fmt(denominator), _fmt(ratio)]))
    _emit(args.out, "\n".join(rows) + "\n")
    for note in result.notes:  # stderr, so the CSV stays a plain table
        print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_gram(args):
    seq = parse_sequence_file(args.sequence)
    if seq.domain is not Domain.DISK:
        raise DomainViolation("gram requires a disk sequence")
    if len(seq) == 0:
        raise DomainViolation("gram requires a nonempty sequence")
    weight = parse_weight(args.weight)
    if weight.family != "standard-disk":
        raise DomainViolation("gram requires a standard-disk weight")
    kernel = standard_kernel(weight.params["s"])
    gram = gram_assemble(kernel, seq.array())
    eig = np.linalg.eigvalsh(gram.normalized)
    const = interpolation_constant_estimate(gram)
    lines = ["spectrum:"]
    lines += [f"  {_fmt(v)}" for v in eig]
    lines.append(f"condition: {_fmt(eig[-1] / eig[0]) if eig[0] > 0 else 'inf'}")
    lines.append(f"interpolation_constant: {_fmt(const)}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _pj_suite():
    cases = []
    zero_pool = [0.2, -0.4j, 0.5 + 0.3j, -0.6, 0.1 - 0.2j]
    for s in (2.0, 3.0):
        for n_zeros in range(5):
            for r in (0.5, 0.8):
                z = 0.1 + 0.05j * n_zeros
                cases.append((tuple(zero_pool[:n_zeros]), s, z, r))
    return cases


def cmd_pj_verify(args):
    lines = []
    worst = 0.0
    for zeros, s, z, r in _pj_suite():
        res = poisson_jensen_residual(BlaschkeSpec(zeros), standard_disk(s), z, r)
        worst = max(worst, res)
        lines.append(f"zeros={len(zeros)} s={_fmt(s)} r={_fmt(r)} residual={res:.3e}")
    ok = worst < 1e-6
    lines.append(f"max_residual: {worst:.3e}")
    lines.append("pass" if ok else "fail")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_kernel_check(args):
    rng = np.random.default_rng(args.seed)
    rho = 0.95 * np.sqrt(rng.random(200))
    grid = rho * np.exp(2j * np.pi * rng.random(200))
    lines = []
    ok = True
    for s in (2.0, 3.0):
        closed = standard_kernel(s)
        diag = kernel_diag_check(closed, grid)
        dev = float(np.max(diag) / np.min(diag) - 1.0)
        lines.append(f"s={_fmt(s)} diag_max_over_min_minus_1={dev:.3e}")
        ok = ok and dev < 1e-6
        numeric = numeric_gram_kernel(s)
        kc = closed.evaluate(grid, grid)
        kn = numeric.evaluate(grid, grid)
        rel = float(np.max(np.abs(kn - kc) / np.abs(kc)))
        lines.append(f"s={_fmt(s)} numeric_gram_deviation={rel:.3e}")
        ok = ok and rel < 1e-4
    lines.append("pass" if ok else "fail")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_gen(args):
    if args.kind == "hyperbolic-disk":
        kw = {"d": args.mesh}
    else:
        kw = {"s": args.step, "n": args.rays}
    write_sequence_file(args.out, generate_lattice(args.kind, args.count, seed=args.seed, **kw))
    return 0


# Flags shared between subcommands.  These, and only these, may also be
# given as key=value lines of a --config file.
_FLAGS = {
    "weight": {"default": "standard-disk:s=2"},
    "r_grid": {"default": ""},
    "delta": {"type": float, "default": 0.05},
    "split_a": {"type": float, "default": 0.5},
    "seed": {"type": int, "default": 0},
    "out": {"default": ""},
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that main reports them with exit code 1
    (2 is the Indeterminate verdict); subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="bergseq",
        description="Interpolation-sequence analysis in weighted Bergman spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help, flags, needs_sequence=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, subparser=p)
        if needs_sequence:
            p.add_argument("sequence", help="sequence file (JSON)")
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in flags + ("out",):
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        return p

    add("analyze", cmd_analyze, "classify a sequence",
        ("weight", "r_grid", "delta", "split_a"))
    add("sweep", cmd_sweep, "per-(center, r) density table",
        ("weight", "r_grid", "split_a"))
    add("gram", cmd_gram, "Gram spectrum and interpolation constant", ("weight",))
    add("pj-verify", cmd_pj_verify, "run the identity suite", (), needs_sequence=False)
    add("kernel-check", cmd_kernel_check, "kernel diagonal checks", ("seed",), needs_sequence=False)
    gen = add("gen", cmd_gen, "write a deterministic test sequence", ("seed",), needs_sequence=False)
    gen.add_argument("--kind", required=True,
                     choices=["hyperbolic-disk", "puncture-exponential"])
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--mesh", type=float, default=0.5)
    gen.add_argument("--step", type=float, default=1.0)
    gen.add_argument("--rays", type=int, default=1)
    return parser


def _load_config(path, allowed):
    """key=value lines as string defaults; every key must be in `allowed`."""
    defaults = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in allowed:
                raise DomainViolation(f"config {path}: bad line {lineno}: {raw.rstrip()}")
            defaults[key] = val.strip()
    return defaults


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's values become the subcommand's defaults and the
            # command line is parsed again, so explicit flags always win and
            # each value goes through its flag's own type
            config = _load_config(args.config, set(_FLAGS) & set(vars(args)))
            args.subparser.set_defaults(**config)
            args = parser.parse_args(argv)
        return args.run(args)
    except (BergseqError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
