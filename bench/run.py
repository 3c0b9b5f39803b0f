"""bergseq benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bergseq checkout; the library is imported from
./src.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Other
modes: --checks-only (one untimed round, then the output checks) and
--self-test (the checkers against perturbed values).  See README.md.
"""

import os
import sys

# One BLAS thread: with the default two-thread pool the 200 x 200 eigvalsh
# of the Gram constant ranges from 6 ms to 0.5 s on a 2-CPU machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

T_START = time.perf_counter()

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import tempfile

MIN_ROUNDS = 3
WARM_ROUNDS = 1          # the first round fills caches; rates use the rounds after it
SETUP_PROBES = 4
SETUP_SAMPLES = 5
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 60
OUT_DIR = ".bench_out"

RATES = {
    "lattice": ("lattice_points_per_s", "points/s"),
    "density": ("density_reports_per_s", "reports/s"),
    "gram": ("gram_spectra_per_s", "spectra/s"),
    "identity": ("identity_checks_per_s", "checks/s"),
    "potential": ("potential_evals_per_s", "evals/s"),
}
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import bergseq; print(time.perf_counter() - t)"


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def import_library(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bergseq", "__init__.py")):
        raise RuntimeError(f"no bergseq sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import bergseq

    if os.path.dirname(os.path.dirname(os.path.abspath(bergseq.__file__))) != os.path.abspath(src):
        raise RuntimeError(f"bergseq was imported from {bergseq.__file__}, not from {src}")
    return bergseq


def setup(name, seed, tmp):
    """Everything between a fresh interpreter and the first timed call."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, tmp)
    workloads.warm_up()
    return wl


def median_rate(rec, kind, scaled=True):
    rates = rec.round_rates(kind, WARM_ROUNDS, scaled)
    if not rates:
        raise RuntimeError(f"no successful {kind} operation to rate")
    return statistics.median(rates)


def run_rounds(wl, rec, seconds, outs, tracer=None, plain=None):
    """Whole rounds until the next one would pass `seconds`.

    With a tracer, each round runs twice: untraced into `plain`, then
    traced into `rec`; their time ratio is the tracing overhead.
    """
    t0 = time.perf_counter()
    k = 0
    while True:
        if tracer is not None:
            plain.begin_round()
            outs.append(wl.round(plain, k))
            plain.end_round()
            tracer.install()
        rec.begin_round()
        try:
            outs.append(wl.round(rec, k))
        finally:
            rec.end_round()
            if tracer is not None:
                tracer.uninstall()
        k += 1
        elapsed = time.perf_counter() - t0
        per_round = elapsed / k
        if k >= MIN_ROUNDS and elapsed + per_round > seconds:
            return k


def probe(argv, root, env):
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} failed: {out.stderr.strip()[-300:]}")
    return float(out.stdout.strip().splitlines()[-1])


def setup_probes(args, root, env):
    """Scaled set-up times of fresh interpreters."""
    me = os.path.abspath(__file__)
    argv = [sys.executable, me, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    return [probe(argv, root, env) for _ in range(SETUP_PROBES)]


def scaled_setup(setup_s, speed):
    """Set-up time at the nominal speed, from probe samples taken right after it."""
    t0 = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    return setup_s * speed.scale(t0)


def run_checks(wl, outs):
    import checks

    fails = wl.check(outs)
    for name, accepts, rejects in checks.self_test():
        if not (accepts and rejects):
            fails.append(f"self-test: checker {name!r} accepts={accepts} rejects={rejects}")
    return fails


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checks-only", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        end_units, layer_units = load_spec(root)
        import_library(root)
    except (OSError, RuntimeError, KeyError, ValueError) as exc:
        return fail(str(exc))

    import checks
    import ops
    import workloads

    if args.self_test:
        bad = 0
        for name, accepts, rejects in checks.self_test():
            bad += not (accepts and rejects)
            print(f"{name:24s} accepts true value: {accepts}  rejects perturbed: {rejects}")
        return 1 if bad else 0
    if args.workload not in workloads.WORKLOADS:
        return fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    seed = args.seed % 2**63
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        wl = setup(args.workload, seed, tmp)
        setup_s = time.perf_counter() - T_START
        speed = ops.SpeedProbe()
        setup_s = scaled_setup(setup_s, speed)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return measure(args, root, wl, setup_s, speed, end_units, layer_units, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, root, wl, setup_s, speed, end_units, layer_units, out_dir):
    import ops

    outs = []
    if args.checks_only:
        rec = ops.Recorder(root, speed)
        rec.begin_round()
        outs.append(wl.round(rec, 0))
        rec.end_round()
        fails = run_checks(wl, outs)
        for msg in fails + rec.unexpected:
            print(msg)
        print(f"{args.workload}: {rec.attempted} operations, {rec.failed} failed, "
              f"{len(fails)} check failures")
        return 1 if fails else 0

    if args.trace:
        import tracing

        mods = {m: sys.modules[f"bergseq.{m}"] for m in tracing.MODULES}
        tracer = tracing.Tracer(sys.modules["bergseq"], mods)
        plain = ops.Recorder(root, speed)
        rec = ops.Recorder(root, speed, tracer)
        rounds = run_rounds(wl, rec, args.seconds, outs, tracer, plain)
    else:
        rec = ops.Recorder(root, speed)
        rounds = run_rounds(wl, rec, args.seconds, outs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        imports = [probe([sys.executable, "-c", IMPORT_SNIPPET], root, rec.env) for _ in range(IMPORT_PROBES)]
        import_s = statistics.median(imports)
        layer = tracing.layer_metrics(tracer, rounds)
        overhead = statistics.median(t / p for t, p in zip(rec.round_s, plain.round_s))
        layer["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
        layer["kernels.build_s"] = (wl.build_s, "s")
        layer["cli.import_s"] = (import_s, "s")
        cli_raw = statistics.median(rec.op_seconds("cli", 0, scaled=False))
        layer["cli.command_self_s"] = (cli_raw - import_s, "s")
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
        values, units = layer, layer_units
        attempted = rec.attempted + plain.attempted
        failed = rec.failed + plain.failed
        unexpected = rec.unexpected + plain.unexpected
    else:
        setups = [setup_s] + setup_probes(args, root, rec.env)
        values = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        unscaled = {}
        for kind, (name, unit) in RATES.items():
            values[name] = (median_rate(rec, kind), unit)
            unscaled[name] = median_rate(rec, kind, scaled=False)
        values["cli_command_s"] = (statistics.median(rec.op_seconds("cli", WARM_ROUNDS)), "s")
        unscaled["cli_command_s"] = statistics.median(rec.op_seconds("cli", WARM_ROUNDS, scaled=False))
        unscaled["speed_probe_s"] = statistics.median(speed.values)
        print(f"bench: unscaled {json.dumps(unscaled, sort_keys=True)}", file=sys.stderr)
        units = end_units
        attempted, failed, unexpected = rec.attempted, rec.failed, rec.unexpected

    fails = run_checks(wl, outs)
    for msg in fails[:20] + unexpected[:20]:
        print(f"bench: {msg}", file=sys.stderr)
    if set(values) != set(units) or any(units[k] != u for k, (_, u) in values.items()):
        return fail(f"metrics {sorted(values)} do not match BENCHMARK.json")
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed, {len(fails)} check failures", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
