"""Timing and accounting of benchmark operations.

Every library call the benchmark times goes through `Recorder.op` (or
`Recorder.cli` for a subcommand run as a subprocess).  An operation is
attempted once; it fails when it raises a `BergseqError`.  Work and time
are accumulated per round and per kind; the time of a failed operation,
and of the operations that reproduce a known fault, enters no rate.

Each time is also scaled to a reference machine speed.  The machine is
shared, and the speed it gives this process drifts by tens of percent
over seconds to minutes.  So between operations, at most
PROBE_INTERVAL_S apart and never inside one, the recorder times a fixed
reference kernel: a Python loop of small complex numpy operations and a
small eigvalsh, the same kind of work as bergseq's.  Every time measured
in a round is multiplied by NOMINAL_S over the median kernel time of
that round.  The kernel runs in this process, on the CPU and caches the
operations use, which tracks their speed more closely than a helper
process does.  The cost of that choice: work that the program did on
other threads between calls would slow the kernel too, and so would be
scaled away.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from bergseq.errors import BergseqError, QuadratureNotConverged

CLI_TIMEOUT_S = 120
PROBE_INTERVAL_S = 0.2
# Typical kernel time on the reference machine (2 CPUs, Python 3.11.7,
# numpy 2.4.6); it only sets the scale of the reported figures.
NOMINAL_S = 0.006

_Z = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 16))
_A = np.outer(np.arange(60.0), np.arange(60.0)) % 7.0


def reference_kernel():
    acc = 0.0
    for _ in range(600):
        w = (_Z - 0.3j) / (1.0 - np.conjugate(_Z) * 0.3j)
        acc += float(np.min(np.abs(w)))
    np.linalg.eigvalsh(_A + _A.T)
    return acc


class SpeedProbe:
    """Timings of the reference kernel, taken in this process."""

    def __init__(self):
        reference_kernel()
        self.times = []
        self.values = []

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        self.times.append(t0)
        self.values.append(time.perf_counter() - t0)
        return self.values[-1]

    def tick(self):
        if not self.times or time.perf_counter() - self.times[-1] > PROBE_INTERVAL_S:
            self.sample()

    def scale(self, t0=-math.inf, t1=math.inf):
        """Factor from seconds measured in [t0, t1] to seconds at the nominal speed."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if lo == hi:
            lo, hi = max(lo - 1, 0), max(lo, 1)
        return NOMINAL_S / statistics.median(self.values[lo:hi])


class Recorder:
    def __init__(self, root, probe, tracer=None):
        self.root = root
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # messages for failures that are no known fault
        self.rounds = []          # per round: (kind, work, seconds) of each success
        self.round_s = []         # wall time of each round
        self.round_scale = []     # speed scale of each round
        self._cur = None
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def begin_round(self):
        self._cur = []
        self.rounds.append(self._cur)
        self._t_round = time.perf_counter()

    def end_round(self):
        t1 = time.perf_counter()
        self.probe.tick()
        self.round_s.append(t1 - self._t_round)
        self.round_scale.append(self.probe.scale(self._t_round, t1))

    def op(self, kind, fn, *args, work=1, fault=None, **kwargs):
        """Time one call; `work` is a number or a function of the result.

        `fault` names a known program fault that this operation
        reproduces; such an operation is expected to fail, and its time
        is never part of a rate.
        """
        self.probe.tick()
        self.attempted += 1
        span = self.tracer.open_span(f"bench.{kind}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BergseqError as exc:
            self.failed += 1
            if fault is None or not isinstance(exc, QuadratureNotConverged):
                self.unexpected.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                self.tracer.close_span(span)
        if fault is None:
            self._cur.append((kind, work(out) if callable(work) else work, dt))
        return out

    def cli(self, *argv):
        """Run one `bergseq` subcommand in a fresh interpreter."""
        self.probe.tick()
        self.attempted += 1
        span = self.tracer.open_span("bench.cli") if self.tracer else None
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bergseq.cli", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                self.tracer.close_span(span)
        self._cur.append(("cli", 1, dt))
        return proc

    def round_rates(self, kind, skip, scaled=True):
        """Work per second of `kind` in each round after the first `skip`."""
        rates = []
        for ops, scale in zip(self.rounds[skip:], self.round_scale[skip:]):
            work = sum(w for k, w, dt in ops if k == kind)
            secs = sum(dt for k, w, dt in ops if k == kind) * (scale if scaled else 1.0)
            if work > 0 and secs > 0:
                rates.append(work / secs)
        return rates

    def op_seconds(self, kind, skip, scaled=True):
        """Seconds of each `kind` operation in the rounds after the first `skip`."""
        return [dt * (scale if scaled else 1.0)
                for ops, scale in zip(self.rounds[skip:], self.round_scale[skip:])
                for k, w, dt in ops if k == kind]
