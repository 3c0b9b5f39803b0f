"""The benchmark's own checks, run as tests from the root of the checkout.

`bench/run.py --self-test` feeds each output checker a true and a
perturbed value; `--checks-only` runs one untimed round of a workload and
checks its outputs.  A library change that breaks what the benchmark
asserts fails here, before any timed run.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_bench_self_test_passes():
    out = _run("--self-test")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "rejects perturbed: False" not in out.stdout and "accepts true value: False" not in out.stdout


@pytest.mark.parametrize("workload", ["lattice-gram", "curved-sweep", "punctured"])
def test_bench_checks_pass(workload):
    out = _run("--workload", workload, "--checks-only", "--seed", "5")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().endswith("0 check failures"), out.stdout
