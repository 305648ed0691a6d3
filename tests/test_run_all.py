"""Argument checks of the kernel benchmark harness (``benchmarks/run_all.py``).

Quick-mode numbers are too noisy to compare against, so quick mode may
write neither the committed trajectory nor the baseline: it needs an
explicit ``--output`` and refuses ``--write-baseline``.  Both refusals
happen at argument parsing, before any workload runs.
"""

import pathlib
import shutil
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_ALL = REPO_ROOT / "benchmarks" / "run_all.py"


def run_harness(*args):
    return subprocess.run([sys.executable, str(RUN_ALL), *args],
                          capture_output=True, text=True, timeout=300)


def test_quick_without_output_keeps_committed_trajectory():
    trajectory = REPO_ROOT / "BENCH_kernel.json"
    before = trajectory.read_bytes()
    proc = run_harness("--quick")
    assert proc.returncode == 2
    assert "--quick needs an explicit --output" in proc.stderr
    assert trajectory.read_bytes() == before


def test_quick_write_baseline_rejected(tmp_path):
    baseline = tmp_path / "baseline.json"
    shutil.copy(REPO_ROOT / "benchmarks" / "baseline.json", baseline)
    before = baseline.read_bytes()
    output = tmp_path / "quick.json"
    proc = run_harness("--quick", "--write-baseline",
                       "--output", str(output),
                       "--baseline", str(baseline))
    assert proc.returncode == 2
    assert "--write-baseline needs a full run" in proc.stderr
    assert not output.exists()
    assert baseline.read_bytes() == before
