"""The benchmark's self-test runs against the package and catches every perturbed output.

bench/selftest.py reads runs through the same readers as the benchmark
(ScenarioResult.records, the CLI's CSV and JSON files), so a change to a
run's columns that breaks those readers fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, (done.stdout + done.stderr)[-3000:]
