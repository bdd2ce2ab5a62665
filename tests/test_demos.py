"""Every demo script runs to completion and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. The demos print deterministic text and
# no timings, so a change to the library or a demo that moves any
# printed number shows here.
STDOUT_DIGESTS = {
    "barrier_runaway": "a528be1e6ee9aab6efd8f708c33a10615bff0ce142902d9ebdb02fce5bbb0810",
    "double_well_switch": "b9870e520aca12cf910182c6dc28f5991d06ef40157ad2b5ed98f59a6dbb1753",
    "filter_likelihood": "274408d4c2cd2be03857371628fb40d2943a05779f397c6d3956462134ee956b",
    "open_loop_paths": "66b5b87a5e6285ec3fc4c9a610c3203a39054e4fae50764c16c5d83047b12767",
    "penalty_tracking": "d6323c98850a5f12da33dfa6916d6b23447615a3a23455e49311adc3d9272ae7",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A demo still calling a moved or removed function fails here rather
    # than in a user's hands; the demos run in a scratch directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_DIGESTS[demo.stem], done.stdout.decode()
