"""Every narrative demo runs to completion and prints the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; demo 06's up to the line that names its
# temporary directory, whose path differs from run to run
STDOUT_SHA256 = {
    "01_second_order_basics": "6ab206529a5205e7e06b1d696817db13b77ee4ec68bc31d92ecf5b3f57973568",
    "02_timing_inverse_interpolation":
        "50ed1e663a890c33c4220ff7387e66eb3be6114dfd2cababdb5e00efd9d6565c",
    "03_wd_sweep_and_families": "4a1841e6720d9a6038c72892005084ade7aa992ffe6f30b629bf703e6afdb944",
    "04_restriction_modes": "946f60a9a2954291c2929eb1a1265112ac57798bab669c410d38482cc4d8cc16",
    "05_envelope_rational_fit": "336af8a90b4111e94f9430e7e6d1649ea0d5a805427902285afbd16ebca43640",
    "06_full_pipeline": "872889d291e24d9eac22f955580cedc374ea6f00354eabff91d1da39540243e2",
}


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demo 06 writes its outputs into a temporary directory it must remove
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("trackbounds_demo_*")) == []
    stdout = proc.stdout.partition("\nartifacts written to ")[0]
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
