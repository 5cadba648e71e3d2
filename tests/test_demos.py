"""Every script under demos/ runs to completion from a clean directory, with
warnings as errors and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([str(REPO_ROOT / "src")] + ([inherited] if inherited else []))
    proc = subprocess.run(
        # a subprocess escapes pytest's filterwarnings, so -W error it here
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list(tmp_path.iterdir()) == []
