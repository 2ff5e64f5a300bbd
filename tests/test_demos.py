"""Every narrative demo runs to completion against the package in src/
and leaves nothing behind in its temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # A demo cleans up every temporary file and directory it creates.
    assert sorted(p.name for p in tmpdir.iterdir()) == []
