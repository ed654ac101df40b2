"""Every demo runs to completion."""

import glob
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    # a copy, so files the demo writes next to itself land in tmp_path
    script = tmp_path / demo
    shutil.copy(os.path.join(ROOT, "demos", demo), script)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
