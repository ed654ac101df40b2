"""The demos that drive the training and fine-tuning APIs run to completion."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["05_pretrain_tiny.py", "06_transfer_and_metrics.py"])
def test_demo_runs(tmp_path, demo):
    # a copy, so files the demo writes next to itself land in tmp_path
    script = tmp_path / demo
    shutil.copy(os.path.join(ROOT, "demos", demo), script)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
