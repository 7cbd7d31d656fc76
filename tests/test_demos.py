"""Every demo script runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import busloss

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The demos import the same busloss package that the tests import.
PACKAGE_ROOT = str(Path(busloss.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_demos_found():
    assert DEMOS
