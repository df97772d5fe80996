"""Every demo script runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinrep

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(twinrep.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
