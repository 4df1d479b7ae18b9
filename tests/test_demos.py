"""Every demo script runs to completion against the package in ``src/``.

The demos call ``make_teacher``, the graph API and the driver the way a
reader would, so a change to any of them that breaks a demo fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=path),
                           cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
