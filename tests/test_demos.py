"""Every script in demos/ runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conetri

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# Arguments that keep a demo to a few seconds; the rest run on defaults.
DEMO_ARGS = {"random_campaign.py": ["--count", "1"]}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    src = Path(conetri.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, str(DEMOS / name), *DEMO_ARGS.get(name, [])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
