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

# (name, args) runs: every demo on its DEMO_ARGS, plus the unimodular bases
# (mu = 1) on which two demos once formatted final_bound_cor, which is None.
RUNS = [
    pytest.param(name, DEMO_ARGS.get(name, []), id=name)
    for name in sorted(p.name for p in DEMOS.glob("*.py"))
] + [
    pytest.param("certificate_tour.py", ["--seed", "154"], id="certificate_tour.py-seed-154"),
    pytest.param("staircase_walkthrough.py", ["-n", "1"], id="staircase_walkthrough.py-n-1"),
]


# (name, args) runs with an argument the demo must refuse.
BAD_RUNS = [
    pytest.param("staircase_walkthrough.py", ["-n", "0"], id="staircase_walkthrough.py-n-0"),
    pytest.param("bounds_landscape.py", ["--dim", "1"], id="bounds_landscape.py-dim-1"),
    # d**2 overflows a float; at 10**154 the bound for mu 3 does.
    pytest.param("bounds_landscape.py", ["--dim", str(10**155)], id="bounds_landscape.py-dim-1e155"),
    pytest.param("bounds_landscape.py", ["--dim", str(10**154)], id="bounds_landscape.py-dim-1e154"),
    pytest.param("random_campaign.py", ["--count", "0"], id="random_campaign.py-count-0"),
    pytest.param("random_campaign.py", ["--bound", "0"], id="random_campaign.py-bound-0"),
]


def run_demo(name, args):
    src = Path(conetri.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, str(DEMOS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name, args", RUNS)
def test_demo_runs(name, args):
    out = run_demo(name, args)
    assert out.returncode == 0, out.stderr
    assert out.stdout


@pytest.mark.parametrize("name, args", BAD_RUNS)
def test_demo_rejects_bad_arguments(name, args):
    # argparse's error: exit 2 with a usage line, not a traceback.
    out = run_demo(name, args)
    assert out.returncode == 2, out.stderr
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr
