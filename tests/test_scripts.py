"""Smoke runs of the example scripts: they still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, headings",
    [
        (
            "knockout_demo.py",
            ("--actors", 6, "--events", 40, "--replicates", 3),
            ["simulated 40 events over 6 actors", "AICc", "mean Theil", "all_removed"],
        ),
        (
            "recovery_experiment.py",
            ("--actors", 5, "--events", 60, "--replicates", 2),
            ["95% interval coverage:", "PSAB-BA", "RRecSnd", "ICR"],
        ),
    ],
    ids=["knockout_demo", "recovery_experiment"],
)
def test_script_runs(name, args, headings):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    for heading in headings:
        assert heading in result.stdout
