"""Every script under ``examples/`` runs, as a user would run it.

Each is a subprocess from the repository root with ``src`` on the path;
it must exit 0 and print the line that shows it did its job.  The
telemetry example is also the one caller of
``ExperimentConfig.telemetry_interval_ns``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

EXPECTED = {
    "custom_topology.py": "completed 6/6 senders; per-flow FCTs:",
    "ordering_shim_demo.py": "  in-order except the timed-out gap: True",
    "telemetry_monitoring.py":
        "classified intervals: 20 microburst, 0 persistent congestion",
}


def test_every_example_is_run_here():
    assert sorted(path.name for path in (ROOT / "examples").glob("*.py")) \
        == sorted(EXPECTED)


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs_and_prints_its_result(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert EXPECTED[script] in done.stdout.splitlines()
