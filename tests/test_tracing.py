"""Smoke test of the benchmark's span tracer against the current package.

``perfbench/tracing.py`` wraps package functions by name from outside
(``harness.run_many``, ``harness._play``, ``harness.run_episode``,
``harness.draw_reward_table``, ``cli.sweep`` and the ``kernels.episode_*``),
so renaming one makes ``perfbench/run.py --trace 1`` fail.  This runs the
tracer on a tiny ``sweep`` and ``run`` spec, exactly as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SPEC_TEXT = """\
seed: 3
horizon: 40
runs: 2
problem: {generator: mixture, k: 4}
policies:
  - policy: marab
    sweep:
      alpha: [0.05, 0.5]
  - {policy: min}
  - {policy: ucb, c: 0.5}
"""


@pytest.mark.parametrize("command", ["sweep", "run"])
def test_tracer_runs_command(tmp_path, command):
    spec = tmp_path / "spec.yaml"
    spec.write_text(SPEC_TEXT)
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "perfbench/tracing.py", "--spans", str(spans), "--", command]
    argv += ["--spec", str(spec), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
    assert {"harness.play", "kernels.marab", "harness.draw"} <= names
    assert ("harness.sweep" if command == "sweep" else "harness.run_many") in names
