"""Every shipped spec stays valid under the current rules.

Each spec under ``recipes/`` and ``perfbench/specs/`` is parsed, its first
problem instance built, every policy resolved into a run config, and every
sweep grid expanded.  No episode is played, so a tightened validation rule
that would reject a shipped spec fails here in well under a second.
"""

import math
from pathlib import Path

import pytest

from riskbandit.cli import _run_configs
from riskbandit.config import build_problem, load_experiment_spec
from riskbandit.harness import expand_grid

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "recipes").glob("*.yaml")) + sorted(
    (ROOT / "perfbench" / "specs").glob("*.yaml")
)


def test_specs_found():
    assert len(SPECS) >= 7


@pytest.mark.parametrize("path", SPECS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_spec_resolves(path):
    spec = load_experiment_spec(path)
    problem = build_problem(spec.problem, spec.seed, 0)
    configs = _run_configs(spec, problem, 0)
    assert len(configs) == len(spec.policies)
    for entry, base in zip(spec.policies, configs):
        grid = entry.sweep or {}
        assert len(expand_grid(base, grid)) == math.prod(len(v) for v in grid.values())
