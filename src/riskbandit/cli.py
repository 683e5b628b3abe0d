"""Command-line front end.

Four subcommands:

* ``run``   -- execute an experiment spec: every (policy, instance, run)
  cell, then per policy a regret-curve file, a sorted-reward file, and a
  sorted-final-regret file, plus ``summary.json``.
* ``sweep`` -- expand each policy's sweep grid against the first problem
  instance; one output row per grid cell, plus ``sweep_summary.json``.
* ``bound`` -- evaluate the closed-form regret bounds from a JSON inputs
  document and print JSON.
* ``check-lemma`` -- Monte Carlo check of the minimum tail inequality for
  uniform-segment arms; prints JSON with a pass flag.

Exit codes: 0 success, 1 validation failure (bad flags, bad spec, bad
inputs), 2 runtime failure.  Outputs are deterministic: re-running a command
with the same spec rewrites byte-identical files, except the ``timing``
field of the summaries.  Every artifact embeds the resolved config and the
master seed.  CSV files start with ``# riskbandit-csv 1`` comment lines; the
JSON output format (``--format json``) carries the same rows.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentSpec,
    build_problem,
    entry_error,
    load_experiment_spec,
    resolve_policy,
    resolved_config_dict,
    sanitize_label,
)
from .exceptions import ConfigError, DegenerateMixtureError
from .generators import BanditProblem
from .harness import (
    RegretTotals,
    RunConfig,
    aggregate_regret,
    call_lanes,
    draw_tables,
    expand_grid,
    run_many,
    run_plan,
    sorted_final_regret,
    sorted_reward_cdf,
    sweep,
)
from .rng import EPISODE_DOMAIN, derive_seed, validate_seed
from .theory import (
    BoundInputs,
    check_tail_args,
    min_regret_bound,
    min_regret_bound_aligned,
    min_tail_check,
    min_tail_check_any,
    ucb_regret_bound,
)
from .distributions import UniformSegment

CSV_SCHEMA = "riskbandit-csv 1"
JSON_SCHEMA = "riskbandit-json 1"
# what wrote the tables, recorded in every summary
VERSIONS = {"riskbandit": __version__, "python": sys.version.split()[0], "numpy": np.__version__}


# ---------------------------------------------------------------------------
# output helpers


def _write_table(out_dir: Path, stem: str, fmt: str, header: list[str], rows, meta: dict) -> Path:
    """Write one table as CSV (comment preamble + header + rows) or JSON."""
    rows = [list(r) for r in rows]
    if fmt == "csv":
        path = out_dir / f"{stem}.csv"
        lines = [f"# {CSV_SCHEMA}"]
        for key, value in meta.items():
            lines.append(f"# {key}={value}")
        lines.append(",".join(header))
        # every cell is a Python int or float, and str of a float is its repr
        for row in rows:
            lines.append(",".join(map(str, row)))
        path.write_text("\n".join(lines) + "\n")
    else:
        path = out_dir / f"{stem}.json"
        doc = {"schema": JSON_SCHEMA, **meta, "columns": header, "rows": rows}
        path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return path


def _meta(spec: ExperimentSpec) -> dict:
    config = resolved_config_dict(spec)
    # the output directory is an execution detail; embedding it would break
    # the byte-identity of reruns into a different directory
    del config["out"]
    return {"seed": spec.seed, "config": json.dumps(config, sort_keys=True, separators=(",", ":"))}


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if args.seed is not None:
        try:
            spec.seed = validate_seed(args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    if args.out is not None:
        if not args.out:
            raise ConfigError("--out: expected a non-empty string")
        spec.out = args.out
    if args.format is not None:
        spec.format = args.format
    return spec


def _write_summary(out_dir: Path, name: str, payload: dict) -> None:
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


@dataclass
class _Experiment:
    """What ``run`` and ``sweep`` share: the spec, its output directory, the
    metadata every table embeds, and the start of the wall clock."""

    spec: ExperimentSpec
    out_dir: Path
    meta: dict
    started_at: str
    clock: float

    @classmethod
    def open(cls, args) -> "_Experiment":
        started_at = datetime.now(timezone.utc).isoformat()
        clock = time.perf_counter()
        spec = _apply_overrides(load_experiment_spec(args.spec), args)
        return cls(spec, Path(spec.out), _meta(spec), started_at, clock)

    def make_out_dir(self) -> None:
        """Called after validation, so a bad spec leaves no directory, and
        before the first draw, so an unwritable one fails before any play."""
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def write_table(self, stem: str, header: list[str], rows) -> None:
        _write_table(self.out_dir, stem, self.spec.format, header, rows, self.meta)

    def close(self, command: str, name: str, results: dict, play: dict) -> None:
        """Write the summary file ``name``, with ``results`` under their own keys.

        ``play`` maps each policy label to its plan, each kernel call's
        items, the seconds spent in those calls and their regret accounting,
        and the lanes the calls played, each for ``horizon`` pulls; it goes
        under ``timing``, outside byte identity.
        """
        _write_summary(
            self.out_dir,
            name,
            {
                "schema": JSON_SCHEMA,
                "command": command,
                "seed": self.spec.seed,
                # episodes always run in one thread; the key stays for existing readers
                "config": {**resolved_config_dict(self.spec), "threads": 1},
                **results,
                "versions": VERSIONS,
                "timing": {
                    "started_at": self.started_at,
                    "wall_seconds": round(time.perf_counter() - self.clock, 3),
                    "play": {
                        label: {
                            "kernel_calls": len(plan),
                            "plan": plan,
                            "seconds": round(seconds, 3),
                            "lanes": lanes,
                            "pulls": lanes * self.spec.horizon,
                        }
                        for label, (plan, seconds, lanes) in play.items()
                    },
                },
            },
        )


# ---------------------------------------------------------------------------
# subcommands


def _run_configs(spec: ExperimentSpec, problem: BanditProblem, instance: int) -> list[RunConfig]:
    """The run config of every policy of ``spec`` on problem ``instance``."""
    seed = derive_seed(spec.seed, EPISODE_DOMAIN, instance)
    return [
        RunConfig(
            problem=problem,
            policy=resolve_policy(entry, problem.k, spec.horizon),
            horizon=spec.horizon,
            seed=seed,
            n_runs=spec.runs,
        )
        for entry in spec.policies
    ]


def cmd_run(args) -> int:
    exp = _Experiment.open(args)
    spec = exp.spec
    problems = [build_problem(spec.problem, spec.seed, inst) for inst in range(spec.instances)]
    # every (instance, policy) batch is validated before the first one runs,
    # so a bad policy parameter leaves no partial output behind
    batches = [_run_configs(spec, problem, inst) for inst, problem in enumerate(problems)]
    totals = [RegretTotals(rows=spec.instances * spec.runs) for _ in spec.policies]
    per_instance_final = [[] for _ in spec.policies]
    play_seconds = [0.0 for _ in spec.policies]
    plan = run_plan(batches[0], spec.instances)
    exp.make_out_dir()
    # each call's instances' reward tables are drawn once into one stacked
    # array, played by every policy, and dropped before the next call's
    for call in plan:
        tables = draw_tables([batches[inst][0] for inst in call])
        for i, (tally, finals) in enumerate(zip(totals, per_instance_final)):
            clock = time.perf_counter()
            ledgers = run_many([batches[inst][i] for inst in call], tables)
            play_seconds[i] += time.perf_counter() - clock
            tally.add(ledgers)
            for n in range(0, len(ledgers), spec.runs):
                finals.append(sum(led.regret[-1] for led in ledgers[n : n + spec.runs]) / spec.runs)
        del tables

    policy_stats = {}
    for entry, tally, finals in zip(spec.policies, totals, per_instance_final):
        label = sanitize_label(entry.label)
        curve = aggregate_regret(tally)
        exp.write_table(
            f"regret_curve_{label}",
            ["t", "mean_theoretical_regret", "mean_empirical_regret", "std"],
            zip(
                curve.t.tolist(),
                curve.mean_regret.tolist(),
                curve.mean_regret_emp.tolist(),
                curve.std_regret.tolist(),
            ),
        )
        exp.write_table(
            f"sorted_rewards_{label}",
            ["rank", "mean_reward"],
            enumerate(sorted_reward_cdf(tally).tolist(), 1),
        )
        exp.write_table(
            f"sorted_final_regret_{label}",
            ["rank", "mean_final_regret"],
            enumerate(sorted_final_regret(finals).tolist(), 1),
        )
        policy_stats[entry.label] = {
            "mean_final_regret": float(curve.mean_regret[-1]),
            "mean_final_regret_emp": float(curve.mean_regret_emp[-1]),
        }
    # every policy plays each instance's runs as lanes once
    lanes = spec.instances * spec.runs
    play = {entry.label: (plan, seconds, lanes) for entry, seconds in zip(spec.policies, play_seconds)}
    exp.close("run", "summary.json", {"policies": policy_stats}, play)
    return 0


def cmd_sweep(args) -> int:
    exp = _Experiment.open(args)
    spec = exp.spec
    bases = _run_configs(spec, build_problem(spec.problem, spec.seed, 0), 0)
    # every cell of every policy is validated before the first one runs, so a
    # bad grid value leaves no partial output behind
    grid_policies = []
    for entry, base in zip(spec.policies, bases):
        try:
            grid_policies.append([cfg.policy for _, cfg in expand_grid(base, entry.sweep or {})])
        except ConfigError as exc:
            raise entry_error(entry, exc) from None
    exp.make_out_dir()
    tables = draw_tables(bases[0])
    cell_counts = {}
    play = {}
    for entry, base, policies in zip(spec.policies, bases, grid_policies):
        grid = entry.sweep or {}
        start = time.perf_counter()
        cells = sweep(base, grid, tables)
        seconds = time.perf_counter() - start
        calls = [cell.call for cell in cells]
        plan = [[i for i, c in enumerate(calls) if c == n] for n in range(max(calls) + 1)]
        lanes = sum(call_lanes([policies[i] for i in call], spec.runs, spec.horizon) for call in plan)
        play[entry.label] = (plan, seconds, lanes)
        param_names = list(grid)
        exp.write_table(
            f"sweep_{sanitize_label(entry.label)}",
            param_names + ["mean_final_regret", "mean_final_regret_emp", "std_final_regret"],
            (
                [cell.params[n] for n in param_names]
                + [cell.mean_final_regret, cell.mean_final_regret_emp, cell.std_final_regret]
                for cell in cells
            ),
        )
        cell_counts[entry.label] = len(cells)
    exp.close("sweep", "sweep_summary.json", {"cells": cell_counts}, play)
    return 0


def cmd_bound(args) -> int:
    try:
        with open(args.inputs) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read inputs {args.inputs}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {args.inputs}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.inputs}: expected a JSON object")
    allowed = {f.name for f in fields(BoundInputs)}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{args.inputs}: unknown key {key!r}")
    if "mean_gaps" in doc and not isinstance(doc["mean_gaps"], list):
        raise ConfigError(f"{args.inputs}: mean_gaps must be a list")
    try:
        if "mean_gaps" in doc:
            doc["mean_gaps"] = tuple(float(g) for g in doc["mean_gaps"])
        inputs = BoundInputs(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{args.inputs}: {exc}") from None

    output = {
        "inputs": asdict(inputs),
        "min_policy": asdict(min_regret_bound(inputs)),
        "min_policy_aligned": asdict(min_regret_bound_aligned(inputs)),
        "ucb": (
            ucb_regret_bound(inputs.mean_gaps, inputs.t) if inputs.mean_gaps is not None else None
        ),
    }
    print(json.dumps(output, indent=2))
    return 0


def cmd_check_lemma(args) -> int:
    try:
        # each message starts with the argument's name, which is the flag's
        check_tail_args(args.t, args.epsilon, args.trials)
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from None
    if args.arms < 1:
        raise ConfigError(f"--arms: must be >= 1, got {args.arms}")
    try:
        seed = validate_seed(args.seed)
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from None
    try:
        segment = UniformSegment(center=args.center, radius=args.radius)
    except ValueError as exc:
        raise ConfigError(f"--center/--radius: {exc}") from None

    from .rng import make_rng

    rng = make_rng(seed)
    if args.arms == 1:
        check = min_tail_check(segment, args.t, args.epsilon, args.trials, rng)
    else:
        problem = BanditProblem.from_arms(
            [segment] * args.arms, lower_bound_A=1.0 / (2.0 * segment.radius)
        )
        check = min_tail_check_any(problem, args.t, args.epsilon, args.trials, rng)

    print(
        json.dumps(
            {
                "arms": args.arms,
                "center": args.center,
                "radius": args.radius,
                "t": args.t,
                "epsilon": args.epsilon,
                "trials": args.trials,
                "seed": seed,
                "empirical_prob": check.empirical_prob,
                "bound": check.bound,
                "std_error": check.std_error,
                "passed": check.passed,
            },
            indent=2,
        )
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbandit",
        description="Risk-aware bandit benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--spec", required=True, help="experiment spec (YAML)")
        p.add_argument("--out", help="output directory (overrides spec)")
        p.add_argument("--seed", type=int, help="master seed (overrides spec)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (overrides spec)")

    p_run = sub.add_parser("run", help="run all (policy, instance, run) cells of a spec")
    add_spec_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="expand policy sweep grids, one row per cell")
    add_spec_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bound = sub.add_parser("bound", help="evaluate closed-form regret bounds from JSON inputs")
    p_bound.add_argument("--inputs", required=True, help="JSON file of bound inputs")
    p_bound.set_defaults(func=cmd_bound)

    p_lemma = sub.add_parser("check-lemma", help="Monte Carlo check of the minimum tail bound")
    p_lemma.add_argument("--center", type=float, required=True)
    p_lemma.add_argument("--radius", type=float, required=True)
    p_lemma.add_argument("--arms", type=int, default=1, help="identical arms (default 1)")
    p_lemma.add_argument("--t", type=int, required=True, help="draws per arm")
    p_lemma.add_argument("--epsilon", type=float, required=True)
    p_lemma.add_argument("--trials", type=int, required=True)
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.set_defaults(func=cmd_check_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on flag errors; that is a validation failure here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateMixtureError, MemoryError, OSError, RuntimeError, ValueError) as exc:
        # a bare MemoryError has no message
        print(f"runtime error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
