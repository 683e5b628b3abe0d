"""End-to-end benchmark of `riskbandit run` and `riskbandit sweep`.

Runs one workload through the CLI the way a user runs it, in a fresh
interpreter with no ``--threads`` flag and ``RISKBANDIT_THREADS`` cleared,
checks every output (see ``checks.py``), and prints one JSON line last::

    python3 perfbench/run.py --workload plateau_run --seed 3 --seconds 20 --trace 0

Run from the repository root: the package is imported from ``./src``.
With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
wall time of the CLI command), ``peak_rss_mb`` (median peak resident memory
of the command's process) and ``setup_s`` (one fresh interpreter importing
``riskbandit`` and loading the workload's spec).  With ``--trace 1`` it runs
the command alternately untraced and under ``tracing.py`` and reports the
median per-layer metrics and ``trace.overhead_s``.  Repetitions continue
until ``--seconds`` have passed, and there are always at least two.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# workload -> (CLI subcommand, spec file)
WORKLOADS = {
    "mixture_run": ("run", "mixture_run.yaml"),
    "plateau_run": ("run", "plateau_run.yaml"),
    "alpha_sweep": ("sweep", "alpha_sweep.yaml"),
}
MIN_REPS = 2

SETUP_PROBE = (
    "import sys, riskbandit.cli\n"
    "from riskbandit.config import load_experiment_spec\n"
    "load_experiment_spec(sys.argv[1])\n"
    "print(riskbandit.__file__)\n"
)


class Child:
    """One finished child process: wall seconds, peak RSS in MB, exit code."""

    def __init__(self, argv: list[str], log: Path) -> None:
        env = dict(os.environ)
        env.pop("RISKBANDIT_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
            # wait4 gives this child's own rusage, so ru_maxrss is its peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.log = log


def measure_setup(spec_path: Path, work: Path) -> float:
    child = Child([sys.executable, "-c", SETUP_PROBE, str(spec_path)], work / "setup.log")
    if child.code != 0:
        sys.exit(f"set-up failed (exit {child.code}):\n{child.log.read_text()}")
    imported = Path(child.log.read_text().strip().splitlines()[-1]).resolve()
    if SRC.resolve() not in imported.parents:
        sys.exit(f"imported riskbandit from {imported}, not from {SRC}")
    return child.wall_s


class Workload:
    def __init__(self, name: str, seed: int, cli_threads: int | None) -> None:
        self.seed = seed
        self.command, spec_file = WORKLOADS[name]
        self.spec_path = HERE / "specs" / spec_file
        self.spec = yaml.safe_load(self.spec_path.read_text())
        self.labels = [p.get("label", p["policy"]) for p in self.spec["policies"]]
        self.horizon = self.spec["horizon"]
        # sweep builds instance 0 only
        self.instances = self.spec.get("instances", 1) if self.command == "run" else 1
        self.reference = checks.reference_for(self.spec, seed, self.instances)
        self.extra = ["--threads", str(cli_threads)] if cli_threads else []
        self.digests = None

    def cli_args(self, out_dir: Path) -> list[str]:
        return [self.command, "--spec", str(self.spec_path), "--seed", str(self.seed), "--out", str(out_dir), *self.extra]

    def run(self, out_dir: Path, spans: Path | None = None) -> Child:
        out_dir.mkdir(parents=True)
        if spans is None:
            argv = [sys.executable, "-m", "riskbandit", *self.cli_args(out_dir)]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), "--spans", str(spans), "--", *self.cli_args(out_dir)]
        return Child(argv, out_dir.parent / f"{out_dir.name}.log")

    def read(self, out_dir: Path) -> dict:
        if self.command == "run":
            return checks.read_run_outputs(out_dir, self.labels)
        return checks.read_sweep_outputs(out_dir, self.labels)

    def verify(self, outputs: dict) -> list:
        """The method's checks on parsed outputs (all but determinism)."""
        if self.command == "run":
            return checks.check_run(outputs, self.reference, self.horizon, self.instances)
        return checks.check_sweep(outputs, self.spec, self.reference, self.horizon)

    def check(self, out_dir: Path) -> list:
        """All correctness checks on one repetition's outputs."""
        digests = checks.table_digests(out_dir)
        if self.digests is None:
            self.digests = digests
        return self.verify(self.read(out_dir)) + checks.check_determinism(digests, self.digests)

    def threads_used(self, out_dir: Path) -> int:
        name = "summary.json" if self.command == "run" else "sweep_summary.json"
        return json.loads((out_dir / name).read_text())["config"]["threads"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cli-threads", type=int, help="pass --threads to the CLI (reference figures only; default: none)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "riskbandit" / "__init__.py").is_file():
        sys.exit(f"{SRC / 'riskbandit'} not found: run from the repository root")
    if not 0 <= args.seed < 2**64:
        sys.exit(f"--seed must be in [0, 2**64), got {args.seed}")

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock = time.perf_counter()
    workload = Workload(args.workload, args.seed, args.cli_threads)
    setup_s = measure_setup(workload.spec_path, work)

    attempted = failed = 0
    failures = []
    walls, rss, traced_walls, layers = [], [], [], []
    threads = set()
    # a traced round is one untraced and one traced repetition
    while attempted < MIN_REPS or (args.trace and attempted % 2) or time.perf_counter() - clock < args.seconds:
        rep = attempted
        attempted += 1
        spans = work / f"spans{rep}.json" if args.trace and rep % 2 else None
        out_dir = work / f"rep{rep}"
        child = workload.run(out_dir, spans)
        if child.code != 0:
            failed += 1
            print(f"rep {rep}: exit {child.code}\n{child.log.read_text()}", file=sys.stderr)
            continue
        print(f"rep {rep}: {'traced' if spans else 'untraced'} wall {child.wall_s:.3f} s, peak RSS {child.peak_rss_mb:.1f} MB")
        failures += workload.check(out_dir)
        threads.add(workload.threads_used(out_dir))
        if spans is None:
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
        else:
            traced_walls.append(child.wall_s)
            layers.append(tracing.layer_metrics(json.loads(spans.read_text())))

    for check, message in failures:
        print(f"FAILED {check}: {message}", file=sys.stderr)
    if not walls or (args.trace and not layers):
        sys.exit("no repetition completed")

    if args.trace:
        metrics = {
            name: (statistics.median(m[name][0] for m in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"cli_threads={sorted(threads)} repetitions={attempted} failed={failed} "
        f"checks={'pass' if not failures else 'FAIL'}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
