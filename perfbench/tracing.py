"""Span tracing of one riskbandit CLI command, from outside the package.

Run as a script, this module wraps the functions that ``riskbandit.cli``
calls into each layer, runs the CLI in-process, and writes the spans it
kept in memory to a JSON file when the command ends::

    PYTHONPATH=src python3 perfbench/tracing.py --spans spans.json -- run --spec S --out D

A span is ``{"id", "parent", "name", "start_ns", "end_ns", "thread"}`` plus
optional numeric ``attrs``; all spans of one command share the file's
``trace_id``.  Span names are ``<layer>.<stage>`` with layers named after
the package's modules (config, generators, distributions, harness,
kernels, cli).  Worker threads of ``run_many`` parent their spans on the
``run_many`` span that started them.

Imported, the module turns a spans file into the benchmark's per-layer
metrics (:func:`layer_metrics`).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path

KERNELS = ("ucb", "min", "marab", "mvlcb", "expexp")
LAYERS = ("config", "generators", "distributions", "harness", "kernels", "cli")


class Tracer:
    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None

    def wrap(self, name, fn, attrs=None, pool=False):
        """Return ``fn`` recording one span per call.

        ``attrs(tracer, args, kwargs, result)`` returns numeric attributes for
        the span.  With ``pool=True`` spans opened by threads that have no span
        of their own are parented on this one while it is open.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._pool_parent
            span_id = next(self._ids)
            stack.append(span_id)
            if pool:
                self._pool_parent = span_id
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                if pool:
                    self._pool_parent = parent
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "thread": threading.get_ident(),
                }
                if attrs is not None:
                    span["attrs"] = attrs(self, args, kwargs, result)
                self.spans.append(span)

        return traced

    def document(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "distinct": {key: len(values) for key, values in self.distinct.items()},
            "spans": self.spans,
        }


def _draw_attrs(tracer, args, kwargs, result):
    problem, seed, run_index, horizon = args
    tracer.distinct["tables"].add((problem.arms, seed, run_index, horizon))
    return {"values": problem.k * horizon}


def _arm_attrs(tracer, args, kwargs, result):
    tracer.distinct["arm_specs"].add(args[0])
    return {}


def _play_attrs(tracer, args, kwargs, result):
    return {"pulls": args[0].shape[1]}


def _table_attrs(tracer, args, kwargs, result):
    return {"tables": 1, "bytes": Path(result).stat().st_size}


def _summary_attrs(tracer, args, kwargs, result):
    out_dir, name = args[0], args[1]
    return {"tables": 0, "bytes": (Path(out_dir) / name).stat().st_size}


def install(tracer: Tracer):
    """Wrap the layer entry points the CLI reaches; return the traced ``main``."""
    from riskbandit import cli, generators, harness, kernels

    cli.load_experiment_spec = tracer.wrap("config.load", cli.load_experiment_spec)
    cli.build_problem = tracer.wrap("generators.build_problem", cli.build_problem)
    generators.analytic_mean = tracer.wrap("distributions.arm_stats", generators.analytic_mean, _arm_attrs)

    traced_run_many = tracer.wrap("harness.run_many", harness.run_many, pool=True)
    harness.run_many = cli.run_many = traced_run_many
    cli.sweep = tracer.wrap("harness.sweep", cli.sweep)
    harness.run_episode = tracer.wrap("harness.episode", harness.run_episode)
    harness.draw_reward_table = tracer.wrap("harness.draw", harness.draw_reward_table, _draw_attrs)
    harness._play = tracer.wrap("harness.play", harness._play, _play_attrs)
    for kind in KERNELS:
        name = f"episode_{kind}"
        setattr(kernels, name, tracer.wrap(f"kernels.{kind}", getattr(kernels, name)))
    for name in ("aggregate_regret", "sorted_reward_cdf", "sorted_final_regret"):
        setattr(cli, name, tracer.wrap("harness.aggregate", getattr(cli, name)))

    cli._write_table = tracer.wrap("cli.write", cli._write_table, _table_attrs)
    cli._write_summary = tracer.wrap("cli.write", cli._write_summary, _summary_attrs)
    return tracer.wrap("cli.command", cli.main)


# ---------------------------------------------------------------------------
# analysis


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def self_ns(spans: list[dict]) -> dict:
    """Each span's duration minus the part of it its children cover, by span id.

    Children on other threads may overlap each other; their union counts once.
    """
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    return {
        span["id"]: span["end_ns"] - span["start_ns"] - _covered_ns(span["start_ns"], span["end_ns"], children[span["id"]])
        for span in spans
    }


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced command, ``{name: (value, unit)}``."""
    spans = doc["spans"]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    own = self_ns(spans)

    def seconds(name):
        return sum(s["end_ns"] - s["start_ns"] for s in by_name[name]) / 1e9

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer_self[span["name"].split(".")[0]] += own[span["id"]] / 1e9
    # sweep cells are aggregated inline in harness.sweep, outside any call
    sweep_self = sum(own[s["id"]] for s in by_name["harness.sweep"]) / 1e9
    play_s = seconds("harness.play")
    draws = len(by_name["harness.draw"])
    arm_calls = len(by_name["distributions.arm_stats"])

    metrics = {
        "config.load_s": (seconds("config.load"), "s"),
        "generators.build_problem_s": (seconds("generators.build_problem"), "s"),
        "generators.build_problem_calls": (len(by_name["generators.build_problem"]), "count"),
        "distributions.arm_stats_s": (seconds("distributions.arm_stats"), "s"),
        "distributions.arm_stats_calls": (arm_calls, "count"),
        "distributions.distinct_arm_ratio": (ratio(doc["distinct"].get("arm_specs", 0), arm_calls), "ratio"),
        "harness.draw_s": (seconds("harness.draw"), "s"),
        "harness.draw_calls": (draws, "count"),
        "harness.draw_values": (attr_sum("harness.draw", "values"), "count"),
        "harness.distinct_table_ratio": (ratio(doc["distinct"].get("tables", 0), draws), "ratio"),
        "harness.run_many_s": (seconds("harness.run_many"), "s"),
        "harness.play_s": (play_s, "s"),
        "harness.episodes": (len(by_name["harness.play"]), "count"),
        "harness.pulls_per_s": (ratio(attr_sum("harness.play", "pulls"), play_s), "1/s"),
        "harness.aggregate_s": (seconds("harness.aggregate") + sweep_self, "s"),
    }
    for kind in KERNELS:
        metrics[f"kernels.{kind}_s"] = (seconds(f"kernels.{kind}"), "s")
    metrics["cli.write_s"] = (seconds("cli.write"), "s")
    metrics["cli.tables_written"] = (attr_sum("cli.write", "tables"), "count")
    metrics["cli.bytes_written"] = (attr_sum("cli.write", "bytes"), "bytes")
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = (layer_self[layer], "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="run one riskbandit CLI command with span tracing")
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the riskbandit arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        Path(args.spans).write_text(json.dumps(tracer.document()))


if __name__ == "__main__":
    sys.exit(main())
