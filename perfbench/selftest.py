"""Show that each correctness check fails on a corrupted copy of real output.

Runs every workload once through the CLI, confirms that its outputs pass
every check, then feeds each check a corrupted copy and requires that check
to report a failure.  A check that cannot fail shows nothing.  Exits 0 only
when every corruption is caught.  Run from the repository root::

    python3 perfbench/selftest.py [--seed 1]
"""

from __future__ import annotations

import argparse
import copy
import math
import shutil
import sys

import checks
from run import OUT, SRC, WORKLOADS, Workload


def _shift_start_row(w: Workload, outputs: dict) -> dict:
    """Shift the regret row at t = k up by two largest gaps."""
    label = w.labels[0]
    column = outputs[label]["curve"]["mean_theoretical_regret"]
    k = w.reference.k
    column[k - 1] = repr(float(column[k - 1]) + 2.0 * w.reference.max_gap())
    return outputs


def _swap_sorted_pair(w: Workload, outputs: dict) -> dict:
    """Swap the first adjacent pair of distinct values in sorted_rewards."""
    column = outputs[w.labels[0]]["rewards"]["mean_reward"]
    i = next(i for i in range(len(column) - 1) if float(column[i]) < float(column[i + 1]))
    column[i], column[i + 1] = column[i + 1], column[i]
    return outputs


def _perturb_final(w: Workload, outputs: dict) -> dict:
    """Raise the top sorted final regret by one part in a million."""
    column = outputs[w.labels[0]]["finals"]["mean_final_regret"]
    column[-1] = repr(float(column[-1]) * (1.0 + 1e-6))
    return outputs


def _alter_marab_cell(w: Workload, outputs: dict) -> dict:
    """Move one alpha * horizon <= 1 MaRaB cell up by one ulp."""
    table = outputs["marab"]
    i = next(i for i, a in enumerate(table["alpha"]) if float(a) * w.horizon <= 1.0)
    table["mean_final_regret"][i] = repr(math.nextafter(float(table["mean_final_regret"][i]), math.inf))
    return outputs


def _drop_grid_row(w: Workload, outputs: dict) -> dict:
    """Drop the last row of the MaRaB sweep table."""
    for column in outputs["marab"].values():
        column.pop()
    return outputs


def _raise_cell_above_range(w: Workload, outputs: dict) -> dict:
    """Put one sweep cell's final regret a whole horizon of largest gaps high."""
    column = outputs["marab"]["mean_final_regret"]
    column[-1] = repr(float(column[-1]) + w.horizon * w.reference.max_gap())
    return outputs


# command -> [(corruption, the check that must report it)]
CORRUPTIONS = {
    "run": [
        (_shift_start_row, "start"),
        (_shift_start_row, "increments"),
        (_swap_sorted_pair, "sorting"),
        (_perturb_final, "totals"),
    ],
    "sweep": [
        (_alter_marab_cell, "marab_min"),
        (_drop_grid_row, "grid"),
        (_raise_cell_above_range, "sweep_range"),
    ],
}


def _flip_byte(w: Workload, out_dir) -> list:
    """Flip one byte of a table in a copy of the outputs; check determinism."""
    copy_dir = out_dir.parent / f"{out_dir.name}_corrupt"
    shutil.rmtree(copy_dir, ignore_errors=True)
    shutil.copytree(out_dir, copy_dir)
    target = next(p for p in sorted(copy_dir.iterdir()) if p.suffix == ".csv")
    data = bytearray(target.read_bytes())
    data[-2] ^= 1  # a digit of the last cell
    target.write_bytes(bytes(data))
    return checks.check_determinism(checks.table_digests(copy_dir), w.digests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (SRC / "riskbandit" / "__init__.py").is_file():
        sys.exit(f"{SRC / 'riskbandit'} not found: run from the repository root")

    missed = 0
    for name in sorted(WORKLOADS):
        w = Workload(name, args.seed, None)
        work = OUT / f"selftest_{name}"
        shutil.rmtree(work, ignore_errors=True)
        child = w.run(work / "rep0")
        if child.code != 0:
            sys.exit(f"{name}: CLI exit {child.code}\n{child.log.read_text()}")
        clean = w.check(work / "rep0")
        if clean:
            sys.exit(f"{name}: real output fails its checks: {clean}")
        outputs = w.read(work / "rep0")
        cases = [
            (corrupt.__doc__, check, w.verify(corrupt(w, copy.deepcopy(outputs))))
            for corrupt, check in CORRUPTIONS[w.command]
        ]
        cases.append((_flip_byte.__doc__, "determinism", _flip_byte(w, work / "rep0")))
        for what, check, failures in cases:
            caught = any(c == check for c, _ in failures)
            missed += not caught
            print(f"{name:<12} {check:<12} {'caught' if caught else 'NOT CAUGHT':<11} {what}")
            for c, message in failures:
                if c == check:
                    print(f"{'':<25} {message}")
                    break
    print("all corruptions caught" if not missed else f"{missed} corruption(s) not caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
