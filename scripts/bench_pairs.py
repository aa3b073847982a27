"""Run alternating parent/change pairs of perfbench/run.py for one workload
and collect their contract lines in a BENCH_<n>.json.

Usage:
    python3 scripts/bench_pairs.py PARENT --workload census --seeds 230-239 \\
        --out BENCH_23.json [--trace 0] [--note TEXT]

The change side is the checkout this script sits in, as its files stand;
the parent side is PARENT (any git commit name) exported with
``git archive`` into a temporary directory, which leaves the repository's
git metadata untouched.  Pair i runs seed i of the range; even pairs
start with the parent.  Each run lasts BENCHMARK.json's run_seconds,
and its last stdout line is its contract.
An existing --out file (same parent) keeps its runs and gains the new
ones, so one file can hold several workloads.  The file is rewritten
after every run.  At the end the script prints, per metric, each side's
median and quartiles, the number of pairs the change won (ties count
for neither side), reading each metric's direction from BENCHMARK.json,
and whether a claimed gain on that metric is met: the change won at
least 9 in 10 of the pairs, and its median beats the parent's by more
than the parent's quartile spread (q3 - q1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"
NOTE = ("Alternating parent/change pairs: order 0 ran first in its pair; "
        "even pairs start with the parent. contract is the last stdout "
        "line of the run.")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _export(commit: str, dest: Path) -> None:
    """The tree of ``commit`` written into ``dest`` by git archive."""
    subprocess.run(["tar", "-x", "-C", str(dest)],
                   input=_git("archive", commit), check=True)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def directions(spec: dict) -> dict:
    """Metric name -> "lower" or "higher", the side BENCHMARK.json's
    ``spec`` calls better."""
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(parent: list[float], change: list[float],
            better: str | None) -> tuple[int, bool]:
    """``(wins, met)`` for one metric over paired runs, ``parent[i]``
    beside ``change[i]``.  ``wins`` counts the pairs the change won in
    the direction ``better`` ("lower"; anything else reads as "higher"),
    ties counting for neither side.  ``met`` says a claimed gain holds:
    the change won at least 9 in 10 of the pairs, and its median beats
    the parent's by more than the parent's quartile spread (q3 - q1)."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = _quartiles(parent)
    gap = sign * (_quartiles(change)[0] - p_med)
    return wins, 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1


def _summary(spec: dict, runs: list[dict]) -> None:
    better = directions(spec)
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["contract"]
    pairs = [p for _, p in sorted(pairs.items())]
    for side in ("parent", "change"):
        ok = sum(p[side]["correct"] is True for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        print(f"{side}: correct in {ok} of {len(pairs)} runs, "
              f"{failed} of {attempted} operations failed")
    print(f"{'metric':32} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}  change wins  claim")
    for name in pairs[0]["parent"]["metrics"]:
        cols = []
        vals = {}
        for side in ("parent", "change"):
            vals[side] = [p[side]["metrics"][name]["value"] for p in pairs]
            med, q1, q3 = _quartiles(vals[side])
            cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        wins, met = verdict(vals["parent"], vals["change"],
                            better.get(name))
        print(f"{name:32} {cols[0]:>32} {cols[1]:>32}  "
              f"{f'{wins}/{len(pairs)}':>11}  {'met' if met else 'not met'}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="git commit of the parent side")
    parser.add_argument("--workload", required=True,
                        choices=("census", "sweep", "protocols"))
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="one seed per pair, as FIRST-LAST or SEED")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--note", default="",
                        help="text appended to the file's note")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    parent = _git("rev-parse", "--verify",
                  f"{args.parent}^{{commit}}").decode().strip()
    if args.out.exists():
        bench = json.loads(args.out.read_text())
        if bench["parent_commit"] != parent:
            sys.exit(f"error: {args.out} holds runs against parent "
                     f"{bench['parent_commit']}, not {parent}")
    else:
        bench = {
            "parent_commit": parent,
            "machine": (f"{os.cpu_count()} CPUs, {platform.machine()}, "
                        f"Python {platform.python_version()}, "
                        f"numpy {np.__version__}"),
            "command": ("python3 perfbench/run.py --workload <workload> "
                        f"--seed <seed> --seconds {seconds:g} "
                        "--trace <trace>"),
            "note": NOTE,
            "runs": [],
        }
    # a second call on the same --out does not repeat its note
    if args.note and not bench["note"].endswith(args.note):
        bench["note"] += " " + args.note

    new = []
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        _export(parent, checkouts["parent"])
        for pair, seed in enumerate(args.seeds):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for k, side in enumerate(order):
                contract = _run(checkouts[side], args.workload, seed,
                                seconds, args.trace)
                wall = contract["metrics"].get("wall_s", {}).get("value")
                print(f"pair {pair} seed {seed} {side}: correct "
                      f"{contract['correct']}, wall_s {wall}",
                      file=sys.stderr, flush=True)
                new.append({"workload": args.workload, "seed": seed,
                            "trace": args.trace, "pair": pair, "side": side,
                            "order": k, "contract": contract})
                bench["runs"].append(new[-1])
                tmp_out = args.out.with_name(args.out.name + ".tmp")
                tmp_out.write_text(json.dumps(bench, indent=1) + "\n")
                os.replace(tmp_out, args.out)
    print(f"{args.workload}, trace {args.trace}, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}, parent {parent[:12]}:")
    _summary(spec, new)


if __name__ == "__main__":
    main()
