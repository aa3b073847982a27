"""Record reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run this only on a commit whose outputs are known good; the file it
writes defines correctness for every later run.  It runs each workload's
operations once per input set, untraced, through the same code the
benchmark uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402


def record_input_set(seed: int) -> dict:
    out_dir = ROOT / ".bench_out" / "reference" / str(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name in wl.WORKLOADS:
        for op in wl.workload_ops(name, seed, out_dir):
            res = wl.run_op(op)
            if res.exit_code != 0:
                raise RuntimeError(f"{op.argv} exited {res.exit_code}")
            entries[op.label] = wl.reference_entry(res)
    return entries


def main() -> int:
    reference = {
        "sizes": wl.SIZES,
        "seeds": {str(s): record_input_set(s)
                  for s in range(wl.REFERENCE_SEEDS)},
    }
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
