"""triact benchmark: one workload per invocation, checked against a reference.

    python3 perfbench/run.py --workload census --seed 0 --seconds 25 --trace 0

Runs the workload's operations for about ``--seconds`` seconds in this
process, checks every output against ``reference.json``, runs the
worker-count invariance check once, and prints a report followed, on the
last line, by one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json, timed back to back against the frozen seed copy
``triact_seed``; ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PAIRS = 7
# Rounds on the seed copy's clock, whatever --seconds says.
MIN_ROUNDS = 3


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, -(-len(s) * q // 100) - 1))]


# ------------------------------------------------------------ machine facts

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    try:
        maps = Path("/proc/self/maps").read_text().split("\n")
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()
            and ".so" in line}
    for path in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def machine_facts() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ set-up

def measure_setup(workload: str):
    """Interpreter start to package imported and warm-up finished, in a
    fresh interpreter each time, for triact and the seed copy in turn.
    Returns [(ours, seed copy's)] in seconds and the failed start count."""
    import workloads as wl

    def once(package):
        code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
                f"import workloads as w; "
                f"w.warm_up({workload!r}, w.package({package!r}))")
        # No timeout: with one, subprocess polls the child every 50 ms,
        # and the times come out in 50 ms steps.
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL)
        return perf_counter() - t0, proc.returncode != 0

    pairs, failures = [], 0
    for i in range(SETUP_PAIRS):
        order = (wl.PACKAGE, wl.SEED_PACKAGE)[::-1 if i % 2 else 1]
        times = {}
        for package in order:
            times[package], failed = once(package)
            failures += failed
        pairs.append((times[wl.PACKAGE], times[wl.SEED_PACKAGE]))
    return pairs, failures


# ---------------------------------------------------------------- metrics

def layer_metrics(tr, wall: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit, n)."""
    from spans import LAYERS
    by = tr.by_name()

    def calls(*names):
        return sum(by.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(by.get(n, (0, 0.0, 0.0))[1] for n in names)

    c = tr.counts
    sample_fns = ("states.random_mixed_hs", "states.random_pure_fs")
    n_sampled = calls(*sample_fns)
    n_mats = c["criteria.matrices_classified"]
    m = {
        "states.sample_calls": (n_sampled, "count", 1),
        "states.sample_s": (incl(*sample_fns), "s", n_sampled),
        "states.sample_us_per_state": (
            1e6 * incl(*sample_fns) / n_sampled if n_sampled else 0.0,
            "us", n_sampled),
        "qcore.density_matrix_inits": (calls("qcore.DensityMatrix"),
                                       "count", 1),
        "qcore.density_matrix_init_s": (incl("qcore.DensityMatrix"), "s",
                                        calls("qcore.DensityMatrix")),
        "qcore.project_and_condition_calls": (
            calls("qcore.project_and_condition"), "count", 1),
        "qcore.project_and_condition_s": (
            incl("qcore.project_and_condition"), "s",
            calls("qcore.project_and_condition")),
        "qcore.tensor_s": (incl("qcore.tensor"), "s", calls("qcore.tensor")),
        "qcore.partial_trace_s": (incl("qcore.partial_trace"), "s",
                                  calls("qcore.partial_trace")),
        "qcore.largest_matrix_dim": (c["qcore.largest_matrix_dim"], "count",
                                     1),
        "criteria.classify_batch_calls": (calls("criteria.classify_batch"),
                                          "count", 1),
        "criteria.matrices_classified": (n_mats, "count", 1),
        "criteria.classify_batch_s": (incl("criteria.classify_batch"), "s",
                                      calls("criteria.classify_batch")),
        "criteria.us_per_matrix": (
            1e6 * incl("criteria.classify_batch") / n_mats if n_mats else 0.0,
            "us", n_mats),
        "criteria.classify_calls": (calls("criteria.classify"), "count", 1),
        "criteria.horodecki_m_calls": (calls("criteria.horodecki_m"),
                                       "count", 1),
        "criteria.nlr_yield": (c["criteria.nlr_flags"] / n_mats
                               if n_mats else 0.0, "ratio", n_mats),
        "criteria.near_tie_count": (c["criteria.near_tie_count"], "count",
                                    n_mats),
        "channels.kraus_stack_calls": (
            calls("channels.two_qubit_kraus_stack"), "count", 1),
        "channels.kraus_stack_s": (incl("channels.two_qubit_kraus_stack"),
                                   "s",
                                   calls("channels.two_qubit_kraus_stack")),
        "channels.kraus_channels_built": (calls("channels.KrausChannel"),
                                          "count", 1),
    }
    for key, label in (("protocols.double_teleport_d2", "d2"),
                       ("protocols.double_teleport_d3", "d3")):
        ms = [1e3 * x for x in tr.samples[key]]
        m[f"protocols.double_teleport_{label}_ms"] = (_median(ms), "ms",
                                                      len(ms))
        if label == "d2":
            m["protocols.double_teleport_d2_p95_ms"] = (
                _percentile(ms, 95), "ms", len(ms))
    for name, fn in (("erased_protocol_ms", "protocols.erased_protocol"),
                     ("extension_ms", "protocols.build_symmetric_extension")):
        n = calls(fn)
        m[f"protocols.{name}"] = (1e3 * incl(fn) / n if n else 0.0, "ms", n)
    self_by_layer = {layer: 0.0 for layer in LAYERS + ("cli",)}
    for name, (_, _, own) in by.items():
        self_by_layer[name.split(".")[0]] += own
    for layer, own in self_by_layer.items():
        m[f"{layer}.self_s"] = (own, "s", 1)
    m["harness.records"] = (c["harness.records"], "count", 1)
    m["harness.chunks"] = (c["harness.chunks"], "count", 1)
    m["harness.bytes_written"] = (c["harness.bytes_written"], "count", 1)
    m["trace.wall_s"] = (wall, "s", 1)
    m["trace.self_sum_s"] = (sum(self_by_layer.values()), "s", 1)
    return m


# -------------------------------------------------------------------- run

class Tally:
    """Attempted and failed operations, with what went wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.max_dev = 0.0
        self.problems: list[str] = []

    def add(self, found: list, dev: float = 0.0):
        self.attempted += 1
        self.failed += bool(found)
        self.max_dev = max(self.max_dev, dev)
        self.problems.extend(found)


def _protocol_calls(tr) -> int:
    by = tr.by_name()
    return sum(by.get(n, (0,))[0] for n in (
        "protocols.double_teleport", "protocols.erased_protocol",
        "protocols.build_symmetric_extension"))


def seed_clock_rounds(seconds, ops, seed_ops, run_ours, run_seed,
                      check, first=None) -> dict:
    """Rounds in which every operation runs back to back on the code under
    test and on the seed copy, the order swapped each round.  ``first``,
    if given, is a round already run ([(ours, seed's)] in the order of
    ``ops``).  A round starts only if it would still end within
    ``seconds``, judged by the last one, or if there are fewer than
    MIN_ROUNDS.  Returns label -> [(ours, seed's)]."""
    pairs = {op.label: [] if first is None else [ab]
             for op, ab in zip(ops, first or ops)}
    t_start, last, rounds = perf_counter(), 0.0, int(first is not None)
    while (rounds < MIN_ROUNDS
           or perf_counter() - t_start + last <= seconds):
        t0 = perf_counter()
        for op, seed_op in zip(ops, seed_ops):
            if rounds % 2:
                theirs = run_seed(seed_op)
                ours = run_ours(op)
            else:
                ours = run_ours(op)
                theirs = run_seed(seed_op)
            check(ours)
            check(theirs)
            pairs[op.label].append((ours, theirs))
        rounds += 1
        last = perf_counter() - t0
    return pairs


def seed_clock_metrics(pairs: dict, work: int, throughput_name: str,
                       ref_clock: dict) -> dict:
    """End-to-end times on the seed copy's clock: for each operation, the
    median of our time over the seed copy's time in the same round, times
    the operation's fixed seed time; summed over the operations."""
    rounds = min(len(ps) for ps in pairs.values())

    def on_seed_clock(field, col):
        return sum(ref_clock[label][col] * _median(
            [getattr(a, field) / getattr(b, field) for a, b in ps])
            for label, ps in pairs.items())

    def raw(field, i):
        return sum(_median([getattr(ab[i], field) for ab in ps])
                   for ps in pairs.values())

    wall = on_seed_clock("wall_s", 0)
    return {
        "wall_s": (wall, "s", rounds),
        "cpu_s": (on_seed_clock("cpu_s", 1), "s", rounds),
        "ops_per_s": (work / wall, "1/s", rounds),
        throughput_name: (work / wall, "1/s", rounds),
        "raw_wall_s": (raw("wall_s", 0), "s", rounds),
        "raw_cpu_s": (raw("cpu_s", 0), "s", rounds),
        "seed_copy_wall_s": (raw("wall_s", 1), "s", rounds),
        "seed_copy_cpu_s": (raw("cpu_s", 1), "s", rounds),
    }


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import triact
    if Path(triact.__file__).resolve().parent != SRC / "triact":
        print(f"error: imported triact from {triact.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = wl.load_reference()["seeds"][str(wl.input_set(args.seed))]
    work, throughput_name = wl.WORKLOADS[args.workload]
    ops = wl.workload_ops(args.workload, args.seed, out_dir)
    tally = Tally()
    metrics = {}

    def check(res):
        tally.add(*wl.check(res, reference[res.label]))

    if not args.trace:
        setup_pairs, setup_failures = measure_setup(args.workload)
        for i in range(2 * SETUP_PAIRS):
            tally.add([f"set-up run {i} exited non-zero"]
                      if i < setup_failures else [])
        metrics["setup_s"] = (
            wl.REF_SETUP_S[args.workload]
            * _median([a / b for a, b in setup_pairs]), "s", SETUP_PAIRS)
        metrics["raw_setup_s"] = (_median([a for a, _ in setup_pairs]), "s",
                                  SETUP_PAIRS)
        metrics["seed_copy_setup_s"] = (
            _median([b for _, b in setup_pairs]), "s", SETUP_PAIRS)
    wl.warm_up(args.workload)
    originals = spans.call_sites()

    untraced, traced, pairs = [], [], {}
    if not args.trace:
        # The first round runs every operation on our code before any on
        # the seed copy, so that the peak memory is ours alone.
        t_start = perf_counter()
        ours = [wl.run_op(op) for op in ops]
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB", 1)
        seed_pkg = wl.package(wl.SEED_PACKAGE)
        wl.warm_up(args.workload, seed_pkg)
        run_seed = functools.partial(wl.run_op, pkg=seed_pkg)
        (out_dir / "seed_copy").mkdir(exist_ok=True)
        seed_ops = wl.workload_ops(args.workload, args.seed,
                                   out_dir / "seed_copy")
        first = list(zip(ours, map(run_seed, seed_ops)))
        for a, b in first:
            check(a)
            check(b)
        pairs = seed_clock_rounds(
            args.seconds - (perf_counter() - t_start), ops, seed_ops,
            wl.run_op, run_seed, check, first)
        metrics.update(seed_clock_metrics(pairs, work, throughput_name,
                                          wl.REF_CLOCK))
    else:
        # Traced passes alternate with untraced ones.
        t_start = perf_counter()
        while perf_counter() - t_start < args.seconds or not traced:
            tracer = spans.Tracer() if len(traced) < len(untraced) else None
            if tracer is None:
                results = [wl.run_op(op) for op in ops]
            else:
                with tracer.patched():
                    results = [wl.run_op(op, tracer) for op in ops]
                now = spans.call_sites()
                tally.add([] if now.keys() == originals.keys() and all(
                    now[k] is originals[k] for k in now)
                    else ["trace wrappers were not all restored"])
            for res in results:
                check(res)
            wall = sum(r.wall_s for r in results)
            if tracer is None:
                untraced.append(wall)
            else:
                tracer.counts["harness.bytes_written"] = sum(
                    r.bytes_written for r in results)
                traced.append((wall, tracer))
        traced.sort(key=lambda wt: wt[0])
        t_wall, tracer = traced[(len(traced) - 1) // 2]
        metrics.update(layer_metrics(tracer, t_wall))
        metrics["trace_overhead_pct"] = (
            100.0 * (_median([w for w, _ in traced]) / _median(untraced)
                     - 1), "%", len(traced))
        if args.workload == "protocols":
            calls = _protocol_calls(tracer)
            tally.add([] if calls == work else
                      [f"traced protocol calls {calls} != {work}"])
        with open(out_dir / f"spans-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.to_json(), fh)

    # Worker-count invariance, outside the timed passes.
    workers = max(2, os.cpu_count() or 1)
    for single, multi in wl.invariance_ops(args.seed, out_dir, workers):
        a, b = wl.run_op(single), wl.run_op(multi)
        same = ((a.exit_code, b.exit_code) == (0, 0)
                and single.out.read_bytes() == multi.out.read_bytes())
        tally.add([] if same else [f"{single.label} and {multi.label} "
                                   f"record files differ"])

    metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio",
                             tally.attempted)
    metrics["result_max_abs_dev"] = (tally.max_dev, "abs", tally.attempted)
    return _report(args, metrics, tally, pairs)


def _report(args, metrics, tally: Tally, pairs) -> int:
    facts = machine_facts()
    mode = "traced" if args.trace else "untraced"
    print(f"# triact benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} ({mode})")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit:6s} n={n}")
    for p in tally.problems:
        print(f"# FAILED {p}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    out = {}
    for spec in wanted:
        value, unit, _ = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    rounds = {label: [{"wall_s": a.wall_s, "cpu_s": a.cpu_s,
                       "seed_copy_wall_s": b.wall_s,
                       "seed_copy_cpu_s": b.cpu_s} for a, b in ps]
              for label, ps in pairs.items()}
    with open(OUT / args.workload / f"result-seed{args.seed}-trace"
              f"{args.trace}.json", "w") as fh:
        json.dump({"machine": facts, "problems": tally.problems,
                   "rounds": rounds,
                   "metrics": {k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in metrics.items()}},
                  fh, indent=1)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "sweep", "protocols"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "triact" / "__init__.py").is_file():
        print(f"error: no triact package under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
