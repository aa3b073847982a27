"""The benchmark's workloads, their warm-up and the reference check.

Every operation is one in-process call of ``triact.cli.main``, the same
entry point a user runs, so an operation fails exactly when the CLI would
report a failure, or when its output differs from the reference recorded
in ``reference.json``.

The same operations also run on ``triact_seed``, a frozen copy of the
package as it was when the benchmark was defined.  The benchmark times
each operation on both, back to back, and reports the code under test on
the seed copy's clock (see ``REF_CLOCK``), so that the speed of the shared
machine at the moment of the run cancels out.

The caller puts the checkout's ``src`` first on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import resource
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Workload seed n runs input set n mod REFERENCE_SEEDS, the sets for which
# reference.json holds outputs recorded from the unmodified package.
REFERENCE_SEEDS = 32
FLOAT_TOL = 1e-9

CENSUS_STATES = 4096
SWEEP_STATES = 25
SWEEP_STEPS = 1000
SWEEP_CHANNELS = ("ad", "pd", "d")
PACKAGE = "triact"
SEED_PACKAGE = "triact_seed"

# About the median seconds of the seed copy on input sets 0..4, measured
# on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31
# with 2 threads): wall and CPU time of each operation, and set-up time
# of each workload.  wall_s, cpu_s and setup_s are the code under test's
# time as a share of the seed copy's, measured back to back, times these.
# They are fixed scales: never re-measure them, or figures taken before
# and after stop being comparable.
REF_CLOCK = {
    "census": (0.3924, 0.3844),
    "sweep-ad": (0.2867, 0.5643),
    "sweep-pd": (0.2932, 0.5740),
    "sweep-d": (0.7093, 1.1383),
    "verify": (6.1776, 12.2312),
    "iso-curve": (0.5837, 1.1600),
    "extension": (0.0071, 0.0150),
}
REF_SETUP_S = {"census": 0.34, "sweep": 0.34, "protocols": 0.24}

# Worker-count invariance: just over one harness chunk (4096 states), so
# the parallel run really splits the work.
INVARIANCE_STATES = 4100
INVARIANCE_SWEEP_STEPS = 2
SIZES = {"census_states": CENSUS_STATES, "sweep_states": SWEEP_STATES,
         "sweep_steps": SWEEP_STEPS, "seeds": REFERENCE_SEEDS}

# Protocol calls per `protocols` pass, counted from the harness code:
# verify runs double_teleport 5 (d=2) + 5 (d=3) + 1 + 11 times plus once
# inside teleport_distribution, and erased_protocol 4 times; iso-curve runs
# 201 double teleports; extension --k 4 builds one symmetric extension.
PROTOCOL_CALLS = (5 + 5 + 1 + 11 + 1) + 4 + 201 + 1

WORKLOADS = {
    # name: (work units per pass, end-to-end throughput metric)
    "census": (CENSUS_STATES, "states_per_s"),
    "sweep": (SWEEP_STATES * len(SWEEP_CHANNELS), "states_per_s"),
    "protocols": (PROTOCOL_CALLS, "protocol_calls_per_s"),
}


@dataclass(frozen=True)
class Op:
    """One CLI call; ``out`` is the file it writes, hashed if ``hashed``."""

    label: str
    argv: tuple
    out: Path | None = None
    hashed: bool = False


@dataclass
class OpResult:
    label: str
    exit_code: object
    summary: object
    sha256: str | None
    bytes_written: int
    wall_s: float
    cpu_s: float


def input_set(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def workload_ops(name: str, seed: int, out_dir: Path) -> list[Op]:
    s = str(input_set(seed))
    if name == "census":
        out = out_dir / "census.csv"
        return [Op("census", ("census", "--n-states", str(CENSUS_STATES),
                              "--seed", s, "--out", str(out)), out, True)]
    if name == "sweep":
        return [Op(f"sweep-{c}", ("sweep", "--channel", c, "--n-states",
                                  str(SWEEP_STATES), "--steps",
                                  str(SWEEP_STEPS), "--seed", s))
                for c in SWEEP_CHANNELS]
    if name == "protocols":
        out = out_dir / "iso_curve.json"
        return [Op("verify", ("verify", "--seed", s)),
                Op("iso-curve", ("iso-curve", "--out", str(out),
                                 "--format", "json"), out),
                Op("extension", ("extension", "--k", "4"))]
    raise ValueError(f"unknown workload {name!r}")


def _cpu_s() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def package(name: str = PACKAGE):
    """The package ``name``, CLI loaded: triact from the checkout's
    ``src``, or SEED_PACKAGE, the frozen copy the benchmark was defined
    on."""
    importlib.import_module(f"{name}.cli")
    return importlib.import_module(name)


def run_op(op: Op, tracer=None, pkg=None) -> OpResult:
    """Run one CLI call of ``pkg`` (triact by default), timed; with a
    tracer, inside a ``cli.main`` span."""
    pkg = pkg or package()
    if op.out is not None and op.out.exists():
        op.out.unlink()
    buf = io.StringIO()
    c0, t0 = _cpu_s(), perf_counter()
    try:
        with redirect_stdout(buf):
            if tracer is None:
                code = pkg.cli.main(list(op.argv))
            else:
                with tracer.span("cli.main"):
                    code = pkg.cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc()
        code = "exception"
    wall, cpu = perf_counter() - t0, _cpu_s() - c0
    try:
        summary = json.loads(buf.getvalue())
    except ValueError:
        summary = None
    written = op.out is not None and op.out.exists()
    return OpResult(op.label, code, summary,
                    _sha256(op.out) if written and op.hashed else None,
                    op.out.stat().st_size if written else 0, wall, cpu)


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    if ref["sizes"] != SIZES:
        raise ValueError(f"reference.json was recorded for {ref['sizes']}, "
                         f"the workloads use {SIZES}")
    return ref


def reference_entry(res: OpResult) -> dict:
    entry = {"exit_code": res.exit_code, "summary": res.summary}
    if res.sha256 is not None:
        entry["sha256"] = res.sha256
    return entry


def _compare(got, want, path: str, problems: list) -> float:
    """Largest float deviation; mismatched structure, flags, counts and
    floats beyond FLOAT_TOL are appended to ``problems``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ")
            return 0.0
        return max((_compare(got[k], want[k], f"{path}.{k}", problems)
                    for k in want), default=0.0)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length differs")
            return 0.0
        return max((_compare(g, w, f"{path}[{i}]", problems)
                    for i, (g, w) in enumerate(zip(got, want))), default=0.0)
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isnan(want) and math.isnan(got):
            return 0.0
        dev = abs(got - want)
        if not dev <= FLOAT_TOL:
            problems.append(f"{path}: {got!r} vs reference {want!r}")
        return dev
    if got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} vs reference {want!r}")
    return 0.0


def check(res: OpResult, want: dict) -> tuple[list, float]:
    """Compare one operation's outputs with its reference entry."""
    problems: list = []
    dev = _compare(reference_entry(res), want, res.label, problems)
    return problems, dev


def invariance_ops(seed: int, out_dir: Path, workers: int):
    """Pairs of the same small census and sweep at 1 and ``workers``."""
    s = str(input_set(seed))
    pairs = []
    for exp, extra in (("census", ()),
                       ("sweep", ("--channel", "d", "--steps",
                                  str(INVARIANCE_SWEEP_STEPS)))):
        pair = []
        for threads in (1, workers):
            out = out_dir / f"invariance_{exp}_t{threads}.csv"
            pair.append(Op(f"{exp}-threads{threads}",
                           (exp, "--n-states", str(INVARIANCE_STATES),
                            "--seed", s, "--threads", str(threads),
                            "--out", str(out), *extra), out))
        pairs.append(pair)
    return pairs


def warm_up(name: str, pkg=None) -> None:
    """Import-time and first-call costs of the layers a workload uses."""
    pkg = pkg or package()
    argvs = {
        "census": [("census", "--n-states", "64", "--seed", "0")],
        "sweep": [("sweep", "--channel", c, "--n-states", "2", "--steps",
                   "10", "--seed", "0") for c in SWEEP_CHANNELS],
        "protocols": [("extension", "--k", "2")],
    }[name]
    with redirect_stdout(io.StringIO()):
        for argv in argvs:
            if pkg.cli.main(list(argv)) != 0:
                raise RuntimeError(f"warm-up call {argv} failed")
    if name == "protocols":
        pkg.double_teleport(pkg.max_entangled(2), 0.5, 2, (0, 0))
