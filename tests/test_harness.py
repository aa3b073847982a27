import concurrent.futures
import csv
import dataclasses
import errno
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from triact import channels, cli, criteria, harness
from triact.cli import build_parser, main as cli_main
from triact.harness import (ExperimentConfig, HarnessIOError, run_census,
                            run_decoherence_sweep, run_extension_verify,
                            run_iso_curve, run_protocol_verify,
                            _interval_columns)
from triact.states import RngSeed


def census_cfg(**kw):
    base = dict(experiment="census", n_states=200, seed=12)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(channel="XY")
    # unhashable names are unknown names, not a TypeError
    for field in ("experiment", "channel", "output_format"):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig(**{field: []})


def test_census_deterministic_csv(tmp_path):
    # CHUNK_SIZE + 4 states make two chunks, so threads=3 runs a real
    # two-process pool; a pathlib path writes what its str does
    n_states = harness.CHUNK_SIZE + 4
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    run_census(census_cfg(n_states=n_states, output_path=str(paths[0])))
    run_census(census_cfg(n_states=n_states, output_path=paths[1]))
    run_census(census_cfg(n_states=n_states, output_path=str(paths[2]),
                          threads=3))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def cpus(monkeypatch, n):
    """This process may run on ``n`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture
def built(monkeypatch):
    """The worker count of each pool a run asks for: a fake pool, which
    _run_chunked imports from concurrent.futures, runs the chunks in this
    process and starts none."""
    built = []

    class FakePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return built


def test_worker_count_clamped_to_chunks(monkeypatch, built):
    """The pool gets at most one worker per chunk and per CPU, and one
    chunk runs serially."""
    cpus(monkeypatch, 64)
    run_census(census_cfg(n_states=10, threads=1000))
    assert built == []
    run_census(census_cfg(n_states=harness.CHUNK_SIZE + 4, threads=1000))
    assert built == [2]
    # three chunks on two CPUs get two workers; an unknown count gets one
    cpus(monkeypatch, 2)
    run_census(census_cfg(n_states=2 * harness.CHUNK_SIZE + 1, threads=1000))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_census(census_cfg(n_states=harness.CHUNK_SIZE + 4, threads=1000))
    assert built == [2, 2]
    # a sweep has chunks of its own size: one state more makes two (its
    # chunks are stubbed, so this counts chunks only)
    cpus(monkeypatch, 64)
    monkeypatch.setattr(harness, "_sweep_chunk", lambda seed, idx, ch, ts:
                        np.zeros((len(idx), len(ts)), dtype=bool))
    for n_states in (harness.SWEEP_CHUNK_SIZE, harness.SWEEP_CHUNK_SIZE + 1):
        run_decoherence_sweep(ExperimentConfig(
            experiment="decoherence_sweep", n_states=n_states,
            n_time_steps=2, channel="AD", threads=1000))
    assert built == [2, 2, 2]


def test_worker_count_reads_the_affinity_set(monkeypatch, built):
    """The CPUs counted are the ones this process may run on: pinned to
    one (``taskset -c 0``), ``--threads 2`` runs serially on a 64-CPU
    machine; without an affinity set the machine's count is read."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cpus(monkeypatch, 1)
    run_census(census_cfg(n_states=2 * harness.CHUNK_SIZE + 1, threads=2))
    assert built == []
    monkeypatch.delattr(os, "sched_getaffinity")
    run_census(census_cfg(n_states=2 * harness.CHUNK_SIZE + 1, threads=2))
    assert built == [2]


def test_pool_holds_at_most_two_chunks_per_worker(monkeypatch):
    """A pool run submits chunks through a window of two per worker: the
    chunks submitted and not yet yielded never exceed it, and every chunk
    is yielded once, in order."""
    submitted = []

    class FakePool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, seed, idx):
            submitted.append(idx)
            future = concurrent.futures.Future()
            future.set_result(fn(seed, idx))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    cpus(monkeypatch, 64)
    cfg = census_cfg(n_states=50, threads=3)
    yielded = []
    for idx, result in harness._run_chunked(lambda seed, idx: idx.start,
                                            cfg, 4):
        assert result == idx.start
        assert len(submitted) - len(yielded) <= 2 * 3
        yielded.append(idx)
    assert yielded == submitted == list(harness._chunks(50, 4))


def test_census_single_state_record(tmp_path):
    path = tmp_path / "one.csv"
    run_census(census_cfg(n_states=1, output_path=str(path)))
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0][0] == "state_index"
    assert len(rows) == 2 and rows[1][0] == "0"


def test_census_json_output(tmp_path):
    path = tmp_path / "out.json"
    s = run_census(census_cfg(n_states=50, output_path=str(path),
                              output_format="json"))
    payload = json.loads(path.read_text())
    assert len(payload["records"]) == 50
    assert payload["summary"]["frac_no_chsh_violation"] == s["frac_no_chsh_violation"]


def _blocks(cols: dict, cuts) -> list:
    """The record blocks of ``cols`` between consecutive ``cuts``."""
    return [{name: col[lo:hi] for name, col in cols.items()}
            for lo, hi in zip(cuts, cuts[1:])]


def test_csv_cells_match_per_value_fmt(tmp_path):
    """The template-filled CSV text of ``_write_table`` is what
    ``csv.writer`` writes for rows of ``_fmt`` applied value by value,
    for every column kind the harness writes, for 7, 1 and 0 records in
    one block and for the 7 in blocks of 0, 3, 0 and 4."""
    cols = {
        "flag": np.array([True, False, True, True, False, False, True]),
        "index": np.arange(7, dtype=np.int64),
        "x": np.array([math.nan, math.inf, -0.0, 1e-300, 123456789012345.0,
                       1234567.890123, -math.inf]),
        "t_start": np.array([None, 0.25, None, 1 / 3, -0.0, 1e-300, None],
                            dtype=object),
    }
    summary = {"n_states": 7, "channel": "D", "share": 2 / 3, "none": None}
    for cuts in ((0, 7), (0, 1), (0, 0), (0, 0, 3, 3, 7)):
        n = cuts[-1]
        part = {name: col[:n] for name, col in cols.items()}
        path = tmp_path / f"t{len(cuts)}_{n}.csv"
        harness._write_table(ExperimentConfig(output_path=str(path)),
                             _blocks(cols, cuts), lambda: summary)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(part)
        for row in zip(*(c.tolist() for c in part.values())):
            writer.writerow([harness._fmt(x) for x in row])
        for key in sorted(summary):
            writer.writerow([f"# {key}", harness._fmt(summary[key])])
        assert path.read_bytes() == want.getvalue().encode("ascii"), n


def test_census_chunk_classifies_the_stacked_states(monkeypatch):
    """``_census_chunk`` hands ``classify_batch`` the bytes of
    ``np.stack`` of the chunk's sampled matrices and of their spectra."""
    monkeypatch.setattr(criteria, "classify_batch",
                        lambda mats, spectra: (mats, spectra))
    indices = [0, 1, 2, 4095, 4096, 9999]
    got = harness._census_chunk(12, indices)
    states = [harness.random_mixed_hs(4, RngSeed(12, i), dims=(2, 2))
              for i in indices]
    want = (np.stack([rho.matrix for rho in states]),
            np.stack([rho.spectrum for rho in states]))
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_json_table_matches_json_dumps(tmp_path):
    """Column-wise JSON writing gives the bytes of ``json.dumps`` of the
    whole payload with ``indent=1``, for every column kind, for 7, 1 and
    0 records in one block and for the 7 in blocks of 0, 3, 0 and 4."""
    cols = {
        "flag": np.array([True, False, True, True, False, False, True]),
        "index": np.arange(7, dtype=np.int64),
        "x": np.array([math.nan, math.inf, -0.0, 1e-300, 0.1 + 0.2,
                       -math.inf, 2 / 3]),
        "t_start": np.array([None, 0.25, 'say "\u00e9t\u00e9"', None, -0.0,
                             math.nan, None], dtype=object),
    }
    summary = {"n_states": 7, "channel": "D", "share": 2 / 3, "none": None,
               "nan": math.nan, "checks": [{"passed": True}]}
    for cuts in ((0, 7), (0, 1), (0, 0), (0, 0, 3, 3, 7)):
        n = cuts[-1]
        part = {name: col[:n] for name, col in cols.items()}
        path = tmp_path / f"t{len(cuts)}_{n}.json"
        harness._write_table(ExperimentConfig(output_path=str(path),
                                              output_format="json"),
                             _blocks(cols, cuts), lambda: summary)
        rows = zip(*(c.tolist() for c in part.values()))
        payload = {"records": [dict(zip(part, row)) for row in rows],
                   "summary": summary}
        want = json.dumps(payload, indent=1) + "\n"
        assert path.read_bytes() == want.encode("ascii"), n


def test_interval_record_extraction():
    ts = np.linspace(0, 1, 11)
    flags = np.zeros((3, 11), dtype=bool)
    flags[0, 2:5] = True
    flags[1, [1, 3]] = True
    cols = _interval_columns(flags, ts)
    rec = [{f: c[i] for f, c in cols.items()} for i in range(3)]
    assert rec[0]["activated"]
    assert abs(rec[0]["t_start"] - 0.2) < 1e-12
    assert abs(rec[0]["t_end"] - 0.4) < 1e-12
    assert abs(rec[0]["width"] - 0.3) < 1e-12       # three cells of 0.1
    assert abs(rec[0]["span_width"] - 0.3) < 1e-12
    assert not rec[0]["multi_interval"] and rec[0]["n_nlr_steps"] == 3
    assert rec[1]["multi_interval"]
    assert abs(rec[1]["width"] - 0.2) < 1e-12       # total measure
    assert abs(rec[1]["span_width"] - 0.3) < 1e-12  # min-to-max span
    assert not rec[2]["activated"] and rec[2]["width"] == 0.0
    assert rec[2]["span_width"] == 0.0 and rec[2]["n_nlr_steps"] == 0
    assert rec[2]["t_start"] is None and rec[2]["t_end"] is None
    assert not rec[2]["multi_interval"]


def test_sweep_two_step_grid_endpoints():
    # with only t = 0 and t = 1, depolarization leaves no NLR window:
    # pure states at t=0 either violate CHSH or are product; at t=1 all
    # flags are false on the maximally mixed state
    s = run_decoherence_sweep(ExperimentConfig(
        experiment="decoherence_sweep", n_states=200, n_time_steps=2,
        channel="D", seed=3))
    assert s["pct_nlr_states"] == 0.0


def test_sweep_deterministic_across_threads(tmp_path):
    # SWEEP_CHUNK_SIZE + 4 states make two chunks, so threads=2 runs a real
    # two-process pool.  On 5 steps about a quarter of the AD states are
    # activated (none on 2 or 3), so records that left their place would
    # show.
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, threads in zip(paths, (1, 2)):
        run_decoherence_sweep(ExperimentConfig(
            experiment="decoherence_sweep",
            n_states=harness.SWEEP_CHUNK_SIZE + 4,
            n_time_steps=5, channel="AD", seed=4, threads=threads,
            output_path=str(path)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_records_do_not_depend_on_chunking(tmp_path, monkeypatch, fmt):
    """Census and sweep files written in several chunks, the last one
    short, serially and on two workers, hold the bytes of one chunk.  The
    PD_verbatim sweep has states never activated and states with several
    NLR intervals."""
    runs = {
        # 30 states in chunks of 7: four full ones and a short one
        "census": (run_census, "CHUNK_SIZE", 7, census_cfg(n_states=30)),
        # 10 states in chunks of 3: three full ones and a short one
        "sweep": (run_decoherence_sweep, "SWEEP_CHUNK_SIZE", 3,
                  ExperimentConfig(experiment="decoherence_sweep",
                                   n_states=10, n_time_steps=50,
                                   channel="PD_verbatim", seed=1)),
    }
    for name, (runner, size_name, size, cfg) in runs.items():
        blobs, summaries = [], []
        for chunk, threads in ((cfg.n_states, 1), (size, 1), (size, 2)):
            monkeypatch.setattr(harness, size_name, chunk)
            path = tmp_path / f"{name}_{chunk}_t{threads}.{fmt}"
            summaries.append(runner(dataclasses.replace(
                cfg, output_path=str(path), output_format=fmt,
                threads=threads)))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], name
        assert summaries[0] == summaries[1] == summaries[2], name


def test_sweep_chunk_memory_bound():
    # 25 depolarized states on the paper's 1000-step grid: the Kraus
    # stack (4 MB), which the per-t superoperators (4 KB per step)
    # overwrite, and one state's stacks.
    ts = np.linspace(0.0, 1.0, 1000)
    tracemalloc.start()
    try:
        harness._sweep_chunk(0, range(25), "D", ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("channel", harness.CHANNELS)
def test_superoperators_overwrite_exactly_16_row_stacks(channel):
    """The maps of a Kraus stack are, bit for bit, those a new array gets
    from a read-only copy of it, on a grid whose last block is short; they
    are the stack's own memory exactly when it holds 16 operators per t
    (D's), and a fresh array for AD's and PD's 4."""
    stack = channels.two_qubit_kraus_stack(harness.CHANNELS[channel],
                                           np.linspace(0.0, 1.0, 150))
    frozen = stack.copy()
    frozen.flags.writeable = False
    want = harness._superoperators(frozen)
    assert not np.shares_memory(want, frozen)
    got = harness._superoperators(stack)
    assert got.shape == want.shape == (150, 16, 16)
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, stack) == (stack.shape[1] == 16)
    assert (stack.shape[1] == 16) == (channel == "D")


def test_protocol_verify_all_pass():
    report = run_protocol_verify(ExperimentConfig(
        experiment="protocol_verify", seed=2, k=3.0, p=0.8))
    assert report["all_passed"], report


def test_extension_verify_all_pass():
    for k in (2, 3, 4):
        report = run_extension_verify(ExperimentConfig(
            experiment="extension_verify", k=k))
        names = [c["name"] for c in report["checks"]]
        assert names == [f"extension_marginals_k{k}"]
        assert report["all_passed"]


def test_iso_curve_grid(tmp_path):
    path = tmp_path / "iso.json"
    out = run_iso_curve(ExperimentConfig(experiment="iso_curve",
                                         output_path=str(path),
                                         output_format="json"))
    rows = json.loads(path.read_text())["records"]
    assert len(rows) == 201
    first, last = rows[0], rows[-1]
    assert first["m_value"] < 1e-12 and first["activated_chsh"] < 1e-9
    assert abs(last["m_value"] - 2) < 1e-9
    assert abs(last["chsh_max"] - 2 * math.sqrt(2)) < 1e-9
    # activated CHSH crosses 2 at p = 2^(-1/4), within one grid step
    assert abs(out["activated_crossing_p"] - 2 ** -0.25) <= 1 / 200 + 1e-12


def _subprocess_env():
    """The environment with this checkout's triact first on the path."""
    import triact
    src = str(Path(triact.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_leaves_numpy_random_and_process_pool_unloaded():
    """numpy.random loads with the first sample stream and the process
    pool with the first run on more than one worker, not on import."""
    code = ("import sys, triact.cli; print([m for m in ('numpy.random', "
            "'concurrent.futures.process') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_cli_verify_exit_code(capsys):
    assert cli_main(["verify", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"]


def test_cli_census_with_flags(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code = cli_main(["census", "--n-states", "100", "--seed", "5",
                     "--out", str(out_path), "--format", "csv"])
    assert code == 0 and out_path.exists()


def test_cli_exit_1_only_from_failed_checks(monkeypatch, capsys):
    """verify and extension exit 1 when a check fails; census and
    iso-curve have no checks and exit 0."""
    monkeypatch.setattr(harness, "_check", lambda name, residual, tol: {
        "name": name, "residual": float(residual), "tol": tol,
        "passed": False})
    assert cli_main(["verify"]) == 1
    assert cli_main(["extension", "--k", "2"]) == 1
    assert cli_main(["census", "--n-states", "10"]) == 0
    assert cli_main(["iso-curve"]) == 0


def test_cli_parser_built_once():
    assert build_parser() is build_parser()


def test_cli_config_file_through_console_path(tmp_path):
    """``python -m triact.cli`` (main with argv=None) reads a config file
    as the in-process call does."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# census settings\n\nn_states = 60\nseed = 3\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["census", "--config", str(cfg_file), "--seed", "9",
                     "--out", str(out_a)]) == 0
    subprocess.run([sys.executable, "-m", "triact.cli", "census",
                    "--config", str(cfg_file), "--seed", "9",
                    "--out", str(out_b)], env=_subprocess_env(), check=True,
                   capture_output=True)
    assert out_b.read_bytes() == out_a.read_bytes()
    # the flag beat the file: seed 9, not 3
    out_c = tmp_path / "c.csv"
    assert cli_main(["census", "--n-states", "60", "--seed", "9",
                     "--out", str(out_c)]) == 0
    assert out_c.read_bytes() == out_a.read_bytes()


def test_cli_config_values_parsed_as_flags(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    # values a flag rejects, including a channel's harness name
    for line in ("format = xml", "seed = 1.5", "channel = AD"):
        cfg_file.write_text(line + "\n")
        assert cli_main(["sweep", "--config", str(cfg_file), "--n-states",
                         "2", "--steps", "2"]) == 2
        # one line, naming the file as well as the flag
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_file}: argument --")
        assert err.count("\n") == 1
    for text in ("bogus = 1\n", "seed 5\n"):
        cfg_file.write_text(text)
        assert cli_main(["census", "--config", str(cfg_file)]) == 2
    # census does not read steps or channel, so they are dropped
    cfg_file.write_text("steps = 1.5\nchannel = AD\nn-states = 10\n")
    capsys.readouterr()
    assert cli_main(["census", "--config", str(cfg_file)]) == 0
    assert json.loads(capsys.readouterr().out)["n_states"] == 10
    cfg_file.write_text("channel = pd-verbatim\nsteps = 3\n")
    assert cli_main(["sweep", "--config", str(cfg_file),
                     "--n-states", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["channel"], summary["n_time_steps"]) == ("PD_verbatim", 3)


def test_cli_bad_arguments_exit_2(capsys):
    assert cli_main(["census", "--format", "xml"]) == 2
    # a missing config file, and an empty path, which names no file either
    for path in ("/nonexistent/file.cfg", ""):
        assert cli_main(["census", "--config", path]) == 2
    # flags a subcommand does not read, and --d, which none takes; no
    # subcommand, and one that does not exist
    for argv in (["census", "--steps", "5"], ["sweep", "--k", "2"],
                 ["verify", "--n-states", "5"],
                 ["iso-curve", "--seed", "5", "--d", "7", "--threads", "3",
                  "--n-states", "9"],
                 ["extension", "--out", "x.json"], ["census", "--d", "3"],
                 [], ["scan"], ["census", "--n-states"],
                 ["verify", "--k", "abc"]):
        assert cli_main(argv) == 2
    # each bad input above: one error line and nothing on stdout, and no
    # line names a private identifier (argparse names a flag's type
    # callable)
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 13 and all(ln.startswith("error: ") for ln in lines)
    assert not any(re.search(r"(?<!\w)_\w", ln) for ln in lines)
    assert cli_main(["verify", "--p", "2"]) == 2
    # k below 1, and k where the erased success branch (1/(4k^2)) falls
    # under the zero-probability marker, or not finite
    for k in ("0.5", "5e5", "1e7", "inf", "nan"):
        assert cli_main(["verify", "--k", k]) == 2
    # seeds outside [0, 2**64) for both seed consumers: the Philox key of
    # census and sweep, and verify's default_rng
    for cmd in ("census", "sweep", "verify"):
        for seed in ("-1", str(2**64)):
            assert cli_main([cmd, "--seed", seed]) == 2
    # extension checks exactly the k it is given, an integer written as one
    for k in ("2.5", "9", "0", "4.0"):
        assert cli_main(["extension", "--k", k]) == 2
    # an empty --out would otherwise write nothing and exit 0
    assert cli_main(["census", "--n-states", "10", "--out", ""]) == 2


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["census", "--help"], ["sweep", "-h"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: triact")


def test_config_defaults_match_the_cli():
    """The CLI sets no defaults of its own: an unset flag takes the
    ExperimentConfig default, and sweeps default to 2000 states."""
    assert ExperimentConfig(experiment="decoherence_sweep").n_states == 2000
    assert ExperimentConfig(experiment="census").n_states == 100_000
    assert ExperimentConfig().n_states == 100_000
    assert ExperimentConfig(experiment="decoherence_sweep",
                            n_states=7).n_states == 7
    parser = build_parser()
    for name, (experiment, _) in cli.SUBCOMMANDS.items():
        assert cli.make_config(parser.parse_args([name])) == \
            ExperimentConfig(experiment=experiment)


def test_cli_closed_stdout_exit_3():
    """A summary that cannot be written because the reader has gone
    exits 3, without a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "triact.cli", "sweep",
                               "--n-states", "3", "--steps", "20"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_subprocess_env(), text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_cli_io_error_exit_3(tmp_path, monkeypatch, capsys):
    """An --out that cannot be written exits 3 before any chunk runs."""
    calls = []
    for name in ("_census_chunk", "_sweep_chunk"):
        chunk = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, chunk=chunk:
                            calls.append(a[1]) or chunk(*a))
    target = tmp_path / "a-directory"
    target.mkdir()
    for out in ("/nonexistent-dir/x.csv", str(target)):
        assert cli_main(["census", "--n-states", "3000", "--out", out]) == 3
        assert cli_main(["sweep", "--n-states", "3", "--steps", "20",
                         "--out", out]) == 3
    assert calls == []
    assert list(tmp_path.iterdir()) == [target]


def test_failed_write_keeps_previous_output(tmp_path, monkeypatch):
    """An OSError partway through a write leaves the file at the target
    byte-identical and no temp file behind."""
    def failing_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def half_write(text):
            write(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        fh.write = half_write
        return fh

    targets = {"verify.json": lambda path: run_protocol_verify(
                   ExperimentConfig(experiment="protocol_verify",
                                    output_path=path)),
               "census.csv": lambda path: run_census(census_cfg(
                   n_states=20, output_path=path))}
    for name, experiment in targets.items():
        target = tmp_path / name
        target.write_bytes(b"previous\n")
        monkeypatch.setattr(harness, "open", failing_open, raising=False)
        with pytest.raises(HarnessIOError):
            experiment(str(target))
        monkeypatch.undo()
        assert target.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(targets)
    experiment(str(target))
    assert target.read_text().startswith("state_index,")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(targets)


def test_interrupted_write_reraises_and_cleans_up(tmp_path, monkeypatch):
    """An exception other than OSError partway through a write propagates
    as it is, with the target unchanged and no temp file behind."""
    def interrupted_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def half_write(text):
            write(text[:len(text) // 2])
            raise KeyboardInterrupt
        fh.write = half_write
        return fh

    target = tmp_path / "out.csv"
    target.write_bytes(b"previous\n")
    monkeypatch.setattr(harness, "open", interrupted_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        harness._write_atomic(str(target), ["new,", "text\n"])
    assert target.read_bytes() == b"previous\n"
    assert list(tmp_path.iterdir()) == [target]


_CENSUS_CHUNK = harness._census_chunk


def _marked_census_chunk(mark_dir, fail_at, error, seed, indices):
    """The census chunk, after a 20 ms pause, with one file per chunk
    left in ``mark_dir``; the chunk that starts at ``fail_at`` raises
    ``error`` at once instead."""
    if indices.start == fail_at:
        raise error
    time.sleep(0.02)
    Path(mark_dir, str(indices.start)).touch()
    return _CENSUS_CHUNK(seed, indices)


def _failing_open(*args, **kwargs):
    """``open``, with a file whose every write fails for want of space."""
    fh = open(*args, **kwargs)

    def write(text):
        raise OSError(errno.ENOSPC, "No space left on device")
    fh.write = write
    return fh


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_run_keeps_previous_output_and_stops(tmp_path, monkeypatch,
                                                    threads):
    """A chunk that raises mid-run, and a write that fails, leave the
    target as it was and no temp file; the error propagates as it is
    (KeyboardInterrupt too) or, for the write, as a HarnessIOError; and
    no further chunk starts, so a pool's pending chunks are cancelled,
    not computed to the end."""
    monkeypatch.setattr(harness, "CHUNK_SIZE", 5)
    n_chunks = 40
    marks = tmp_path / "marks"
    target = tmp_path / "census.csv"
    # the chunk that fails, what it raises, what the run raises, the
    # open the writer uses, and the chunks a serial run completes
    cases = (
        (15, ValueError("chunk failed"), ValueError, open, 3),
        (15, KeyboardInterrupt(), KeyboardInterrupt, open, 3),
        (None, None, HarnessIOError, _failing_open, 1),
    )
    for fail_at, raised, expected, opener, serial_runs in cases:
        marks.mkdir()
        target.write_bytes(b"previous\n")
        monkeypatch.setattr(harness, "_census_chunk", functools.partial(
            _marked_census_chunk, str(marks), fail_at, raised))
        monkeypatch.setattr(harness, "open", opener, raising=False)
        with pytest.raises(expected) as caught:
            run_census(census_cfg(n_states=5 * n_chunks, threads=threads,
                                  output_path=str(target)))
        assert target.read_bytes() == b"previous\n"
        assert sorted(tmp_path.iterdir()) == [target, marks]
        if threads == 1:
            assert len(list(marks.iterdir())) == serial_runs, expected
        else:
            # While the error, and with it the run's frames, are still
            # held, no chunk runs on: at most those that were running or
            # queued for the two workers ran.
            time.sleep(0.5)
            assert len(list(marks.iterdir())) < n_chunks // 2, expected
        del caught
        for mark in marks.iterdir():
            mark.unlink()
        marks.rmdir()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_census_memory_flat_in_n_states(tmp_path):
    """Records stream to the file chunk by chunk: a 50 000-state census
    written as CSV raises a fresh interpreter's peak RSS by less than
    8 MB over that of a 64-state warm-up census.  On a 2-vCPU x86-64 VM
    (Python 3.11.7, numpy 2.4.6) the growth measured 24.5 MB when every
    record was held and the file rendered in one string, and 0.7 MB
    streamed (0.8 MB at 400 000 states).  The peak is VmHWM, that of the
    interpreter's own address space: Linux keeps ru_maxrss across
    execve, so there it would start at the RSS of this test process."""
    code = """if True:
        import sys
        from triact.harness import ExperimentConfig, run_census
        def peak_mb():
            with open("/proc/self/status") as fh:
                line = next(x for x in fh if x.startswith("VmHWM:"))
            return int(line.split()[1]) / 1024
        run_census(ExperimentConfig(n_states=64,
                                    output_path=sys.argv[1] + "/w.csv"))
        before = peak_mb()
        run_census(ExperimentConfig(n_states=50_000,
                                    output_path=sys.argv[1] + "/c.csv"))
        print(peak_mb() - before)
    """
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=_subprocess_env(), capture_output=True,
                         text=True, check=True, timeout=300)
    assert float(out.stdout) < 8, out.stdout


def test_json_and_csv_agree(tmp_path):
    c = tmp_path / "s.csv"
    j = tmp_path / "s.json"
    bools = {"violates_chsh", "hashing_distillable", "nonlocal_resource",
             "activated", "multi_interval"}
    ints = {"state_index", "n_nlr_steps"}
    nullable = {"t_start", "t_end"}
    # PD_verbatim has states that are never activated and states with
    # several NLR intervals
    sweep = ExperimentConfig(experiment="decoherence_sweep", n_states=12,
                             n_time_steps=50, channel="PD_verbatim", seed=1)
    # the iso-curve's 201 rows are all floats
    iso = ExperimentConfig(experiment="iso_curve")
    for runner, cfg, n_rows in ((run_census, census_cfg(n_states=20), 20),
                                (run_decoherence_sweep, sweep, 12),
                                (run_iso_curve, iso, 201)):
        runner(dataclasses.replace(cfg, output_path=str(c)))
        runner(dataclasses.replace(cfg, output_path=str(j),
                                   output_format="json"))
        payload = json.loads(j.read_text())
        # no name or cell needs quoting: split on commas, every line has
        # its row's field count, and csv.writer writes the same bytes back
        raw = c.read_bytes().decode()
        lines = [line.split(",") for line in raw.split("\r\n")[:-1]]
        n_keys = len(payload["summary"])
        assert {len(r) for r in lines[:-n_keys]} == {len(lines[0])}
        assert {len(r) for r in lines[-n_keys:]} == {2}
        buf = io.StringIO()
        csv.writer(buf).writerows(lines)
        assert buf.getvalue() == raw
        with open(c) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        header = rows[0]
        assert len(rows) - 1 == len(payload["records"]) == n_rows
        for row, rec in zip(rows[1:], payload["records"]):
            assert list(rec) == header
            for name, val in zip(header, row):
                if name in bools:
                    assert rec[name] is (val == "1") and val in ("0", "1")
                elif name in ints:
                    assert type(rec[name]) is int and rec[name] == int(val)
                elif name in nullable and rec[name] is None:
                    assert val == "" and not rec["activated"]
                else:
                    assert abs(rec[name] - float(val)) < 1e-9
        if runner is run_decoherence_sweep:
            assert any(rec["t_start"] is None for rec in payload["records"])
            assert any(rec["multi_interval"] for rec in payload["records"])
