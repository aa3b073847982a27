import concurrent.futures
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triact import channels, cli, criteria, harness
from triact.cli import build_parser, main as cli_main
from triact.harness import (ExperimentConfig, HarnessIOError, run_census,
                            run_decoherence_sweep, run_extension_verify,
                            run_iso_curve, run_protocol_verify,
                            _interval_columns)
from triact.states import RngSeed, random_pure_fs


def census_cfg(**kw):
    base = dict(experiment="census", n_states=200, seed=12)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(n_states=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="decoherence_sweep", n_time_steps=1)
    with pytest.raises(ValueError):
        ExperimentConfig(channel="XY")
    # unhashable names are unknown names, not a TypeError
    for field in ("experiment", "channel", "output_format"):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig(**{field: []})
    # every field is checked for every experiment, read or not
    for field, bad in (("p", "x"), ("k", None), ("n_time_steps", -5)):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(experiment="census", **{field: bad})
    for field in ("n_states", "n_time_steps", "seed", "threads"):
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(experiment="decoherence_sweep",
                                 **{field: bad})
    cfg = ExperimentConfig(n_states=np.int64(5), n_time_steps=np.uint8(3),
                           seed=np.uint64(2**64 - 1), threads=np.int32(2))
    assert ((cfg.n_states, cfg.n_time_steps, cfg.seed, cfg.threads)
            == (5, 3, 2**64 - 1, 2))
    assert all(type(v) is int for v in (cfg.n_states, cfg.n_time_steps,
                                         cfg.seed, cfg.threads))


def test_census_deterministic_csv(tmp_path):
    # 4100 states make two chunks, so threads=3 runs a real two-process pool
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    run_census(census_cfg(n_states=4100, output_path=str(paths[0])))
    run_census(census_cfg(n_states=4100, output_path=str(paths[1])))
    run_census(census_cfg(n_states=4100, output_path=str(paths[2]),
                          threads=3))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_worker_count_clamped_to_chunks(monkeypatch):
    """The pool gets at most one worker per chunk, and one chunk runs
    serially; a fake pool records the request and starts no process."""
    built = []

    class FakePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # _run_chunked imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    run_census(census_cfg(n_states=10, threads=1000))
    assert built == []
    run_census(census_cfg(n_states=4100, threads=1000))
    assert built == [2]


def test_census_bookkeeping_identity():
    s = run_census(census_cfg(n_states=500))
    lhs = s["frac_nlr_of_nonviolating"] * s["frac_no_chsh_violation"]
    assert abs(lhs - s["frac_nlr_of_all"]) < 1e-12


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


def test_csv_cells_match_per_value_fmt(tmp_path):
    """The template-filled CSV text of ``_write_table`` is what
    ``csv.writer`` writes for rows of ``_fmt`` applied value by value,
    for every column kind the harness writes and for 7, 1 and 0
    records."""
    cols = {
        "flag": np.array([True, False, True, True, False, False, True]),
        "index": np.arange(7, dtype=np.int64),
        "x": np.array([math.nan, math.inf, -0.0, 1e-300, 123456789012345.0,
                       1234567.890123, -math.inf]),
        "t_start": np.array([None, 0.25, None, 1 / 3, -0.0, 1e-300, None],
                            dtype=object),
    }
    summary = {"n_states": 7, "channel": "D", "share": 2 / 3, "none": None}
    for n in (7, 1, 0):
        part = {name: col[:n] for name, col in cols.items()}
        path = tmp_path / f"t{n}.csv"
        harness._write_table(ExperimentConfig(output_path=str(path)), part,
                             summary)
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
    ``np.stack`` of the chunk's sampled matrices."""
    monkeypatch.setattr(criteria, "classify_batch", lambda mats: mats)
    indices = [0, 1, 2, 4095, 4096, 9999]
    got = harness._census_chunk(12, indices)
    want = np.stack([harness.random_mixed_hs(4, RngSeed(12, i),
                                             dims=(2, 2)).matrix
                     for i in indices])
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_json_table_matches_json_dumps(tmp_path):
    """Column-wise JSON writing gives the bytes of ``json.dumps`` of the
    whole payload with ``indent=1``, for every column kind and for zero
    records."""
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
    for n in (7, 1, 0):
        part = {name: col[:n] for name, col in cols.items()}
        path = tmp_path / f"t{n}.json"
        harness._write_table(ExperimentConfig(output_path=str(path),
                                              output_format="json"),
                             part, summary)
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
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, threads in zip(paths, (1, 2)):
        run_decoherence_sweep(ExperimentConfig(
            experiment="decoherence_sweep", n_states=60, n_time_steps=40,
            channel="AD", seed=4, threads=threads, output_path=str(path)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_trajectory_matches_batch_sweep(tmp_path):
    """Every written sweep record agrees with the flags of its state
    decohered by `channels.local_decohere` and classified by
    `criteria.classify` at each grid point."""
    path = tmp_path / "s.json"
    seen = set()
    for channel in ("AD", "PD", "PD_verbatim", "D"):
        cfg = ExperimentConfig(experiment="decoherence_sweep", n_states=4,
                               n_time_steps=25, channel=channel, seed=9,
                               output_path=str(path), output_format="json")
        run_decoherence_sweep(cfg)
        records = json.loads(path.read_text())["records"]
        assert len(records) == cfg.n_states
        ts = np.linspace(0.0, 1.0, cfg.n_time_steps)
        for i, rec in enumerate(records):
            psi = random_pure_fs(4, RngSeed(cfg.seed, i), dims=(2, 2))
            hits = np.flatnonzero([
                criteria.classify(channels.local_decohere(
                    psi, harness.CHANNELS[channel], float(t))
                ).nonlocal_resource for t in ts])
            assert rec["state_index"] == i
            assert rec["n_nlr_steps"] == hits.size
            if hits.size:
                assert rec["t_start"] == ts[hits[0]]
                assert rec["t_end"] == ts[hits[-1]]
                multi = hits.size != hits[-1] - hits[0] + 1
                assert rec["multi_interval"] == multi
                seen.add("multi" if multi else "single")
            else:
                assert rec["t_start"] is None and rec["t_end"] is None
                seen.add("never")
    # the sample covers each kind of record
    assert seen == {"single", "multi", "never"}


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
    path = tmp_path / "iso.csv"
    out = run_iso_curve(ExperimentConfig(experiment="iso_curve",
                                         output_path=str(path)))
    rows = out["records"]
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


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n-states = 50\nseed = 8\nchannel = ad\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["census", "--config", str(cfg_file),
                     "--out", str(out_a)]) == 0
    # flag overrides the file seed, so output differs
    assert cli_main(["census", "--config", str(cfg_file), "--seed", "9",
                     "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


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
    cfg_missing = cli_main(["census", "--config", "/nonexistent/file.cfg"])
    assert cfg_missing == 2
    # flags a subcommand does not read, and --d, which none takes; no
    # subcommand, and one that does not exist
    for argv in (["census", "--steps", "5"], ["sweep", "--k", "2"],
                 ["verify", "--n-states", "5"],
                 ["iso-curve", "--seed", "5", "--d", "7", "--threads", "3",
                  "--n-states", "9"],
                 ["extension", "--out", "x.json"], ["census", "--d", "3"],
                 [], ["scan"], ["census", "--n-states"]):
        assert cli_main(argv) == 2
    # each bad input above: one error line and nothing on stdout
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 11 and all(ln.startswith("error: ") for ln in lines)
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


def test_cli_io_error_exit_3(tmp_path, capsys):
    code = cli_main(["census", "--n-states", "10",
                     "--out", "/nonexistent-dir/x.csv"])
    assert code == 3
    target = tmp_path / "a-directory"
    target.mkdir()
    assert cli_main(["census", "--n-states", "10", "--out", str(target)]) == 3
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
    for runner, cfg in ((run_census, census_cfg(n_states=20)),
                        (run_decoherence_sweep, sweep)):
        runner(dataclasses.replace(cfg, output_path=str(c)))
        runner(dataclasses.replace(cfg, output_path=str(j),
                                   output_format="json"))
        with open(c) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        payload = json.loads(j.read_text())
        header = rows[0]
        assert len(rows) - 1 == len(payload["records"]) == cfg.n_states
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
