import csv
import errno
import json
import math

import numpy as np
import pytest

from triact import harness
from triact.cli import main as cli_main
from triact.harness import (ExperimentConfig, HarnessIOError, run_census,
                            run_decoherence_sweep, run_extension_verify,
                            run_iso_curve, run_protocol_verify,
                            sweep_trajectory, _interval_record)


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


def test_census_deterministic_csv(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    run_census(census_cfg(output_path=str(paths[0])))
    run_census(census_cfg(output_path=str(paths[1])))
    run_census(census_cfg(output_path=str(paths[2]), threads=3))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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


def test_interval_record_extraction():
    ts = np.linspace(0, 1, 11)
    rec = _interval_record(0, np.array([0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
                                       dtype=bool), ts)
    assert rec["activated"]
    assert abs(rec["t_start"] - 0.2) < 1e-12 and abs(rec["t_end"] - 0.4) < 1e-12
    assert abs(rec["width"] - 0.3) < 1e-12          # three cells of 0.1
    assert abs(rec["span_width"] - 0.3) < 1e-12
    assert not rec["multi_interval"]
    rec = _interval_record(1, np.array([0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                                       dtype=bool), ts)
    assert rec["multi_interval"]
    assert abs(rec["width"] - 0.2) < 1e-12          # total measure
    assert abs(rec["span_width"] - 0.3) < 1e-12     # min-to-max span
    rec = _interval_record(2, np.zeros(11, dtype=bool), ts)
    assert not rec["activated"] and rec["width"] == 0.0


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


def test_sweep_trajectory_matches_batch_sweep():
    cfg = ExperimentConfig(experiment="decoherence_sweep", n_states=3,
                           n_time_steps=25, channel="PD", seed=9)
    summary = run_decoherence_sweep(cfg)
    rec = sweep_trajectory(cfg, 2)
    assert rec.seed_used.stream_index == 2
    for t, cls in rec.per_step:
        assert cls.violates_chsh == (cls.m_value > 1 + 1e-9)
    # per-step flags reduce to the same interval bookkeeping
    flags = [c.nonlocal_resource for _, c in rec.per_step]
    if rec.activation_interval is not None:
        assert any(flags)
        assert rec.activation_interval[0] <= rec.activation_interval[1]


def test_protocol_verify_all_pass():
    report = run_protocol_verify(ExperimentConfig(
        experiment="protocol_verify", seed=2, k=3.0, p=0.8))
    assert report["all_passed"], report


def test_extension_verify_all_pass():
    report = run_extension_verify(ExperimentConfig(
        experiment="extension_verify", k=0))
    names = [c["name"] for c in report["checks"]]
    assert names == [f"extension_marginals_k{k}" for k in (2, 3, 4)]
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


def test_cli_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["census", "--format", "xml"])
    assert exc.value.code == 2
    cfg_missing = cli_main(["census", "--config", "/nonexistent/file.cfg"])
    assert cfg_missing == 2
    # flags a subcommand does not read, and --d, which none takes
    for argv in (["census", "--steps", "5"], ["sweep", "--k", "2"],
                 ["verify", "--n-states", "5"],
                 ["iso-curve", "--seed", "5", "--d", "7", "--threads", "3",
                  "--n-states", "9"],
                 ["extension", "--out", "x.json"], ["census", "--d", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
    assert cli_main(["verify", "--p", "2"]) == 2
    assert cli_main(["verify", "--k", "0.5"]) == 2


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
    run_census(census_cfg(n_states=20, output_path=str(c)))
    run_census(census_cfg(n_states=20, output_path=str(j),
                          output_format="json"))
    with open(c) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    payload = json.loads(j.read_text())
    header = rows[0]
    for row, rec in zip(rows[1:], payload["records"]):
        for name, val in zip(header, row):
            if name in ("violates_chsh", "hashing_distillable",
                        "nonlocal_resource"):
                assert rec[name] == (val == "1")
            elif name == "state_index":
                assert rec[name] == int(val)
            else:
                assert abs(rec[name] - float(val)) < 1e-9
