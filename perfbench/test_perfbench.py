"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import triact.cli  # noqa: E402
import triact.harness  # noqa: E402
import triact.protocols  # noqa: E402
import triact.qcore  # noqa: E402

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _same_sites(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_patch_call_sites_and_restore_them():
    before = spans.call_sites()
    with spans.Tracer().patched():
        for mod, name in (("triact.harness", "random_mixed_hs"),
                          ("triact.protocols", "tensor"),
                          ("triact.protocols", "project_and_condition")):
            wrapped = vars(sys.modules[mod])[name]
            assert wrapped is not before[(mod, name)]
            assert wrapped.__wrapped__ is before[(mod, name)]
        assert (triact.harness.RUNNERS["census"].__wrapped__
                is before[("triact.harness", "RUNNERS", "census")])
        assert not _same_sites(spans.call_sites(), before)
    assert _same_sites(spans.call_sites(), before)


def test_untraced_pass_sees_original_functions(tmp_path):
    before = spans.call_sites()
    tr = spans.Tracer()
    op = wl.Op("census", ("census", "--n-states", "50", "--seed", "3"))
    with tr.patched():
        wl.run_op(op, tr)
    n_spans = len(tr.start)
    assert n_spans > 0
    wl.run_op(op)
    assert len(tr.start) == n_spans
    assert _same_sites(spans.call_sites(), before)


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    tr = spans.Tracer()
    ops = [wl.Op("census", ("census", "--n-states", "300", "--seed", "1",
                            "--out", str(tmp_path / "c.csv"))),
           wl.Op("sweep", ("sweep", "--channel", "d", "--n-states", "2",
                           "--steps", "20", "--seed", "1")),
           wl.Op("extension", ("extension", "--k", "2"))]
    with tr.patched():
        results = [wl.run_op(op, tr) for op in ops]
    assert all(r.exit_code == 0 for r in results)
    wall = sum(r.wall_s for r in results)
    m = bench.layer_metrics(tr, wall)
    roots = sum(tr.end[i] - tr.start[i] for i in range(len(tr.start))
                if tr.parent[i] < 0)
    assert abs(m["trace.self_sum_s"][0] - roots) < 1e-9
    assert roots <= wall
    assert m["states.sample_calls"][0] == 302
    assert m["qcore.density_matrix_inits"][0] >= 300
    assert m["qcore.largest_matrix_dim"][0] == 2 * 3**2
    assert m["criteria.classify_batch_calls"][0] == 1 + 2
    assert m["criteria.matrices_classified"][0] == 300 + 2 * 20
    assert m["channels.kraus_stack_calls"][0] == 1
    assert m["channels.kraus_channels_built"][0] == 20
    assert m["protocols.extension_ms"][2] == 1
    assert m["harness.records"][0] == 302
    assert m["harness.chunks"][0] == 2


def test_compare_flags_counts_and_floats():
    ref = {"exit_code": 0, "summary": {"n": 3, "f": 0.5, "ok": True,
                                       "checks": [{"r": 1e-16}]}}
    same = {"exit_code": 0, "summary": {"n": 3, "f": 0.5 + 1e-12, "ok": True,
                                        "checks": [{"r": 2e-16}]}}
    problems = []
    assert wl._compare(same, ref, "x", problems) < 1e-11
    assert problems == []
    for bad in ({"exit_code": 1, "summary": ref["summary"]},
                {"exit_code": 0, "summary": {**ref["summary"], "n": 4}},
                {"exit_code": 0, "summary": {**ref["summary"], "ok": False}},
                {"exit_code": 0, "summary": {**ref["summary"], "f": 0.51}},
                {"exit_code": 0, "summary": None}):
        problems = []
        wl._compare(bad, ref, "x", problems)
        assert problems


def test_seed_clock_cancels_machine_speed():
    ops = [wl.Op("verify", ()), wl.Op("extension", ())]
    # The machine's speed changes between pairs, not within one.
    speed = iter([s for s in (1.0, 3.0, 0.5, 2.0, 1.5, 0.7) for _ in "ab"])

    def result(op, share):
        s = next(speed)
        return wl.OpResult(op.label, 0, None, None, 0, share * s, 2 * s)

    ours, seed = (lambda op: result(op, 3.0)), (lambda op: result(op, 2.0))
    first = [(ours(op), seed(op)) for op in ops]
    checked = []
    pairs = bench.seed_clock_rounds(0, ops, ops, ours, seed, checked.append,
                                    first)
    assert [len(ps) for ps in pairs.values()] == [bench.MIN_ROUNDS] * 2
    assert [ps[0] for ps in pairs.values()] == first
    assert len(checked) == 2 * 2 * (bench.MIN_ROUNDS - 1)
    ref = {"verify": (4.0, 1.0), "extension": (0.5, 2.0)}
    m = bench.seed_clock_metrics(pairs, 9, "protocol_calls_per_s", ref)
    assert abs(m["wall_s"][0] - 1.5 * (4.0 + 0.5)) < 1e-12
    assert abs(m["cpu_s"][0] - (1.0 + 2.0)) < 1e-12
    assert abs(m["ops_per_s"][0] - 9 / m["wall_s"][0]) < 1e-12


def test_seed_copy_is_a_separate_package():
    seed = wl.package(wl.SEED_PACKAGE)
    assert seed.__name__ == wl.SEED_PACKAGE
    assert seed.cli.main is not triact.cli.main
    assert not any(key[0].startswith(wl.SEED_PACKAGE)
                   for key in spans.call_sites())
