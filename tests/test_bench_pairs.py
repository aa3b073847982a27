"""The rule ``scripts/bench_pairs.py`` applies to a claimed gain, on
synthetic paired runs: the change wins at least 9 in 10 pairs (ties
count for neither side), its median beats the parent's by more than the
parent's q3 - q1, and each metric's direction is BENCHMARK.json's."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# ten parent runs, median 104.5, quartiles 102.25 and 106.75: a spread of
# 4.5, every number here exact in binary
PARENT = list(range(100, 110))
SPREAD = 4.5


def shifted(by, wins):
    """PARENT moved by ``by`` in every pair, then the last 10 - ``wins``
    pairs set equal to the parent's (ties)."""
    return [p + by if i < wins else p for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("wins, met", [(10, True), (9, True), (8, False)])
def test_nine_of_ten_pairs_and_ties_count_for_neither(wins, met):
    # far beyond the spread, so only the pair count decides
    change = shifted(-20, wins)
    assert bench_pairs.verdict(PARENT, change, "lower") == (wins, met)
    # the other direction: every pair is lost or tied
    assert bench_pairs.verdict(PARENT, change, "higher") == (0, False)


def test_median_gap_must_exceed_the_parents_quartile_spread():
    # every pair won, the gap inside, at, and beyond the spread
    for by, met in ((4, False), (SPREAD, False), (5, True)):
        assert bench_pairs.verdict(PARENT, shifted(-by, 10),
                                   "lower") == (10, met)
        assert bench_pairs.verdict(PARENT, shifted(by, 10),
                                   "higher") == (10, met)


def test_direction_read_from_benchmark_json():
    better = bench_pairs.directions(SPEC)
    assert set(better) == {m["name"] for m in
                           SPEC["end_to_end"] + SPEC["per_layer"]}
    assert better["wall_s"] == "lower" and better["ops_per_s"] == "higher"
    faster = shifted(-20, 10)  # lower numbers
    assert bench_pairs.verdict(PARENT, faster, better["wall_s"]) == (10, True)
    assert bench_pairs.verdict(PARENT, faster,
                               better["ops_per_s"]) == (0, False)
