import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pair(parent, change):
    return {side: {"metrics": {"wall_s": {"value": v[0]}, "work_per_s": {"value": v[1]}}}
            for side, v in (("parent", parent), ("change", change))}


def test_summary_counts_wins_by_the_better_direction():
    pairs = [_pair((1.0, 10.0), (0.8, 12.0)), _pair((1.2, 9.0), (1.3, 8.0)),
             _pair((1.1, 11.0), (1.1, 11.0)), _pair((0.9, 12.0), (0.7, 13.0))]
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "work_per_s", "better": "higher"}]
    summary = bench_pairs.summarise(pairs, metrics)
    wall = summary["wall_s"]
    assert wall["change_wins"] == "2/4"  # a tie counts for neither side
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == \
        pytest.approx((0.975, 1.05, 1.125))
    assert wall["change_over_parent"] == pytest.approx(wall["change_median"] / 1.05)
    assert summary["work_per_s"]["change_wins"] == "2/4"


def test_run_spec_takes_a_range_or_a_list():
    assert bench_pairs.parse_run("section-atlas=3-5") == ("section-atlas", [3, 4, 5])
    assert bench_pairs.parse_run("exact-large=7,9") == ("exact-large", [7, 9])
