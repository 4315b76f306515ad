import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.24},
           {"name": "work_per_s", "better": "higher", "bound": 0.24}]


def _pair(parent, change):
    return {side: {"metrics": {"wall_s": {"value": v[0]}, "work_per_s": {"value": v[1]}}}
            for side, v in (("parent", parent), ("change", change))}


def test_summary_counts_wins_by_the_better_direction():
    pairs = [_pair((1.0, 10.0), (0.8, 12.0)), _pair((1.2, 9.0), (1.3, 8.0)),
             _pair((1.1, 11.0), (1.1, 11.0)), _pair((0.9, 12.0), (0.7, 13.0))]
    summary = bench_pairs.summarise(pairs, METRICS)
    wall = summary["wall_s"]
    assert wall["change_wins"] == "2/4"  # a tie counts for neither side
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == \
        pytest.approx((0.975, 1.05, 1.125))
    assert wall["change_over_parent"] == pytest.approx(wall["change_median"] / 1.05)
    assert summary["work_per_s"]["change_wins"] == "2/4"


def test_run_spec_takes_a_range_or_a_list():
    assert bench_pairs.parse_run("section-atlas=3-5") == ("section-atlas", [3, 4, 5])
    assert bench_pairs.parse_run("exact-large=7,9") == ("exact-large", [7, 9])


def _pairs(parent, change):
    return [_pair((p, 1.0 / p), (c, 1.0 / c)) for p, c in zip(parent, change)]


def test_claim_needs_nine_tenths_of_ten_pairs_and_a_gap_past_the_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.80] * 9 + [1.10]  # wins 9 of 10 by far more than the spread
    summary = bench_pairs.summarise(_pairs(parent, change), METRICS)
    assert summary["wall_s"]["change_wins"] == "9/10"
    assert summary["wall_s"]["claim_met"] and summary["work_per_s"]["claim_met"]
    # eight wins of ten are not enough, however large the gain
    summary = bench_pairs.summarise(_pairs(parent, [0.80] * 8 + [1.10] * 2), METRICS)
    assert not summary["wall_s"]["claim_met"]
    # nine wins of nine pairs: fewer than ten pairs make no claim
    summary = bench_pairs.summarise(_pairs(parent[:9], change[:9]), METRICS)
    assert summary["wall_s"]["change_wins"] == "9/9" and not summary["wall_s"]["claim_met"]
    # ten wins, but the medians differ by less than the parent's quartile distance
    spread = [0.90, 1.10, 0.92, 1.08, 0.94, 1.06, 0.96, 1.04, 0.98, 1.02]
    summary = bench_pairs.summarise(_pairs(spread, [p - 0.01 for p in spread]), METRICS)
    assert summary["wall_s"]["change_wins"] == "10/10"
    assert not summary["wall_s"]["claim_met"]


def test_beyond_bound_is_a_worse_median_past_the_fraction():
    parent = [1.0] * 10
    summary = bench_pairs.summarise(_pairs(parent, [1.25] * 10), METRICS)
    assert summary["wall_s"]["beyond_bound"]  # 25% slower against a bound of 24%
    assert not summary["wall_s"]["claim_met"]
    summary = bench_pairs.summarise(_pairs(parent, [1.2] * 10), METRICS)
    assert not summary["wall_s"]["beyond_bound"]
    assert not summary["work_per_s"]["beyond_bound"]  # 1/1.2 is 17% lower
    summary = bench_pairs.summarise(_pairs(parent, [0.5] * 10), METRICS)
    assert not summary["wall_s"]["beyond_bound"]  # better is never beyond the bound
    summary = bench_pairs.summarise(_pairs(parent, [1.4] * 10), METRICS)
    assert summary["work_per_s"]["beyond_bound"]  # 1/1.4 is 29% lower


def test_cli_pairs_alternate_and_measure_each_child(tmp_path):
    # smoke size: both sides are this checkout, so each pair writes the same bytes
    root = _PATH.parent.parent
    pairs = bench_pairs.cli_pairs({"parent": root, "change": root}, "simulate",
                                  {"n": 5, "cycles": 1.0}, [3, 4], tmp_path)
    assert [p["first"] for p in pairs] == ["parent", "change"]
    assert [p["seed"] for p in pairs] == [3, 4]
    for pair in pairs:
        assert pair["identical"]
        for side in ("parent", "change"):
            assert pair[side]["exit"] == 0
            assert pair[side]["metrics"]["wall_s"]["value"] > 0.0
            metrics = pair[side]["metrics"]
            assert metrics["peak_rss_mb"]["value"] > 1.0  # a Python process
            # the traced child holds live only what the command allocates
            assert 0.0 < metrics["traced_peak_mb"]["value"] < metrics["peak_rss_mb"]["value"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    summary = bench_pairs.summarise(pairs, [{"name": name, "better": "lower", "bound": 0.1}
                                            for name in ("peak_rss_mb", "traced_peak_mb")])
    assert not summary["peak_rss_mb"]["claim_met"]  # two pairs make no claim
    assert summary["traced_peak_mb"]["change_over_parent"] > 0.0


def test_cli_pairs_record_a_refused_config(tmp_path):
    root = _PATH.parent.parent
    [pair] = bench_pairs.cli_pairs({"parent": root, "change": root}, "simulate",
                                   {"n": 0}, [0], tmp_path)
    assert pair["parent"]["exit"] == pair["change"]["exit"] == 2
    assert pair["parent"]["metrics"]["traced_peak_mb"]["value"] >= 0.0
