"""The pair summary of ``scripts/bench_pairs.py`` on canned benchmark records."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(op_p50_s, ops_per_s, attempted=100, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "op_p50_s": op_p50_s, "ops_per_s": ops_per_s}


def test_summary_counts_wins_by_direction_and_sums_failures():
    pairs = [
        {"parent": _record(10.0, 5.0), "change": _record(8.0, 6.0)},
        {"parent": _record(12.0, 4.0), "change": _record(12.0, 3.0, failed=2)},  # a tie in p50
        {"parent": _record(14.0, 6.0), "change": _record(9.0, 7.0, attempted=120)},
        {"parent": _record(16.0, 5.0), "change": _record(17.0, 5.5)},
    ]
    got = bench_pairs.summarize(pairs, {"op_p50_s": "lower", "ops_per_s": "higher"})
    p50 = got["summary"]["op_p50_s"]
    assert p50 == {"parent_median": 13.0, "change_median": 10.5,
                   "ratio_change_over_parent": 0.808, "parent_iqr": 3.0,
                   "change_better_pairs": 2, "pairs": 4}
    rate = got["summary"]["ops_per_s"]
    assert (rate["parent_median"], rate["change_median"]) == (5.0, 5.75)
    assert rate["parent_iqr"] == pytest.approx(0.5)  # quartiles 4.75 and 5.25
    assert rate["change_better_pairs"] == 3
    assert got["failed"] == {"parent": 0, "change": 2, "attempted_parent": 400,
                             "attempted_change": 420}


def test_summary_of_one_pair_has_no_spread():
    got = bench_pairs.summarize([{"parent": _record(1.0, 1.0), "change": _record(1.0, 1.0)}],
                                {"op_p50_s": "lower"})
    assert got["summary"]["op_p50_s"]["parent_iqr"] == 0.0
    assert got["summary"]["op_p50_s"]["change_better_pairs"] == 0
