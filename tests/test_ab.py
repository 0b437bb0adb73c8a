"""The A/B runner's summary of paired benchmark runs (.github/scripts/ab.py)."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / ".github/scripts/ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BETTER = {"rel_throughput": "higher", "peak_rss_mb": "lower"}


def run(throughput, rss, correct=True, status=0):
    """A run's stdout as run.py prints it: the info line, then the result line."""
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
              "metrics": {"rel_throughput": {"value": throughput, "unit": "ratio"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return ab.Run(status, json.dumps({"info": {}}) + "\n" + json.dumps(result) + "\n")


def test_summary_gives_medians_quartiles_ratio_and_wins():
    pairs = [(run(2.0, 40.0), run(3.0, 39.0)),
             (run(4.0, 38.0), run(5.0, 38.0)),
             (run(6.0, 36.0), run(5.0, 37.0)),
             (run(8.0, 34.0), run(9.0, 33.0))]
    summary = ab.summarize(pairs, BETTER)
    assert summary["pairs"] == 4 and summary["bad_runs"] == []
    thr, rss = summary["metrics"]["rel_throughput"], summary["metrics"]["peak_rss_mb"]
    assert (thr["old"], thr["new"]) == ([2.0, 4.0, 6.0, 8.0], [3.0, 5.0, 5.0, 9.0])
    assert (thr["old_median"], thr["new_median"], thr["ratio"]) == (5.0, 5.0, 1.0)
    # Inclusive quartiles: a quarter and three quarters of the way along the sorted values.
    assert (thr["old_quartiles"], thr["new_quartiles"]) == ([3.5, 6.5], [4.5, 6.0])
    # Higher throughput wins pairs 0, 1 and 3; lower RSS wins 0 and 3, and the tie in pair 1 counts for neither.
    assert (thr["new_wins"], rss["new_wins"]) == (3, 2)
    assert (rss["old_median"], rss["new_median"]) == (37.0, 37.5)
    assert rss["ratio"] == pytest.approx(37.5 / 37.0)
    assert ab.exit_status([summary]) == 0


def test_one_run_has_its_value_as_both_quartiles():
    thr = ab.summarize([(run(2.0, 40.0), run(3.0, 39.0))], BETTER)["metrics"]["rel_throughput"]
    assert (thr["old_quartiles"], thr["new_quartiles"], thr["ratio"]) == ([2.0, 2.0], [3.0, 3.0], 1.5)


@pytest.mark.parametrize(("bad", "reason"), [
    (run(9.0, 30.0, correct=False), "not correct"),
    (run(9.0, 30.0, status=1), "exit 1"),
    (ab.Run(2, ""), "exit 2"),
    (ab.Run(0, "no result line\n"), "not correct"),
])
def test_an_incorrect_or_failed_run_gives_no_values_and_exit_1(bad, reason):
    good = ab.summarize([(run(2.0, 40.0), run(3.0, 39.0))], BETTER)
    summary = ab.summarize([(run(2.0, 40.0), run(3.0, 39.0)), (run(4.0, 38.0), bad)], BETTER)
    assert summary["bad_runs"] == [f"pair 1 new: {reason}"]
    thr = summary["metrics"]["rel_throughput"]
    assert (thr["old"], thr["new"], thr["new_wins"]) == ([2.0, 4.0], [3.0], 1)
    assert ab.exit_status([good, summary]) == 1
