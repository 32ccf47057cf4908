"""The pair script's statistics: seed ranges, verdicts and the JSON layout."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def test_parse_seeds_expands_ranges():
    assert bench_pairs.parse_seeds(["3", "10-12", "7"]) == [3, 10, 11, 12, 7]


def test_compare_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    better = bench_pairs.compare(parent, [p * 0.7 for p in parent], 0.24, True)
    assert better["verdict"] == "better"
    assert (better["change_wins"], better["change_losses"]) == (10, 0)
    assert better["change_over_parent"] == 0.7
    # Nine wins in ten pairs still count; the medians must also differ by
    # more than the parent's interquartile range.
    nine = [p * 0.7 for p in parent[:9]] + [parent[9] * 1.1]
    assert bench_pairs.compare(parent, nine, 0.24, True)["verdict"] == "better"
    close = [p - 0.001 for p in parent]
    assert bench_pairs.compare(parent, close, 0.24, True)["verdict"] == "within bound"
    worse = bench_pairs.compare(parent, [p * 1.3 for p in parent], 0.24, True)
    assert worse["verdict"] == "worse: beyond bound"
    assert worse["change_losses"] == 10
    # Higher is better: a larger value wins.
    assert bench_pairs.compare(parent, [p * 1.5 for p in parent], 0.24, False)["verdict"] == "better"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.compare(parent, noisy, 0.24, True)["verdict"] == "unresolved: spread above bound"


def test_dump_is_json_with_one_line_per_metric():
    metric = {"parent": {"median": 1.0, "q1": 0.9, "q3": 1.1}, "verdict": "within bound"}
    report = {"label": "x", "sets": [{"workloads": {"w": {"seeds": [1, 2], "metrics": {
        "train_s": metric, "load_s": metric}}}}]}
    text = bench_pairs.dump(report)
    assert json.loads(text) == report
    assert sum('"train_s": {"parent": {"median": 1.0' in line for line in text.splitlines()) == 1
