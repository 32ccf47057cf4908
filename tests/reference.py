"""Reference implementations that the tests compare the library against.

Split scores come in two forms.  A multi-column (one-hot) group is scored as
the raw residual sum of squares in the node minus the within-child sums of
squares, with empty children contributing zero.  A single column is scored as
the best two-child variance reduction over all cuts placed at observed values:
the node-centered sum of squares minus the within-child sums, zero when no cut
separates the node.  Ties on the cut value are broken toward the smallest cut.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from collabtrees.errors import ArgumentError


def split_score_group(x: np.ndarray, residuals: np.ndarray, rows: np.ndarray, columns) -> float:
    """Score splitting a node on a one-hot group.

    Returns ``sum(r_i^2)`` over the node minus the within-child centered sums
    of squares, children being the rows with each group column positive.
    Empty children contribute zero.
    """
    rows = np.asarray(rows)
    r = residuals[rows]
    score = float(r @ r)
    for j in columns:
        sub = r[x[rows, j] > 0]
        if sub.size:
            score -= float(np.sum((sub - sub.mean()) ** 2))
    return score


def split_score_single(
    feature_values: np.ndarray, residuals: np.ndarray, rows: np.ndarray
) -> tuple[float, float]:
    """Best two-child variance reduction over cuts at observed values.

    Children are ``{value > c}`` and ``{value <= c}``.  Returns the maximum
    node-centered reduction and the smallest maximizing cut; when every value
    in the node is identical the score is zero and the cut is that value.
    """
    rows = np.asarray(rows)
    v = np.asarray(feature_values, dtype=float)[rows]
    r = residuals[rows]
    n = len(rows)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    if n < 2 or sv[0] == sv[-1]:
        return 0.0, float(sv[0])
    sr = r[order]
    csum = np.cumsum(sr)
    total = csum[-1]
    left_n = np.arange(1, n, dtype=float)
    left_s = csum[:-1]
    scores = left_s**2 / left_n + (total - left_s) ** 2 / (n - left_n) - total**2 / n
    scores[sv[:-1] == sv[1:]] = -np.inf
    t = int(np.argmax(scores))
    return max(float(scores[t]), 0.0), float(sv[t])


def brute_force_split_score(
    x: np.ndarray, residuals: np.ndarray, rows: Sequence[int], columns: Sequence[int]
) -> float:
    """Direct split-score evaluation with explicit loops.

    Multi-column groups: raw sum of squared residuals minus within-child
    centered sums.  Single columns: exhaustive enumeration of cuts at observed
    values with both children nonempty, scored against the node-centered sum
    of squares; zero when no such cut exists.
    """
    rows = list(rows)
    if len(rows) > 2000:
        raise ArgumentError("brute-force reference is limited to 2000 rows")
    if len(rows) == 0:
        return 0.0
    columns = list(columns)
    if len(columns) > 1:
        total = 0.0
        for i in rows:
            total += residuals[i] ** 2
        for j in columns:
            child = [i for i in rows if x[i, j] > 0]
            if child:
                mean = sum(residuals[i] for i in child) / len(child)
                for i in child:
                    total -= (residuals[i] - mean) ** 2
        return total
    col = columns[0]
    node_mean = sum(residuals[i] for i in rows) / len(rows)
    node_ss = sum((residuals[i] - node_mean) ** 2 for i in rows)
    best = 0.0
    for a in rows:
        c = x[a, col]
        above = [i for i in rows if x[i, col] > c]
        below = [i for i in rows if x[i, col] <= c]
        if not above or not below:
            continue
        within = 0.0
        for child in (above, below):
            mean = sum(residuals[i] for i in child) / len(child)
            within += sum((residuals[i] - mean) ** 2 for i in child)
        best = max(best, node_ss - within)
    return best


def penalty(update_depths: Sequence[int], depth: int) -> float:
    """Update-priority penalty of a set at ``depth`` among sets at
    ``update_depths``: roots first, then depth-one sets, then the rest."""
    if 0 in update_depths and depth > 0:
        return math.inf
    if 1 in update_depths and depth > 1:
        return math.inf
    return 0.0
