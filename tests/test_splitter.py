"""Split scores, update priority, selection; brute-force equivalence.

The update priority (``forest._allowed``) and the selection rule
(``forest._select``) are checked against the reference penalty and closed
forms; the reference scorers against the brute force and the production
scorer.
"""

import math

import numpy as np
import pytest

from collabtrees.core import KIND_BINARY, KIND_CONTINUOUS, KIND_ONEHOT, FeatureSchema, GroupSpec
from collabtrees.forest import _allowed, _Scorer, _score_set, _select, _SetState
from reference import brute_force_split_score, penalty, split_score_group, split_score_single


def test_group_score_two_onehot_columns():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    r = np.array([1.0, 3.0, 5.0, 7.0])
    score = split_score_group(x, r, np.arange(4), (0, 1))
    assert score == pytest.approx(84.0 - 4.0)


def test_group_score_constant_residuals_total_ss_form():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    c = 2.5
    r = np.full(4, c)
    assert split_score_group(x, r, np.arange(4), (0, 1)) == pytest.approx(4 * c * c)
    assert split_score_group(x, np.zeros(4), np.arange(4), (0, 1)) == 0.0


def test_group_score_empty_child_centered_residuals():
    x = np.array([[1.0, 0.0]] * 4)
    r = np.array([-3.0, -1.0, 1.0, 3.0])
    assert split_score_group(x, r, np.arange(4), (0, 1)) == pytest.approx(0.0)


def test_single_score_binary_column():
    v = np.array([0.0, 0.0, 1.0, 1.0])
    r = np.array([-3.0, -1.0, 1.0, 3.0])
    score, cut = split_score_single(v, r, np.arange(4))
    assert score == pytest.approx(16.0)
    assert cut == 0.0


def test_single_score_no_informative_cut():
    v = np.full(5, 2.0)
    r = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    score, cut = split_score_single(v, r, np.arange(5))
    assert score == 0.0
    assert cut == 2.0


def test_single_score_continuous_column():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    r = np.array([1.0, 1.0, 5.0, 5.0])
    score, cut = split_score_single(v, r, np.arange(4))
    assert score == pytest.approx(16.0)
    assert cut == 2.0


def test_single_score_tie_breaks_to_smallest_cut():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    r = np.array([1.0, -1.0, 1.0, -1.0])  # symmetric: several cuts tie
    _, cut = split_score_single(v, r, np.arange(4))
    ref = {}
    for c in v:
        above = r[v > c]
        below = r[v <= c]
        if len(above) and len(below):
            node_ss = np.sum((r - r.mean()) ** 2)
            within = sum(np.sum((g - g.mean()) ** 2) for g in (above, below))
            ref[c] = node_ss - within
    best = max(ref.values())
    assert cut == min(c for c, s in ref.items() if s == best)


def test_penalty_examples():
    assert penalty([0, 1], 1) == math.inf
    assert penalty([0], 0) == 0.0
    assert penalty([1, 3], 3) == math.inf
    assert penalty([1, 3], 1) == 0.0
    assert _allowed(np.array([0, 1])).tolist() == [True, False]
    assert _allowed(np.array([1, 3])).tolist() == [True, False]
    assert _allowed(np.array([2, 3, 5])).tolist() == [True, True, True]


def test_priority_penalties_matches_scalar():
    rng = np.random.default_rng(0)
    for _ in range(50):
        depths = rng.integers(0, 4, size=rng.integers(1, 8))
        for d, ok in zip(depths.tolist(), _allowed(depths)):
            assert ok == (penalty(depths.tolist(), d) == 0.0)


def test_priority_totality():
    rng = np.random.default_rng(1)
    for _ in range(100):
        depths = rng.integers(0, 5, size=rng.integers(1, 10))
        assert _allowed(depths).any()


class _RecordingRng:
    """Records what ``_select`` asks of its generator and returns index 0."""

    def integers(self, high):
        self.high = high
        return 0

    def choice(self, n, p):
        self.n, self.p = n, p
        return 0


def test_select_update_symmetric_tie():
    rng = np.random.default_rng(123)
    counts = [0, 0]
    for _ in range(10_000):
        counts[_select(np.array([[5.0], [5.0]]), math.inf, rng)] += 1
    assert abs(counts[0] / 10_000 - 0.5) < 0.05
    # Ties are listed in (set, group) order and drawn with one integers call.
    rec = _RecordingRng()
    scores = np.array([[1.0, 7.0, 7.0], [7.0, 0.0, 2.0]])
    assert _select(scores, math.inf, rec) == 1 and rec.high == 3


def test_selection_probabilities_small_alpha_closed_form():
    rec = _RecordingRng()
    assert _select(np.array([[1.0, 2.0]]), 0.001, rec) == 0
    expected = np.exp([0.001, 0.002])
    expected /= expected.sum()
    assert rec.n == 2
    assert rec.p == pytest.approx([0.49975, 0.50025], abs=1e-6)
    assert rec.p == pytest.approx(expected, abs=1e-12)


def test_select_update_never_picks_penalized():
    """Composed as ``grow`` composes them: the priority rule keeps the deeper
    set out of the score matrix, however high it scores."""
    rng = np.random.default_rng(7)
    depths = np.array([1, 1, 2])
    scores = np.array([[1.0], [2.0], [100.0]])
    allowed = np.flatnonzero(_allowed(depths))
    assert allowed.tolist() == [0, 1]
    for alpha in (10.0, math.inf):
        for _ in range(10_000):
            assert allowed[_select(scores[allowed], alpha, rng)] != 2


def _random_instance(rng):
    """Small node with a mix of one-hot groups and single columns."""
    n = int(rng.integers(2, 13))
    group_size = int(rng.integers(2, 5))
    x = np.zeros((n, group_size + 2))
    x[np.arange(n), rng.integers(0, group_size, size=n)] = 1.0
    x[:, group_size] = rng.integers(0, 2, size=n)  # binary single
    x[:, group_size + 1] = np.round(rng.normal(size=n), 2)  # continuous, some ties
    r = rng.normal(size=n)
    rows = np.arange(n)
    return x, r, rows, group_size


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        x, r, rows, gs = _random_instance(rng)
        got = split_score_group(x, r, rows, tuple(range(gs)))
        want = brute_force_split_score(x, r, rows, tuple(range(gs)))
        assert got == pytest.approx(want, abs=1e-9)
        for col in (gs, gs + 1):
            got_s, _ = split_score_single(x[:, col], r, rows)
            want_s = brute_force_split_score(x, r, rows, (col,))
            assert got_s == pytest.approx(want_s, abs=1e-9)


def test_scores_nonnegative_and_scale_equivariant():
    rng = np.random.default_rng(99)
    for _ in range(100):
        x, r, rows, gs = _random_instance(rng)
        g1 = split_score_group(x, r, rows, tuple(range(gs)))
        s1, _ = split_score_single(x[:, gs + 1], r, rows)
        assert g1 >= -1e-12 and s1 >= -1e-12
        c = 3.5
        g2 = split_score_group(x, c * r, rows, tuple(range(gs)))
        s2, _ = split_score_single(x[:, gs + 1], c * r, rows)
        assert g2 == pytest.approx(c * c * g1, rel=1e-9, abs=1e-9)
        assert s2 == pytest.approx(c * c * s1, rel=1e-9, abs=1e-9)


def production_scores(x, r, gs):
    """Scores and cuts of the whole of ``x`` as one node, by the production
    scorer through ``_score_set``: a one-hot group on columns ``0..gs-1``,
    then a binary column and a continuous one."""
    schema = FeatureSchema((
        GroupSpec("g", KIND_ONEHOT, tuple(range(gs)), categories=tuple(map(str, range(gs)))),
        GroupSpec("b", KIND_BINARY, (gs,)),
        GroupSpec("c", KIND_CONTINUOUS, (gs + 1,)),
    ))
    scorer = _Scorer(x, schema)
    root = scorer.root_cache()
    st = _SetState(0, 0, 0, None, [root], scorer.set_cells([root]))
    _score_set(scorer, st, r)
    return st.scores, st.cuts[0]


def test_score_candidates_wraps_scalar_ops():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, r, rows, gs = _random_instance(rng)
        scores, cuts = production_scores(x, r, gs)
        assert scores[0] == pytest.approx(split_score_group(x, r, rows, tuple(range(gs))),
                                          rel=1e-9, abs=1e-9)
        for m, col in ((1, gs), (2, gs + 1)):
            s, cut = split_score_single(x[:, col], r, rows)
            assert scores[m] == pytest.approx(s, rel=1e-9, abs=1e-9)
            if np.unique(x[rows, col]).size > 1:  # a constant column has no cut to compare
                assert cuts[m] == cut
