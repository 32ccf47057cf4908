"""Set scoring: the batched scorer against a per-node reference, whole models
grown with each, and bound-pruned argmax selection against a full rescoring."""

import math
import sys

import numpy as np
import pytest

from collabtrees import build_schema, encode, forest
from collabtrees.forest import Hyperparams, _PRODUCT_SHARE, _Scorer, _SetState, grow, grow_ensemble
from test_forest import _shared_matrix_problem

KINDS = ["raw", "binned", "categorical", "binary", "mixed", "interleaved"]


def reference_score_node(scorer, cache, r):
    """Scores over all groups plus per-group cut values of one node, computed
    node by node as the scorer did before it batched a set's nodes."""
    nn = len(cache.rows)
    scores = np.zeros(scorer.n_groups)
    cuts = np.full(scorer.n_groups, np.nan)
    r_node = r[cache.rows]

    if scorer.x_bin is not None:
        total = float(r_node.sum())
        s1 = scorer._bin_sums(cache.x_rows, r_node)
        n1 = cache.bin_ones
        n0 = nn - n1
        with np.errstate(divide="ignore", invalid="ignore"):
            val = s1**2 / n1 + (total - s1) ** 2 / n0 - total**2 / nn
        ok = (n1 > 0) & (n0 > 0)
        scores[scorer.bin_idx] = np.where(ok, np.maximum(val, 0.0), 0.0)
        cuts[scorer.bin_idx] = 0.0

    if scorer.n_gs:
        if nn >= 2:
            val, cut = forest._single_column_scan(cache.gs_order, cache.gs_boundary, r, scorer.xT_gs)
            scores[scorer.gs_idx] = val
        else:
            cut = scorer.xT_gs[scorer._gs_rows, cache.gs_order[:, 0]]
        cuts[scorer.gs_idx] = cut

    if scorer.n_multi:
        flat = scorer.labels_off[cache.rows].ravel()
        counts = np.bincount(flat, minlength=scorer.multi_total).astype(float)
        counts[counts == 0] = np.inf
        w = r_node.repeat(scorer.n_multi)
        sums = np.bincount(flat, weights=w, minlength=scorer.multi_total)
        ratio = sums * sums / counts
        scores[scorer.multi_idx] = np.add.reduceat(ratio, scorer.multi_offsets)
    return scores, cuts


def reference_score_set(scorer, st, r):
    """Drop-in for ``forest._score_set``: one reference scoring per node, the
    node scores added in node order."""
    scores = np.zeros(scorer.n_groups)
    cuts = np.empty((len(st.items), scorer.n_groups))
    for i, cache in enumerate(st.items):
        sc, ct = reference_score_node(scorer, cache, r)
        scores += sc
        cuts[i] = ct
    st.scores = scores
    st.cuts = cuts
    st.max_score = float(scores.max())
    st.fresh = True


def _new_set(scorer, caches):
    return _SetState(0, 0, 1, None, list(caches), scorer.set_cells(caches))


def _assert_scores_match(scorer, caches, r):
    got, want = _new_set(scorer, caches), _new_set(scorer, caches)
    forest._score_set(scorer, got, r)
    reference_score_set(scorer, want, r)
    assert np.array_equal(got.scores, want.scores)
    assert np.array_equal(got.cuts, want.cuts, equal_nan=True)
    assert got.max_score == want.max_score


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bootstrap", [False, True])
def test_set_score_matches_per_node_reference(kind, bootstrap):
    schema, ds = _shared_matrix_problem(kind, n=400, seed=5)
    sample = np.random.default_rng(3).integers(0, ds.n, size=ds.n) if bootstrap else None
    scorer = _Scorer(ds.x, schema, sample)
    root = scorer.root_cache()
    rng = np.random.default_rng(8)
    gate = ds.n / _PRODUCT_SHARE
    # Disjoint nodes, as the children of one split: a 1-row node, nodes of a
    # few rows (one-hot cells left empty), and nodes on both sides of the gate.
    perm = rng.permutation(scorer.n)
    sizes = [1, 3, 7, 150, 60, 179]
    bounds = np.cumsum([0] + sizes)
    nodes = [scorer.child_cache(root, np.sort(perm[a:b]).astype(np.int32))
             for a, b in zip(bounds[:-1], bounds[1:])]
    assert max(sizes) >= gate > 60
    sets = [[root], [nodes[0]], [nodes[3]], [nodes[3], nodes[1]], [nodes[0], nodes[4]],
            nodes[:3], [nodes[5], nodes[2], nodes[0], nodes[4]], nodes]
    if scorer.n_multi:
        assert any((c == np.inf).any() for c in (_new_set(scorer, [n]).cells.counts for n in nodes))
    for _ in range(3):
        r = rng.normal(size=scorer.n)
        for caches in sets:
            _assert_scores_match(scorer, caches, r)


@pytest.mark.parametrize("role", ["continuous", "categorical"])
def test_one_group_set_adds_node_scores_in_order(role):
    """With a single group and eight nodes or more, a pairwise sum over the
    node axis rounds differently from adding the nodes in order."""
    rng = np.random.default_rng(6)
    n = 300
    col = rng.normal(size=n) if role == "continuous" else rng.choice(list("abcdef"), size=n)
    table = {"x": col, "y": rng.normal(size=n)}
    schema = build_schema(table, {"x": role, "y": "response"})
    scorer = _Scorer(encode(table, schema).x, schema)
    root = scorer.root_cache()
    nodes = [scorer.child_cache(root, np.sort(rows).astype(np.int32))
             for rows in np.array_split(rng.permutation(n), 12)]
    for _ in range(20):
        _assert_scores_match(scorer, nodes, rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n))


def test_binary_score_squares_node_totals_as_before():
    """A node's total squared as a Python float (pow) and as a product differ
    in the last bit for some totals; the 0/1 formula must keep the former."""
    schema, ds = _shared_matrix_problem("binary", n=400, seed=5)
    scorer = _Scorer(ds.x, schema)
    root = scorer.root_cache()
    nodes = [scorer.child_cache(root, np.sort(rows).astype(np.int32))
             for rows in np.array_split(np.random.default_rng(1).permutation(ds.n), 8)]
    draws = np.random.default_rng(2).normal(size=20_000) * 1e3
    totals = [t for t in draws.tolist() if t**2 != t * t][: len(nodes)]
    assert len(totals) == len(nodes)
    # One nonzero residual per node makes its total exactly that value.
    r = np.zeros(ds.n)
    for cache, t in zip(nodes, totals):
        r[cache.rows[0]] = t
    _assert_scores_match(scorer, nodes, r)
    _assert_scores_match(scorer, nodes[:1], r)


@pytest.mark.parametrize("kind", KINDS)
def test_models_match_per_node_reference(kind, monkeypatch):
    """2-member, 3-tree ensembles over alpha x random_update x leaf minimum x
    depth, grown with the batched scorer and with the per-node reference."""
    schema, ds = _shared_matrix_problem(kind, n=300)
    grid = [Hyperparams(n_estimators=2, n_trees=3, alpha=alpha, random_update=update,
                        min_samples_leaf=leaf, max_depth=depth, seed=7)
            for alpha in (math.inf, 20.0) for update in (1.0, 0.3)
            for leaf in (0, 5) for depth in (3, math.inf)]
    got = [grow_ensemble(ds, schema, hp) for hp in grid]
    monkeypatch.setattr(forest, "_score_set", reference_score_set)
    want = [grow_ensemble(ds, schema, hp) for hp in grid]
    for g, w in zip(got, want):
        for mg, mw in zip(g.models, w.models):
            assert mg.rounds == mw.rounds
            assert mg.trees == mw.trees


class _ArgmaxSpy:
    """A generator that, each time ``grow``'s selection draws among its argmax
    ties, rescores every allowed set and checks the ties against that
    rescoring.  The draw is made in ``forest._select``, which forms the ties;
    ``grow``, one frame up, holds the sets.  At the next draw it checks that
    ``grow`` split the drawn pair."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.rounds = 0
        self.pruned = 0
        self.drawn = None

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        caller = sys._getframe(1)
        assert caller.f_code is forest._select.__code__
        sel, loc = caller.f_locals, caller.f_back.f_locals
        scorer, sets, r = loc["scorer"], loc["sets"], loc["r"]
        if self.drawn is not None:
            assert self.drawn[0] not in sets and loc["mhat"] == self.drawn[1]
        full = {}
        for sid in loc["allowed"]:
            st = sets[sid]
            again = _SetState(sid, st.tree, st.depth, st.parent_round, st.items, st.cells)
            forest._score_set(scorer, again, r)
            full[sid] = again.scores
            if st.fresh:
                assert np.array_equal(st.scores, again.scores)
            else:
                self.pruned += 1
        best = max(s.max() for s in full.values())
        ties = [(sid, int(g)) for sid, s in full.items() for g in np.flatnonzero(s == best)]
        fresh, n_groups = loc["fresh"], scorer.n_groups
        assert loc["best"] == best
        assert sel["s"].max() == best
        assert [(fresh[i // n_groups], int(i % n_groups)) for i in sel["ties"]] == ties
        self.rounds += 1
        k = self._rng.integers(*args, **kwargs)
        self.drawn = ties[k]
        return k


@pytest.mark.parametrize("kind", ["raw", "binned", "mixed"])
def test_bound_pruned_argmax_matches_full_rescoring(kind):
    pruned = 0
    for seed in range(3):
        schema, ds = _shared_matrix_problem(kind, n=300, seed=20 + seed)
        sample = np.random.default_rng(seed).integers(0, ds.n, size=ds.n) if seed else None
        for update in (1.0, 0.3):
            hp = Hyperparams(n_trees=6, alpha=math.inf, random_update=update,
                             min_samples_split=6, min_samples_leaf=2)
            spy = _ArgmaxSpy(seed)
            model = grow(ds, schema, hp, spy, sample)
            assert spy.rounds >= len(model.rounds) > 0
            pruned += spy.pruned
    # The bound must have left stale sets unscored, or nothing was tested.
    assert pruned > 0
