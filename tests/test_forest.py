"""Training loop behavior: validity rules, scheduling, logging, prediction."""

import dataclasses
import math

import numpy as np
import pytest

from collabtrees.core import EncodedDataset, build_schema, encode
from collabtrees.datagen import CopulaConfig, gaussian_copula_ar1, matrix_to_table, model_y1
from collabtrees.errors import ConfigError, DataError
from collabtrees.forest import (
    EnsembleModel,
    Hyperparams,
    _Scorer,
    _score_set,
    _SetState,
    children_valid_for_update,
    grow,
    grow_ensemble,
    node_valid_for_split,
    predict_ensemble,
    predict_model,
)
from collabtrees.oracle import binary_schema
from reference import split_score_group, split_score_single


def binary_dataset(x, y):
    return EncodedDataset(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float), y_mean=0.0)


def replay_drops(model, x, y):
    """Re-apply increments round by round; return measured per-round drops.

    Increments for round i are the next ``n_updated`` entries of the round's
    tree, in append order.
    """
    r = np.asarray(y, dtype=float).copy()
    cursors = [0] * len(model.trees)
    drops = []
    for rnd in model.rounds:
        sse_before = float(r @ r)
        tree = model.trees[rnd.tree]
        start = cursors[rnd.tree]
        for constraints, value in tree[start : start + rnd.n_updated]:
            mask = np.ones(len(r), dtype=bool)
            for col, greater, thr in constraints:
                mask &= (x[:, col] > thr) if greater else (x[:, col] <= thr)
            r[mask] -= value
        cursors[rnd.tree] += rnd.n_updated
        drops.append(sse_before - float(r @ r))
    assert all(c == len(t) for c, t in zip(cursors, model.trees))
    return np.array(drops), r


def test_node_valid_for_split_rules():
    hp = Hyperparams(min_samples_split=5, min_samples_leaf=30, max_depth=math.inf)
    assert node_valid_for_split(31, 2, hp)
    assert not node_valid_for_split(30, 2, hp)
    capped = Hyperparams(min_samples_split=0, min_samples_leaf=0, max_depth=3)
    assert not node_valid_for_split(100, 3, capped)
    assert node_valid_for_split(100, 2, capped)


def test_children_valid_for_update_rules():
    hp5 = Hyperparams(min_samples_leaf=5)
    assert children_valid_for_update([12, 8, 0], hp5) == (0, 1)
    assert children_valid_for_update([0, 12, 6], hp5) == (1, 2)
    assert children_valid_for_update([12, 3], hp5) == ()
    hp0 = Hyperparams(min_samples_leaf=0)
    assert children_valid_for_update([1, 1, 1], hp0) == (0, 1, 2)


def test_grow_perfect_split():
    ds = binary_dataset([[0.0], [0.0], [1.0], [1.0]], [-1.0, -1.0, 1.0, 1.0])
    hp = Hyperparams(n_trees=1, min_samples_leaf=0, min_samples_split=5)
    model = grow(ds, binary_schema(1), hp, np.random.default_rng(0))
    assert len(model.rounds) == 1
    assert model.rounds[0].drop == pytest.approx(4.0)
    assert predict_model(model, ds.x).tolist() == [-1.0, -1.0, 1.0, 1.0]


def test_grow_constant_response_predicts_mean():
    table = {"x": np.array([0.0, 1.0, 0.0, 1.0]), "y": np.full(4, 7.0)}
    schema = build_schema(table, {"x": "binary", "y": "response"})
    ds = encode(table, schema)
    hp = Hyperparams(n_trees=2, min_samples_leaf=0, min_samples_split=1)
    model = grow(ds, schema, hp, np.random.default_rng(0))
    assert predict_model(model, ds.x) == pytest.approx(np.full(4, 7.0))
    assert sum(r.drop for r in model.rounds) == pytest.approx(0.0)


def test_grow_argmax_picks_stronger_group_first():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    ds = binary_dataset(x, [-3.0, -1.0, 1.0, 3.0])
    hp = Hyperparams(n_trees=1, alpha=math.inf, min_samples_leaf=0, min_samples_split=1)
    for seed in range(100):
        model = grow(ds, binary_schema(2), hp, np.random.default_rng(seed))
        assert model.rounds[0].group == 0


def test_predict_empty_model_returns_mean():
    table = {"x": np.array([0.0, 1.0]), "y": np.array([2.0, 4.0])}
    schema = build_schema(table, {"x": "binary", "y": "response"})
    ds = encode(table, schema)
    # min_samples_leaf high enough that no update is ever valid
    hp = Hyperparams(n_trees=2, min_samples_leaf=5, min_samples_split=5)
    model = grow(ds, schema, hp, np.random.default_rng(0))
    assert model.rounds == ()
    assert predict_model(model, np.array([[0.0], [1.0]])) == pytest.approx([3.0, 3.0])
    assert predict_model(model, np.array([1.0])) == 3.0


def test_grow_rejects_degenerate_dataset():
    ds = binary_dataset([[1.0]], [0.0])
    with pytest.raises(DataError):
        grow(ds, binary_schema(1), Hyperparams(), np.random.default_rng(0))


def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        Hyperparams(n_trees=0)
    with pytest.raises(ConfigError):
        Hyperparams(random_update=1.5)
    with pytest.raises(ConfigError):
        Hyperparams(alpha=-1.0)
    with pytest.raises(ConfigError):
        Hyperparams(max_depth=0)


def _random_mixed_problem(rng, n=300):
    x = gaussian_copula_ar1(CopulaConfig(n=n, p=10, lam=0.3, seed=int(rng.integers(1 << 30))))
    y = model_y1(x, rng)
    table = matrix_to_table(x, y)
    roles = {k: "continuous" for k in table if k != "y"}
    roles["y"] = "response"
    return table, roles


@pytest.mark.parametrize("n_bins", [None, 4])
def test_monotone_loss_and_conservation(n_bins):
    rng = np.random.default_rng(42)
    table, roles = _random_mixed_problem(rng)
    schema = build_schema(table, roles, n_bins)
    ds = encode(table, schema)
    hp = Hyperparams(
        n_trees=4, alpha=10.0, min_samples_split=20, min_samples_leaf=5, max_depth=6,
        random_update=0.5,
    )
    model = grow(ds, schema, hp, np.random.default_rng(7))
    drops, final_r = replay_drops(model, ds.x, ds.y)
    assert np.all(drops >= -1e-9)
    logged = np.array([r.drop for r in model.rounds])
    assert logged == pytest.approx(drops, rel=1e-9, abs=1e-9)
    sse0 = float(ds.y @ ds.y)
    sse1 = float(final_r @ final_r)
    assert sum(logged) == pytest.approx(sse0 - sse1, rel=1e-8)
    # prediction equals mean plus accumulated increments
    preds = predict_model(model, ds.x)
    assert preds - ds.y_mean == pytest.approx(ds.y - final_r, abs=1e-9)


def test_root_first_ordering():
    rng = np.random.default_rng(3)
    n, p, K = 400, 6, 4
    x = (rng.random((n, p)) < 0.5).astype(float)
    y = x @ rng.normal(size=p) + rng.normal(size=n) * 0.1
    ds = binary_dataset(x, y - y.mean())
    hp = Hyperparams(n_trees=K, min_samples_leaf=0, min_samples_split=5, max_depth=3)
    model = grow(ds, binary_schema(p), hp, np.random.default_rng(0))
    rounds = model.rounds
    assert all(r.parent_round is None for r in rounds[:K])
    for r in rounds[K : 2 * K]:
        assert r.parent_round is not None
        assert rounds[r.parent_round - 1].parent_round is None


def score_one_node(scorer, cache, r):
    """Scores and cuts of one node, scored as a set of its own."""
    st = _SetState(0, 0, 0, None, [cache], scorer.set_cells([cache]))
    _score_set(scorer, st, r)
    return st.scores, st.cuts[0]


def test_engine_scores_match_scalar_splitter():
    rng = np.random.default_rng(11)
    n = 120
    table = {
        "cat": rng.choice(list("abcd"), size=n),
        "b": rng.integers(0, 2, n).astype(float),
        "c1": rng.normal(size=n),
        "c2": np.round(rng.normal(size=n), 1),
        "y": rng.normal(size=n),
    }
    roles = {"cat": "categorical", "b": "binary", "c1": "continuous", "c2": "continuous", "y": "response"}
    schema = build_schema(table, roles)
    ds = encode(table, schema)
    scorer = _Scorer(ds.x, schema)
    root = scorer.root_cache()
    r = ds.y.copy()
    # exercise root and a filtered child node
    child_rows = np.flatnonzero(ds.x[:, schema.groups[0].column_indices[0]] == 1.0).astype(np.int32)
    child = scorer.child_cache(root, child_rows)
    for cache, rows in ((root, np.arange(n)), (child, child_rows)):
        scores, cuts = score_one_node(scorer, cache, r)
        for m, g in enumerate(schema.groups):
            if g.size > 1:
                want = split_score_group(ds.x, r, rows, g.column_indices)
            else:
                want, want_cut = split_score_single(ds.x[:, g.column_indices[0]], r, rows)
                assert cuts[m] == pytest.approx(want_cut)
            assert scores[m] == pytest.approx(want, rel=1e-9, abs=1e-9)


def _shared_matrix_problem(kind, n=240, seed=0):
    """An encoded table of one schema family; ``kind`` names the family.
    "interleaved" alternates raw and binary columns, so the 0/1 columns are
    not one contiguous block."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, 3))
    b = (rng.random((n, 6)) < 0.4).astype(float)
    table, roles, n_bins = {}, {}, None
    if kind == "interleaved":
        for j in range(3):
            table[f"c{j}"], table[f"b{j}"] = np.round(c[:, j], 1 + j), b[:, j]
            roles[f"c{j}"], roles[f"b{j}"] = "continuous", "binary"
    if kind in ("raw", "binned", "mixed"):
        for j in range(3):
            table[f"c{j}"] = np.round(c[:, j], 1 + j)
            roles[f"c{j}"] = "continuous"
        n_bins = 4 if kind != "raw" else None
    if kind in ("categorical", "mixed"):
        for j in range(2):
            table[f"k{j}"] = np.array([f"L{v}" for v in rng.integers(0, 4, n)], dtype=object)
            roles[f"k{j}"] = "categorical"
    if kind in ("binary", "mixed"):
        for j in range(6 if kind == "binary" else 3):
            table[f"b{j}"] = b[:, j]
            roles[f"b{j}"] = "binary"
    table["y"] = c[:, 0] + b[:, 0] * c[:, 1] + rng.normal(size=n)
    roles["y"] = "response"
    schema = build_schema(table, roles, n_bins)
    return schema, encode(table, schema)


@pytest.mark.parametrize("kind", ["raw", "binned", "categorical", "binary", "mixed", "interleaved"])
@pytest.mark.parametrize("alpha", [math.inf, 20.0])
@pytest.mark.parametrize("random_update", [1.0, 0.3])
def test_member_on_indices_matches_gathered_copy(kind, alpha, random_update):
    schema, ds = _shared_matrix_problem(kind)
    # Once a model of 0/1 columns alone has fit every cell they form, only
    # rounding noise is left to score (drops near 1e-31), and which noise wins
    # depends on summation order; the depth cap keeps the binary case short of
    # that.
    hp = Hyperparams(n_trees=3, alpha=alpha, min_samples_split=6, min_samples_leaf=2,
                     random_update=random_update, max_depth=3 if kind == "binary" else math.inf)
    for seed in range(3):
        idx = np.random.default_rng(100 + seed).integers(0, ds.n, size=ds.n)
        copy = EncodedDataset(x=ds.x[idx], y=ds.y[idx], y_mean=ds.y_mean)
        want = grow(copy, schema, hp, np.random.default_rng(seed))
        got = grow(ds, schema, hp, np.random.default_rng(seed), idx)
        # Large nodes sum their 0/1 columns over the shared matrix, in another
        # order than over a gathered copy, so those scores may differ in the
        # last bits.  Drops and increments come from the residuals alone, so
        # the models are identical unless a selection falls on such a
        # rounding difference, which these seeds do not.
        assert got.rounds == want.rounds
        assert got.trees == want.trees
        assert got.n_train == want.n_train


def test_member_scores_column_binary_on_its_own_rows():
    """A column holding other values only on rows a member did not draw is
    scored as 0/1 for that member, as it is for a gathered copy."""
    rng = np.random.default_rng(4)
    n = 200
    almost = (rng.random(n) < 0.5).astype(float)
    almost[:3] = 0.5
    table = {"almost": almost, "c": rng.normal(size=n), "y": almost + rng.normal(size=n)}
    roles = {"almost": "continuous", "c": "continuous", "y": "response"}
    schema = build_schema(table, roles)
    ds = encode(table, schema)
    idx = rng.integers(3, n, size=n)
    assert _Scorer(ds.x, schema).bin_idx.tolist() == []
    assert _Scorer(ds.x, schema, idx).bin_idx.tolist() == [0]
    assert _Scorer(ds.x[idx], schema).bin_idx.tolist() == [0]
    hp = Hyperparams(n_trees=2, min_samples_split=6)
    copy = EncodedDataset(x=ds.x[idx], y=ds.y[idx], y_mean=ds.y_mean)
    want = grow(copy, schema, hp, np.random.default_rng(1))
    got = grow(ds, schema, hp, np.random.default_rng(1), idx)
    assert got.rounds == want.rounds
    assert got.trees == want.trees


@pytest.mark.parametrize("kind", ["mixed", "interleaved"])
@pytest.mark.parametrize("bootstrap", [False, True])
def test_scores_match_scalar_splitter_on_both_sides_of_the_product_gate(kind, bootstrap):
    from collabtrees.forest import _PRODUCT_SHARE

    schema, ds = _shared_matrix_problem(kind, n=400, seed=9)
    if bootstrap:
        sample = np.random.default_rng(2).integers(0, ds.n, size=ds.n)
        scorer = _Scorer(ds.x, schema, sample)
    else:
        sample = np.arange(ds.n)
        scorer = _Scorer(ds.x, schema)
    x = ds.x[sample]
    r = ds.y[sample]
    root = scorer.root_cache()
    gate = ds.n / _PRODUCT_SHARE
    large = np.arange(0, len(sample), 2, dtype=np.int32)  # share 1/2
    small = np.arange(0, len(sample), 3 * _PRODUCT_SHARE, dtype=np.int32)
    assert len(large) >= gate > len(small) >= 2
    binary = [m for m, g in enumerate(schema.groups) if g.kind == "binary-single"]
    assert scorer.bin_idx.tolist() == binary
    bin_cols = [scorer.group_columns[m][0] for m in binary]
    assert (scorer.x_bin.base is ds.x) == (kind == "mixed")  # a view of one block
    for rows, cache in (
        (np.arange(len(sample)), root),
        (large, scorer.child_cache(root, large)),
        (small, scorer.child_cache(root, small)),
    ):
        assert np.array_equal(cache.bin_ones, x[np.ix_(rows, bin_cols)].sum(axis=0))
        scores, cuts = score_one_node(scorer, cache, r)
        for m, g in enumerate(schema.groups):
            if g.size > 1:
                want = split_score_group(x, r, rows, g.column_indices)
            else:
                want, want_cut = split_score_single(x[:, g.column_indices[0]], r, rows)
                assert cuts[m] == pytest.approx(want_cut)
            assert scores[m] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_single_column_scan_kernels_agree():
    from collabtrees.forest import _scan_single_columns, _scan_single_columns_numpy

    rng = np.random.default_rng(17)
    for _ in range(40):
        nn = int(rng.integers(2, 60))
        n_cols = int(rng.integers(1, 6))
        values = np.round(rng.normal(size=(n_cols, nn)), 1)  # ties included
        order = np.argsort(values, axis=1, kind="stable").astype(np.int32)
        sv = np.take_along_axis(values, order, axis=1)
        boundary = sv[:, :-1] != sv[:, 1:]
        r = rng.normal(size=nn)
        s1, c1 = _scan_single_columns(order, boundary, r, values)
        s2, c2 = _scan_single_columns_numpy(order, boundary, r, values)
        assert np.array_equal(s1, s2)
        assert np.array_equal(c1, c2)


def test_grow_deterministic_given_seed():
    rng = np.random.default_rng(5)
    table, roles = _random_mixed_problem(rng, n=200)
    schema = build_schema(table, roles, 3)
    ds = encode(table, schema)
    hp = Hyperparams(n_estimators=4, n_trees=3, alpha=100.0, min_samples_split=10,
                     min_samples_leaf=5, random_update=0.1, seed=99)
    e1 = grow_ensemble(ds, schema, hp)
    e2 = grow_ensemble(ds, schema, hp)
    assert all(np.array_equal(a, b) for a, b in zip(e1.bootstrap_indices, e2.bootstrap_indices))
    for m1, m2 in zip(e1.models, e2.models):
        assert m1.rounds == m2.rounds
        assert m1.trees == m2.trees
    assert np.array_equal(predict_ensemble(e1, ds.x), predict_ensemble(e2, ds.x))


def test_grow_ensemble_parallel_matches_serial():
    rng = np.random.default_rng(8)
    table, roles = _random_mixed_problem(rng, n=150)
    schema = build_schema(table, roles, 3)
    ds = encode(table, schema)
    hp = Hyperparams(n_estimators=4, n_trees=2, min_samples_split=10, min_samples_leaf=5, seed=3)
    serial = grow_ensemble(ds, schema, hp, threads=1)
    parallel = grow_ensemble(ds, schema, hp, threads=2)
    assert np.array_equal(predict_ensemble(serial, ds.x), predict_ensemble(parallel, ds.x))
    for m1, m2 in zip(serial.models, parallel.models):
        assert m1.rounds == m2.rounds


@pytest.mark.parametrize("threads", [0, -3])
def test_grow_ensemble_rejects_nonpositive_threads(threads):
    ds = binary_dataset([[0.0], [0.0], [1.0], [1.0]], [-1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ConfigError, match="threads"):
        grow_ensemble(ds, binary_schema(1), Hyperparams(n_estimators=2), threads=threads)


def test_ensemble_of_identical_members_predicts_like_one():
    ds = binary_dataset([[0.0], [0.0], [1.0], [1.0]], [-1.0, -1.0, 1.0, 1.0])
    hp = Hyperparams(n_estimators=1, n_trees=1, min_samples_leaf=0, min_samples_split=1, seed=0)
    ens = grow_ensemble(ds, binary_schema(1), hp)
    single = ens.models[0]
    assert predict_ensemble(ens, ds.x) == pytest.approx(predict_model(single, ds.x))
    doubled = EnsembleModel(
        models=(single, single),
        bootstrap_indices=ens.bootstrap_indices * 2,
        hyperparams=hp,
        schema=ens.schema,
        y_mean=ens.y_mean,
        n_train=ens.n_train,
    )
    assert np.array_equal(predict_ensemble(doubled, ds.x), predict_model(single, ds.x))


def test_bagging_reduces_test_mse():
    """Ensemble test MSE beats the single model in most seeds."""
    wins = 0
    seeds = 50
    hp_e = Hyperparams(n_estimators=50, n_trees=3, n_bins=5, min_samples_split=10,
                       min_samples_leaf=5, max_depth=3, alpha=math.inf)
    hp_1 = dataclasses.replace(hp_e, n_estimators=1)
    for seed in range(seeds):
        x = gaussian_copula_ar1(CopulaConfig(n=700, p=10, lam=0.1, seed=seed))
        y = model_y1(x, np.random.default_rng(seed))
        table = matrix_to_table(x[:500], y[:500])
        roles = {k: "continuous" for k in table if k != "y"}
        roles["y"] = "response"
        schema = build_schema(table, roles, 5)
        ds = encode(table, schema)
        x_test = np.vstack([_encode_row(schema, x[500:])])
        ens = grow_ensemble(ds, schema, hp_e, seed=seed)
        one = grow_ensemble(ds, schema, hp_1, seed=seed)
        mse_e = float(np.mean((predict_ensemble(ens, x_test) - y[500:]) ** 2))
        mse_1 = float(np.mean((predict_ensemble(one, x_test) - y[500:]) ** 2))
        wins += mse_e <= mse_1
    assert wins >= 45


def _encode_row(schema, x_raw):
    from collabtrees.core import encode_features

    table = matrix_to_table(x_raw)
    return encode_features(table, schema)
