"""Compiled-tree prediction against the path-by-path reference, bit for bit."""

import dataclasses

import numpy as np
import pytest

from collabtrees.core import build_schema, encode, encode_features
from collabtrees.errors import DataError
from collabtrees.forest import CollabTreesModel, Hyperparams, grow_ensemble, predict_model
from collabtrees.oracle import binary_schema


def reference_predict(model, x):
    """Sum of increments over every region containing the row, tree by tree in
    list order, each region tested on its whole constraint path."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    out = np.full(x.shape[0], model.y_mean)
    for tree in model.trees:
        for constraints, value in tree:
            mask = np.ones(x.shape[0], dtype=bool)
            for col, greater, thr in constraints:
                mask &= (x[:, col] > thr) if greater else (x[:, col] <= thr)
            out[mask] += value
    return float(out[0]) if single else out


def assert_matches_reference(model, x):
    batch = predict_model(model, x)
    assert np.array_equal(batch, reference_predict(model, x))
    rows = [predict_model(model, row) for row in x]
    assert all(isinstance(v, float) for v in rows)
    assert np.array_equal(rows, batch)


def _table(kind, n, rng):
    """Raw columns of one feature kind plus a response built from them."""
    p = 4
    if kind == "categorical":
        levels = rng.integers(0, 4, size=(n, p))
        table = {f"c{j}": np.array([f"L{v}" for v in levels[:, j]], dtype=object) for j in range(p)}
        signal = (levels[:, 0] == 1) * 2.0 + (levels[:, 1] == levels[:, 2]) * 1.5
    else:
        if kind == "binary":
            x = (rng.random((n, p)) < 0.5).astype(float)
        else:
            x = rng.normal(size=(n, p)).round(1)  # repeated values put rows on the cuts
        table = {f"x{j}": x[:, j] for j in range(p)}
        signal = 2.0 * x[:, 0] + 1.5 * x[:, 1] * x[:, 2]
    table["y"] = signal + rng.normal(scale=0.3, size=n)
    role = {"binned": "continuous"}.get(kind, kind)
    roles = {name: role for name in table}
    roles["y"] = "response"
    return table, roles


@pytest.mark.parametrize(
    "kind,n_bins",
    [("continuous", None), ("binned", 4), ("binary", None), ("categorical", None)],
)
def test_grown_models_match_reference(kind, n_bins):
    rng = np.random.default_rng(11)
    table, roles = _table(kind, 240, rng)
    schema = build_schema(table, roles, n_bins=n_bins)
    ds = encode(table, schema)
    hp = Hyperparams(n_estimators=2, n_trees=3, min_samples_split=10, min_samples_leaf=2,
                     max_depth=6, seed=4)
    ensemble = grow_ensemble(ds, schema, hp)
    query, _ = _table(kind, 60, np.random.default_rng(12))
    query.pop("y")
    x = np.vstack([ds.x, encode_features(query, schema)])
    for model in ensemble.models:
        assert sum(len(t) for t in model.trees) > 10
        assert_matches_reference(model, x)


def _hand_built(trees, y_mean=0.25):
    return CollabTreesModel(trees=trees, rounds=(), y_mean=y_mean, n_train=10, schema=binary_schema(3))


GRID = np.random.default_rng(3).choice([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0], size=(300, 3))

HAND_BUILT = {
    "empty trees": ((), (), ()),
    "an empty tree beside a split": (
        (),
        ((((0, True, 0.5),), 1.5), (((0, False, 0.5),), -1.5)),
    ),
    "a prefix with no increment": (
        ((((0, True, 0.5), (1, False, 0.25)), 2.0), (((0, False, 0.5),), -1.0),
         (((0, True, 0.5), (1, False, 0.25), (2, True, 0.0)), 0.125)),
    ),
    "a child listed before its parent": (
        ((((0, True, 0.5), (1, True, 0.5)), 3.0), (((0, True, 0.5),), 1.0)),
    ),
    "an increment on the empty path": (
        (((), 0.5), (((2, True, 0.25),), 0.75)),
    ),
    # overlapping regions whose sum depends on the order of addition
    "overlapping regions in list order": (
        ((((0, True, 0.0),), 1e16), (((1, True, 0.0),), 1.0), (((2, True, 0.0),), -1e16),
         (((0, True, 0.0),), 1.0)),
        ((((1, True, 0.0),), 3.0),),
    ),
}


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_hand_built_models_match_reference(name):
    assert_matches_reference(_hand_built(HAND_BUILT[name]), GRID)


def test_replaced_model_never_predicts_from_a_stale_cache():
    model = _hand_built(HAND_BUILT["a prefix with no increment"])
    before = predict_model(model, GRID)  # compiles and caches
    (constraints, value), *rest = model.trees[0]
    altered = dataclasses.replace(model, trees=(((constraints, value + 1.0), *rest),))
    after = predict_model(altered, GRID)
    assert np.array_equal(after, reference_predict(altered, GRID))
    assert not np.array_equal(after, before)
    assert np.array_equal(predict_model(model, GRID), before)
    model.trees = altered.trees
    assert np.array_equal(predict_model(model, GRID), after)


def test_query_width_checked():
    model = _hand_built(HAND_BUILT["empty trees"])
    with pytest.raises(DataError):
        predict_model(model, np.zeros((2, 4)))
    with pytest.raises(DataError):
        predict_model(model, np.zeros(2))
