"""Schema construction, binning, encoding and their invariants."""

import math

import numpy as np
import pytest

from collabtrees.core import (
    EncodedDataset,
    FeatureSchema,
    GroupSpec,
    KIND_BINARY,
    KIND_BINNED,
    KIND_CONTINUOUS,
    KIND_ONEHOT,
    bin_index,
    build_schema,
    decode_group,
    encode,
    encode_features,
    quantile_bin_edges,
    read_csv_columns,
    read_roles,
)
from collabtrees.errors import ConfigError, DataError, SchemaError


def reference_equal_count_edges(values, n_bins):
    """Independent sort-and-slice: edge k is the ceil(k*n/n_bins)-th smallest."""
    v = sorted(float(x) for x in values)
    n = len(v)
    edges = []
    for k in range(1, n_bins):
        edges.append(v[math.ceil(k * n / n_bins) - 1])
    out = []
    for e in edges:
        if e < v[-1] and (not out or e != out[-1]):
            out.append(e)
    return out


def test_schema_three_binary_columns():
    table = {f"b{i}": np.array([0, 1, 0, 1]) for i in range(3)}
    roles = {f"b{i}": "binary" for i in range(3)}
    schema = build_schema(table, roles)
    assert schema.n_groups == 3
    assert schema.n_multi == 0
    assert schema.n_columns == 3
    assert all(g.kind == KIND_BINARY for g in schema.groups)


def test_schema_binned_continuous_quantile_edges():
    rng = np.random.default_rng(7)
    values = rng.normal(size=100)
    assert np.unique(values).size == 100
    table = {"c": values}
    schema = build_schema(table, {"c": "continuous"}, n_bins=5)
    (g,) = schema.groups
    assert g.kind == KIND_BINNED
    assert schema.n_groups == 1 and schema.n_multi == 1 and schema.n_columns == 5
    assert list(g.bin_edges) == reference_equal_count_edges(values, 5)


def test_schema_categorical_onehot():
    table = {"c": np.array(["a", "b", "c", "a"])}
    schema = build_schema(table, {"c": "categorical"})
    (g,) = schema.groups
    assert g.kind == KIND_ONEHOT
    assert g.categories == ("a", "b", "c")
    assert schema.n_columns == 3 and schema.n_multi == 1


def test_schema_continuous_without_bins_stays_single():
    schema = build_schema({"c": np.arange(10.0)}, {"c": "continuous"})
    assert schema.groups[0].kind == KIND_CONTINUOUS
    assert schema.n_multi == 0


def test_schema_orders_multi_groups_first():
    table = {
        "b": np.array([0, 1, 0, 1, 0, 1]),
        "cat": np.array(list("aabbcc")),
        "c": np.arange(6.0),
    }
    roles = {"b": "binary", "cat": "categorical", "c": "continuous"}
    schema = build_schema(table, roles, n_bins=3)
    sizes = [g.size for g in schema.groups]
    assert sizes == sorted(sizes, reverse=True) or all(
        s > 1 for s in sizes[: schema.n_multi]
    )
    assert all(g.size == 1 for g in schema.groups[schema.n_multi :])


def test_schema_single_value_column_rejected():
    with pytest.raises(SchemaError, match="const"):
        build_schema({"const": np.ones(5)}, {"const": "binary"})
    with pytest.raises(SchemaError, match="const"):
        build_schema({"const": np.ones(5)}, {"const": "continuous"})


def test_schema_unknown_role_rejected():
    with pytest.raises(ConfigError):
        build_schema({"a": np.arange(4.0)}, {"a": "numeric"})


def test_quantile_edges_duplicates_merge_to_fewer_bins():
    values = np.array([0.0] * 50 + [1.0] * 5)
    edges = quantile_bin_edges(values, 5)
    assert edges == (0.0,)
    assert bin_index(np.array([0.0, 0.5, 1.0]), edges).tolist() == [0, 1, 1]


def test_encode_two_points_two_bins():
    table = {"x": np.array([0.1, 0.9]), "y": np.array([0.0, 0.0])}
    roles = {"x": "continuous", "y": "response"}
    schema = build_schema(table, roles, n_bins=2)
    ds = encode(table, schema)
    assert ds.x.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_encode_centers_response():
    table = {"x": np.array([0, 1, 0, 1]), "y": np.array([1.0, 3.0, 5.0, 7.0])}
    roles = {"x": "binary", "y": "response"}
    schema = build_schema(table, roles)
    ds = encode(table, schema)
    assert ds.y_mean == 4.0
    assert ds.y.tolist() == [-3.0, -1.0, 1.0, 3.0]
    assert abs(ds.y.mean()) < 1e-12


def test_encode_onehot_level():
    table = {"c": np.array(["a", "b", "c"]), "y": np.zeros(3)}
    schema = build_schema(table, {"c": "categorical", "y": "response"})
    ds = encode(table, schema)
    assert ds.x[1].tolist() == [0.0, 1.0, 0.0]


def test_encode_boundary_value_goes_to_lower_bin():
    train = {"x": np.arange(1.0, 11.0), "y": np.zeros(10)}
    schema = build_schema(train, {"x": "continuous", "y": "response"}, n_bins=2)
    (g,) = schema.groups
    edge = g.bin_edges[0]
    x = encode_features({"x": np.array([edge, edge + 1e-9])}, schema)
    assert x[0].tolist() == [1.0, 0.0]
    assert x[1].tolist() == [0.0, 1.0]


def test_encode_unseen_level_rejected():
    table = {"c": np.array(["a", "b", "a"]), "y": np.zeros(3)}
    schema = build_schema(table, {"c": "categorical", "y": "response"})
    with pytest.raises(DataError, match="unseen"):
        encode_features({"c": np.array(["a", "z"])}, schema)


@pytest.mark.parametrize("bad", [0.5, 2.0])
def test_encode_binary_column_outside_zero_one_rejected(bad):
    table = {"b": np.array([0.0, 1.0, 1.0]), "y": np.zeros(3)}
    schema = build_schema(table, {"b": "binary", "y": "response"})
    assert encode_features({"b": np.array([1.0, 0.0, 1.0])}, schema)[:, 0].tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(DataError, match=r"binary column 'b' has values outside \{0, 1\}"):
        encode_features({"b": np.array([0.0, bad, 1.0])}, schema)


def test_encode_missing_response_rejected():
    table = {"x": np.array([0, 1]), "y": np.array([1.0, np.nan])}
    schema = build_schema(table, {"x": "binary", "y": "response"})
    with pytest.raises(DataError):
        encode(table, schema)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_encode_huge_response_rejected(scale):
    """Finite responses whose n * sum of squared deviations overflows would
    make every split score inf or NaN."""
    y = np.random.default_rng(0).normal(size=50) * scale
    table = {"x": np.arange(50.0), "y": y}
    schema = build_schema(table, {"x": "continuous", "y": "response"})
    with pytest.raises(DataError, match="'y' is too large"):
        encode(table, schema)
    table["y"] = y / scale * 1e150  # n * sum of squares near 1e303: accepted
    assert np.isfinite(encode(table, schema).y).all()


def test_onehot_row_sums_and_roundtrip():
    rng = np.random.default_rng(3)
    n = 200
    table = {
        "cont": rng.normal(size=n),
        "cat": rng.choice(list("uvw"), size=n),
        "b": rng.integers(0, 2, size=n).astype(float),
        "y": rng.normal(size=n),
    }
    roles = {"cont": "continuous", "cat": "categorical", "b": "binary", "y": "response"}
    schema = build_schema(table, roles, n_bins=4)
    ds = encode(table, schema)
    for g in schema.groups:
        if g.size > 1:
            sums = ds.x[:, list(g.column_indices)].sum(axis=1)
            assert np.all(sums == 1.0)
    # decoding each row recovers the source category / bin / value
    for m, g in enumerate(schema.groups):
        for i in range(0, n, 17):
            got = decode_group(schema, m, ds.x[i])
            if g.kind == KIND_ONEHOT:
                assert got == str(table["cat"][i])
            elif g.kind == KIND_BINNED:
                assert got == bin_index(np.array([table["cont"][i]]), g.bin_edges)[0]
            else:
                assert got == float(table[g.name][i])


def test_equal_count_bins_balanced_for_distinct_values():
    rng = np.random.default_rng(11)
    for n, n_bins in [(100, 5), (103, 5), (37, 4), (10, 3)]:
        values = rng.permutation(n).astype(float)
        edges = quantile_bin_edges(values, n_bins)
        counts = np.bincount(bin_index(values, edges), minlength=len(edges) + 1)
        assert counts.min() >= math.floor(n / n_bins)
        assert counts.max() <= math.ceil(n / n_bins)


def test_encode_deterministic():
    rng = np.random.default_rng(5)
    table = {"c": rng.normal(size=50), "y": rng.normal(size=50)}
    roles = {"c": "continuous", "y": "response"}
    schema1 = build_schema(table, roles, n_bins=3)
    schema2 = build_schema(table, roles, n_bins=3)
    d1, d2 = encode(table, schema1), encode(table, schema2)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
    assert d1.y_mean == d2.y_mean


def test_schema_partition_validation():
    with pytest.raises(SchemaError):
        FeatureSchema((GroupSpec("a", KIND_BINARY, (1,)),))  # gap at column 0


def test_csv_and_roles_roundtrip(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,y\n0,1.5\n1,2.5\n")
    roles_path = tmp_path / "roles.txt"
    roles_path.write_text("# comment\na = binary\ny = response\n")
    table = read_csv_columns(csv_path)
    roles = read_roles(roles_path)
    assert set(table) == {"a", "y"}
    assert roles == {"a": "binary", "y": "response"}
    schema = build_schema(table, roles)
    ds = encode(table, schema)
    assert ds.y_mean == 2.0
