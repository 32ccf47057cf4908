"""Feature-group schema, encoding and binning of raw tabular data.

A model works on *feature groups*: a single binary or continuous column, or a
block of one-hot indicator columns produced by binning a continuous column or
expanding a categorical one.  Multi-column groups always come first in the
encoded matrix; within every such group each row has exactly one active column.
The response is centered once at encode time and the subtracted mean is kept so
predictions can be reported on the original scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SchemaError

ROLES = ("response", "binary", "continuous", "categorical", "ignore")

KIND_BINARY = "binary-single"
KIND_CONTINUOUS = "continuous-single"
KIND_BINNED = "binned-continuous"
KIND_ONEHOT = "categorical-onehot"


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """One feature group: the raw column it came from and its encoded columns."""

    name: str
    kind: str
    column_indices: tuple[int, ...]
    bin_edges: tuple[float, ...] | None = None
    categories: tuple[str, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.column_indices)


@dataclass(frozen=True, eq=False)
class FeatureSchema:
    """Ordered feature groups partitioning the encoded columns ``0..p-1``.

    Multi-column groups occupy indices ``0..n_multi-1``; single-column groups
    follow.  ``response`` is the name of the raw response column, if any.
    """

    groups: tuple[GroupSpec, ...]
    response: str | None = None

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.groups:
            if seen & set(g.column_indices):
                raise SchemaError(f"groups overlap on columns for {g.name!r}")
            seen.update(g.column_indices)
        if seen != set(range(len(seen))):
            raise SchemaError("group columns do not partition 0..p-1")
        multi_done = False
        for g in self.groups:
            if g.size == 1:
                multi_done = True
            elif multi_done:
                raise SchemaError("multi-column groups must precede single-column groups")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_multi(self) -> int:
        return sum(1 for g in self.groups if g.size > 1)

    @property
    def n_columns(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.groups)


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """Encoded feature matrix plus centered response.

    ``x`` has one-hot groups stored as 0/1 floats and raw continuous columns
    untouched; ``y`` is the response minus ``y_mean``.
    """

    x: np.ndarray
    y: np.ndarray
    y_mean: float

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise DataError("x must be (n, p) and y (n,) with matching n")

    @property
    def n(self) -> int:
        return self.x.shape[0]


def quantile_bin_edges(values: np.ndarray, n_bins: int) -> tuple[float, ...]:
    """Equal-count bin edges: order statistics at positions ``ceil(k*n/n_bins)``.

    Duplicate edges and edges equal to the column maximum are removed so every
    bin is populated by at least one training point.  A column with at least
    two distinct values always yields at least two bins.
    """
    if n_bins < 2:
        raise ConfigError("n_bins must be at least 2")
    v = np.sort(np.asarray(values, dtype=float))
    n = v.shape[0]
    pos = [math.ceil(k * n / n_bins) - 1 for k in range(1, n_bins)]
    edges = np.unique(v[pos])
    edges = edges[edges < v[-1]]
    if edges.size == 0:
        edges = np.array([v[0]])
    return tuple(float(e) for e in edges)


def bin_index(values: np.ndarray, edges: tuple[float, ...]) -> np.ndarray:
    """Bin assignment with right-closed intervals: a value on an edge goes low."""
    return np.searchsorted(np.asarray(edges, dtype=float), values, side="left")


def _as_float_column(name: str, values: np.ndarray) -> np.ndarray:
    # A contiguous copy of a strided column (a view of a wider matrix) makes
    # the checks below, and the caller's, one fast pass each.
    try:
        out = np.ascontiguousarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"column {name!r} has non-numeric values") from exc
    if not np.isfinite(out).all():
        kind = "missing" if np.isnan(out).any() else "infinite"
        raise DataError(f"column {name!r} contains {kind} values")
    return out


def build_schema(
    table: dict[str, np.ndarray],
    roles: dict[str, str],
    n_bins: int | None = None,
) -> FeatureSchema:
    """Build a feature schema from raw columns and per-column role annotations.

    Roles are ``response``, ``binary``, ``continuous``, ``categorical`` or
    ``ignore``.  With ``n_bins`` given, every continuous column becomes a
    one-hot group of equal-count bins; without it they stay as single raw
    columns.  Categorical columns always become one-hot groups.
    """
    if n_bins is not None and n_bins < 2:
        raise ConfigError("n_bins must be at least 2 when provided")
    response = None
    for name, role in roles.items():
        if role not in ROLES:
            raise ConfigError(f"unknown role {role!r} for column {name!r}")
        if name not in table:
            raise ConfigError(f"role given for column {name!r} not present in the data")
        if role == "response":
            if response is not None:
                raise ConfigError("more than one response column")
            response = name

    multi: list[GroupSpec] = []
    single: list[GroupSpec] = []
    for name in table:
        role = roles.get(name, "ignore")
        if role in ("response", "ignore"):
            continue
        values = table[name]
        if role == "binary":
            col = _as_float_column(name, values)
            distinct = np.unique(col)
            if distinct.size < 2:
                raise SchemaError(f"column {name!r} has a single distinct value")
            if not np.isin(distinct, (0.0, 1.0)).all():
                raise SchemaError(f"binary column {name!r} has values outside {{0, 1}}")
            single.append(GroupSpec(name, KIND_BINARY, (0,)))
        elif role == "continuous":
            col = _as_float_column(name, values)
            if np.unique(col).size < 2:
                raise SchemaError(f"column {name!r} has a single distinct value")
            if n_bins is None:
                single.append(GroupSpec(name, KIND_CONTINUOUS, (0,)))
            else:
                edges = quantile_bin_edges(col, n_bins)
                multi.append(GroupSpec(name, KIND_BINNED, tuple(range(len(edges) + 1)), bin_edges=edges))
        elif role == "categorical":
            levels = sorted({str(v) for v in values})
            if len(levels) < 2:
                raise SchemaError(f"column {name!r} has a single distinct value")
            multi.append(
                GroupSpec(name, KIND_ONEHOT, tuple(range(len(levels))), categories=tuple(levels))
            )
    groups = multi + single
    if not groups:
        raise SchemaError("no feature columns after applying roles")

    offset = 0
    placed = []
    for g in groups:
        cols = tuple(range(offset, offset + g.size))
        placed.append(GroupSpec(g.name, g.kind, cols, g.bin_edges, g.categories))
        offset += g.size
    return FeatureSchema(tuple(placed), response=response)


def encode_features(table: dict[str, np.ndarray], schema: FeatureSchema) -> np.ndarray:
    """Encode raw feature columns into the (n, p) matrix the schema describes."""
    lengths = {len(v) for v in table.values()}
    if len(lengths) != 1:
        raise DataError("raw columns have unequal lengths")
    n = lengths.pop()
    x = np.zeros((n, schema.n_columns), dtype=float)
    for g in schema.groups:
        if g.name not in table:
            raise DataError(f"column {g.name!r} missing from the data")
        values = table[g.name]
        if g.kind == KIND_BINARY or g.kind == KIND_CONTINUOUS:
            col = _as_float_column(g.name, values)
            if g.kind == KIND_BINARY and not ((col == 0.0) | (col == 1.0)).all():
                raise DataError(f"binary column {g.name!r} has values outside {{0, 1}}")
            x[:, g.column_indices[0]] = col
        elif g.kind == KIND_BINNED:
            col = _as_float_column(g.name, values)
            idx = bin_index(col, g.bin_edges)
            x[np.arange(n), np.asarray(g.column_indices)[idx]] = 1.0
        elif g.kind == KIND_ONEHOT:
            lookup = {c: j for j, c in enumerate(g.categories)}
            for i, v in enumerate(values):
                j = lookup.get(str(v))
                if j is None:
                    raise DataError(f"unseen level {v!r} in column {g.name!r}")
                x[i, g.column_indices[j]] = 1.0
    return x


def encode(table: dict[str, np.ndarray], schema: FeatureSchema) -> EncodedDataset:
    """Encode features and the centered response into an :class:`EncodedDataset`."""
    if schema.response is None:
        raise DataError("schema has no response column")
    if schema.response not in table:
        raise DataError(f"response column {schema.response!r} missing from the data")
    y_raw = _as_float_column(schema.response, table[schema.response])
    features = {k: v for k, v in table.items() if k != schema.response}
    x = encode_features(features, schema)
    # n * sum((y - mean)^2) bounds the square of every partial residual sum a
    # split score forms; past the float range scores turn into inf and NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        y_mean = float(np.mean(y_raw))
        y = y_raw - y_mean
        spread = len(y) * float(y @ y)
    if not math.isfinite(spread):
        raise DataError(
            f"response column {schema.response!r} is too large in magnitude: "
            "n times its sum of squared deviations overflows"
        )
    return EncodedDataset(x=x, y=y, y_mean=y_mean)


def decode_group(schema: FeatureSchema, group_index: int, x_row: np.ndarray):
    """Recover the raw value behind one group of an encoded row.

    Returns the category label for one-hot groups, the bin index for binned
    groups, and the stored value for single-column groups.
    """
    g = schema.groups[group_index]
    cols = np.asarray(g.column_indices)
    if g.size == 1:
        return float(x_row[cols[0]])
    active = np.flatnonzero(x_row[cols] == 1.0)
    if active.size != 1:
        raise DataError(f"row violates the one-hot invariant for group {g.name!r}")
    j = int(active[0])
    if g.kind == KIND_ONEHOT:
        return g.categories[j]
    return j


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV file with a header row into named object-dtype columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty CSV") from None
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{reader.line_num}: {len(row)} fields where the header has {len(header)}"
                )
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: CSV has a header but no rows")
    cols = {name: np.array([r[j] for r in rows], dtype=object) for j, name in enumerate(header)}
    return cols


def read_roles(path) -> dict[str, str]:
    """Read a column-spec sidecar: one ``column name = role`` per line."""
    roles: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'column = role'")
            name, role = line.rsplit("=", 1)
            roles[name.strip()] = role.strip()
    if not roles:
        raise ConfigError(f"{path}: no role annotations found")
    return roles
