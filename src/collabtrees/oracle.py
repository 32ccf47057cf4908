"""Exact population oracles on small discrete feature models.

Given an explicit joint law over binary feature groups and a regression
table, these routines enumerate the support to compute projected additive
effects, pairwise interaction effects, and the greedy residual-projection
path that training approximates: first single groups, then pairs constrained
by which root selections remain unconsumed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FeatureSchema, GroupSpec, KIND_BINARY, KIND_ONEHOT
from .errors import ArgumentError, DataError, OracleSizeError

SUPPORT_CAP = 2**20


@dataclass(eq=False)
class DiscreteDistribution:
    """Explicit joint law over the encoded 0/1 feature space of a schema."""

    schema: FeatureSchema
    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if s.ndim != 2 or s.shape[1] != self.schema.n_columns or s.shape[0] != p.shape[0]:
            raise DataError("support and probabilities do not match the schema")
        if s.shape[0] > SUPPORT_CAP:
            raise OracleSizeError(f"support larger than {SUPPORT_CAP} configurations")
        if not np.isin(s, (0.0, 1.0)).all():
            raise DataError("support must be a 0/1 table")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
            raise DataError("probabilities must be nonnegative and sum to one")
        for g in self.schema.groups:
            if g.size > 1:
                ones = s[:, list(g.column_indices)].sum(axis=1)
                if not np.all(ones == 1.0):
                    raise DataError(f"support violates the one-hot invariant for {g.name!r}")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probabilities", p)


@dataclass(eq=False)
class RegressionSpec:
    """Regression table over the support, centered to mean zero, plus noise."""

    values: np.ndarray
    noise_sd: float = 0.0

    @classmethod
    def from_table(cls, dist: DiscreteDistribution, values, noise_sd: float = 0.0):
        v = np.asarray(values, dtype=float)
        if v.shape != dist.probabilities.shape:
            raise DataError("regression table does not match the support")
        return cls(values=v - float(v @ dist.probabilities), noise_sd=float(noise_sd))

    @classmethod
    def from_function(cls, dist: DiscreteDistribution, fn: Callable, noise_sd: float = 0.0):
        vals = np.array([fn(row) for row in dist.support], dtype=float)
        return cls.from_table(dist, vals, noise_sd)


@dataclass(eq=False)
class PursuitPath:
    """Greedy projection path: selections, objectives, residual tables."""

    selected: tuple[tuple[int, ...], ...]
    objectives: tuple[float, ...]
    residual_tables: tuple[np.ndarray, ...]
    consumed_roots: tuple[int, ...]


def binary_schema(p: int, names: Sequence[str] | None = None) -> FeatureSchema:
    """Schema of ``p`` single binary feature groups."""
    if names is None:
        names = [f"x{j + 1}" for j in range(p)]
    groups = tuple(GroupSpec(names[j], KIND_BINARY, (j,)) for j in range(p))
    return FeatureSchema(groups)


def independent_groups(schema: FeatureSchema, group_probs: Sequence) -> DiscreteDistribution:
    """Product law: one Bernoulli or categorical probability vector per group."""
    if len(group_probs) != schema.n_groups:
        raise ArgumentError("need one probability spec per group")
    states = []
    state_probs = []
    for g, gp in zip(schema.groups, group_probs):
        if g.size == 1:
            pi = float(np.asarray(gp).reshape(()))
            states.append([(0.0,), (1.0,)])
            state_probs.append([1.0 - pi, pi])
        else:
            vec = np.asarray(gp, dtype=float)
            if vec.shape != (g.size,):
                raise ArgumentError(f"group {g.name!r} needs {g.size} probabilities")
            onehots = [tuple(1.0 if t == j else 0.0 for t in range(g.size)) for j in range(g.size)]
            states.append(onehots)
            state_probs.append(list(vec))
    total = 1
    for s in states:
        total *= len(s)
        if total > SUPPORT_CAP:
            raise OracleSizeError(f"support larger than {SUPPORT_CAP} configurations")
    support_rows = []
    prob_rows = []
    for combo in itertools.product(*[range(len(s)) for s in states]):
        row = []
        pr = 1.0
        for g_idx, st_idx in enumerate(combo):
            row.extend(states[g_idx][st_idx])
            pr *= state_probs[g_idx][st_idx]
        support_rows.append(row)
        prob_rows.append(pr)
    probs = np.asarray(prob_rows, dtype=float)
    return DiscreteDistribution(schema, np.asarray(support_rows, dtype=float), probs / probs.sum())


def _group_cols(schema: FeatureSchema, J: Sequence[int]) -> list[int]:
    cols: list[int] = []
    for m in J:
        if not (0 <= m < schema.n_groups):
            raise ArgumentError(f"group index {m} out of range")
        cols.extend(schema.groups[m].column_indices)
    return cols


def _cond_mean(dist: DiscreteDistribution, values: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Pointwise conditional mean of ``values`` given the columns in ``cols``.

    Configurations carrying zero probability mass get conditional mean zero.
    """
    if len(cols) == 0:
        return np.full(len(values), float(values @ dist.probabilities))
    sub = dist.support[:, list(cols)]
    _, inverse = np.unique(sub, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    mass = np.bincount(inverse, weights=dist.probabilities)
    num = np.bincount(inverse, weights=dist.probabilities * values)
    mean = np.divide(num, mass, out=np.zeros_like(num), where=mass > 0)
    return mean[inverse]


def _variance(dist: DiscreteDistribution, values: np.ndarray) -> float:
    mu = float(values @ dist.probabilities)
    return float((values - mu) ** 2 @ dist.probabilities)


def _g_pointwise(dist: DiscreteDistribution, spec: RegressionSpec, J: Sequence[int]) -> np.ndarray:
    cols = _group_cols(dist.schema, J)
    other = [c for c in range(dist.schema.n_columns) if c not in cols]
    h = _cond_mean(dist, spec.values, other)
    return _cond_mean(dist, spec.values - h, cols)


def population_g(dist: DiscreteDistribution, spec: RegressionSpec, J: Sequence[int]) -> dict:
    """Projected residual effect of the groups in ``J`` as a configuration table.

    Keys are configurations of the groups' encoded columns; values are the
    conditional means of ``f`` minus its expectation given all other columns.
    """
    J = sorted(set(int(m) for m in J))
    if not 1 <= len(J) <= 2:
        raise ArgumentError("J must contain one or two group indices")
    g = _g_pointwise(dist, spec, J)
    cols = _group_cols(dist.schema, J)
    table: dict[tuple, float] = {}
    for row, val in zip(dist.support[:, cols], g):
        table[tuple(row)] = float(val)
    return table


def additive_effect(dist: DiscreteDistribution, spec: RegressionSpec, m: int) -> float:
    """Variance of the additive projection of group ``m``."""
    return _variance(dist, _g_pointwise(dist, spec, [m]))


def interaction_effect(dist: DiscreteDistribution, spec: RegressionSpec, pair) -> float:
    """Variance of the pair projection minus both single projections."""
    pair = sorted(set(int(m) for m in pair))
    if len(pair) != 2:
        raise ArgumentError("interaction_effect needs two distinct group indices")
    l, k = pair
    joint = _g_pointwise(dist, spec, [l, k])
    gl = _g_pointwise(dist, spec, [l])
    gk = _g_pointwise(dist, spec, [k])
    return _variance(dist, joint - gl - gk)


def matching_pursuit_path(dist: DiscreteDistribution, spec: RegressionSpec, K: int) -> PursuitPath:
    """Greedy residual-projection path of length up to ``2K``.

    Steps ``1..K`` choose among single groups; steps ``K+1..2K`` choose among
    pairs containing an unconsumed earlier selection, each pair choice
    consuming the smallest-index step that could have produced it.  Ties are
    broken toward the lexicographically smallest candidate.
    """
    M = dist.schema.n_groups
    if not 1 <= K <= M:
        raise ArgumentError("K must satisfy 1 <= K <= number of groups")
    resid = np.zeros(len(spec.values))
    tables = [resid.copy()]
    selected: list[tuple[int, ...]] = []
    objectives: list[float] = []
    consumed: list[int] = []

    def objective(J):
        return _variance(dist, _cond_mean(dist, spec.values - resid, _group_cols(dist.schema, J)))

    for _ in range(K):
        best_J, best_v = None, -math.inf
        for m in range(M):
            v = objective((m,))
            if v > best_v:
                best_J, best_v = (m,), v
        resid = resid + _cond_mean(dist, spec.values - resid, _group_cols(dist.schema, best_J))
        selected.append(best_J)
        objectives.append(best_v)
        tables.append(resid.copy())

    pair_pool = [
        {tuple(sorted((selected[s][0], k))) for k in range(M) if k != selected[s][0]}
        for s in range(K)
    ]
    open_roots = list(range(K))
    for _ in range(K):
        candidates = sorted(set().union(*(pair_pool[z] for z in open_roots))) if open_roots else []
        if not candidates:
            break
        best_J, best_v = None, -math.inf
        for J in candidates:
            v = objective(J)
            if v > best_v:
                best_J, best_v = J, v
        resid = resid + _cond_mean(dist, spec.values - resid, _group_cols(dist.schema, best_J))
        selected.append(best_J)
        objectives.append(best_v)
        tables.append(resid.copy())
        k_hat = next(z for z in open_roots if best_J in pair_pool[z])
        open_roots.remove(k_hat)
        consumed.append(k_hat)

    return PursuitPath(
        selected=tuple(selected),
        objectives=tuple(objectives),
        residual_tables=tuple(tables),
        consumed_roots=tuple(consumed),
    )


def save_table(path, dist: DiscreteDistribution, spec: RegressionSpec) -> None:
    """Write the support-table text format: sizes header, then one row per
    support point with configuration bits, probability and f-value."""
    sizes = ",".join(str(g.size) for g in dist.schema.groups)
    names = ",".join(g.name for g in dist.schema.groups)
    with open(path, "w") as fh:
        fh.write(f"groups={sizes} noise_sd={spec.noise_sd!r} names={names}\n")
        for row, p, v in zip(dist.support, dist.probabilities, spec.values):
            bits = " ".join(str(int(b)) for b in row)
            fh.write(f"{bits} {float(p)!r} {float(v)!r}\n")


def load_table(path) -> tuple[DiscreteDistribution, RegressionSpec]:
    """Read the support-table text format written by :func:`save_table`."""
    with open(path) as fh:
        header = fh.readline().strip()
        match = re.match(r"groups=(\S+) noise_sd=(\S+)(?: names=(.*))?$", header)
        if match is None:
            raise DataError(f"{path}: missing table header")
        sizes = [int(s) for s in match.group(1).split(",")]
        noise_sd = float(match.group(2))
        names = match.group(3).split(",") if match.group(3) else None
        if names is not None and len(names) != len(sizes):
            raise DataError(f"{path}: group name count does not match sizes")
        rows, probs, vals = [], [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            p_total = sum(sizes)
            if len(fields) != p_total + 2:
                raise DataError(f"{path}: bad support row {line!r}")
            rows.append([float(b) for b in fields[:p_total]])
            probs.append(float(fields[p_total]))
            vals.append(float(fields[p_total + 1]))
    groups = []
    offset = 0
    for i, size in enumerate(sizes):
        cols = tuple(range(offset, offset + size))
        name = names[i] if names is not None else f"g{i + 1}"
        if size == 1:
            groups.append(GroupSpec(name, KIND_BINARY, cols))
        else:
            groups.append(
                GroupSpec(name, KIND_ONEHOT, cols, categories=tuple(f"c{t}" for t in range(size)))
            )
        offset += size
    schema = FeatureSchema(tuple(groups))
    dist = DiscreteDistribution(schema, np.asarray(rows), np.asarray(probs))
    return dist, RegressionSpec(values=np.asarray(vals), noise_sd=noise_sd)
