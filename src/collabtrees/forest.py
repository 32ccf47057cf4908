"""Growing K collaborative trees: scheduling, node validity, bagging, prediction.

Training keeps a list of associated-node sets awaiting update.  Every round
scores each candidate (set, group) pair, picks one by argmax or softmax
sampling (:func:`_select`) among the sets the update priority allows
(:func:`_allowed`: root sets first, then depth-one sets), splits the chosen
set's nodes on the chosen group, and adds within-child residual means to the
owning tree.  After the first ``2K`` completed updates only a random subset of
the list is scored.

Scores depend on residuals only through the rows inside a set, so each set's
score vector is cached and recomputed lazily when an update touches its rows.
Single-column sort orders are carried from parent to child by stable
filtering, which keeps full-update training tractable at ``n`` in the tens of
thousands.  A bagged member trains on row indices into the one shared encoded
matrix: only the per-family structures (sort orders, one-hot labels) are
gathered for its rows, and 0/1 columns are read from the shared matrix.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import EncodedDataset, FeatureSchema
from .errors import ConfigError, DataError, SchemaError

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


@njit(cache=True)
def _scan_single_columns(order, boundary, r, values_t):
    """Best centered two-child reduction per column of one node.

    ``order`` holds per-column row ids sorted by value, ``boundary`` marks
    positions where consecutive sorted values differ, ``values_t`` is the
    (column, n) value matrix for cut retrieval.  Returns per-column scores and
    cut values; columns with no boundary score zero.
    """
    n_cols, nn = order.shape
    scores = np.zeros(n_cols)
    cuts = np.empty(n_cols)
    buf = np.empty(nn)
    for s in range(n_cols):
        tot = 0.0
        for t in range(nn):
            v = r[order[s, t]]
            buf[t] = v
            tot += v
        best = -np.inf
        best_t = -1
        left = 0.0
        base = tot * tot / nn
        for t in range(nn - 1):
            left += buf[t]
            if boundary[s, t]:
                ln = t + 1.0
                rn = nn - ln
                right = tot - left
                sc = left * left / ln + right * right / rn - base
                if sc > best:
                    best = sc
                    best_t = t
        if best_t < 0:
            scores[s] = 0.0
            cuts[s] = values_t[s, order[s, 0]]
        else:
            scores[s] = best if best > 0.0 else 0.0
            cuts[s] = values_t[s, order[s, best_t]]
    return scores, cuts


def _scan_single_columns_numpy(order, boundary, r, values_t):
    """Vectorized equivalent of :func:`_scan_single_columns`."""
    n_cols, nn = order.shape
    rows = np.arange(n_cols)
    csum = np.take(r, order)
    np.cumsum(csum, axis=1, out=csum)
    tot = csum[:, -1:]
    left = csum[:, :-1]
    ln = np.arange(1, nn, dtype=float)
    # left**2 / ln + (tot - left)**2 / (nn - ln) - tot**2 / nn, evaluated in
    # the same order with one temporary; right overwrites left once squared.
    sc = np.square(left)
    sc /= ln
    right = np.subtract(tot, left, out=left)
    np.square(right, out=right)
    right /= nn - ln
    sc += right
    sc -= tot**2 / nn
    np.putmask(sc, ~boundary, -np.inf)
    has_cut = boundary.any(axis=1)
    t = np.argmax(sc, axis=1)
    val = sc[rows, t]
    cut = np.where(
        has_cut,
        values_t[rows, order[rows, t]],
        values_t[rows, order[:, 0]],
    )
    return np.where(has_cut, np.maximum(val, 0.0), 0.0), cut


_single_column_scan = _scan_single_columns if _HAVE_NUMBA else _scan_single_columns_numpy

Constraint = tuple[int, bool, float]  # (column, is_greater, threshold)

__all__ = [
    "Hyperparams",
    "SplitRound",
    "CollabTreesModel",
    "EnsembleModel",
    "node_valid_for_split",
    "children_valid_for_update",
    "grow",
    "grow_ensemble",
    "predict_model",
    "predict_ensemble",
]


@dataclass(frozen=True)
class Hyperparams:
    """Training hyperparameters; value sets for tuning live in ``bench``.

    ``n_bins`` is consumed by the encoding pipeline (schema construction),
    not by ``grow`` itself, and rides along here so tuning can search it."""

    n_estimators: int = 100
    n_trees: int = 10
    alpha: float = math.inf
    min_samples_split: int = 5
    min_samples_leaf: int = 0
    n_bins: int | None = None
    random_update: float = 1.0
    max_depth: float = math.inf
    seed: int = 42

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ConfigError("n_estimators must be at least 1")
        if self.n_trees < 1:
            raise ConfigError("n_trees must be at least 1")
        if not (self.alpha >= 0):
            raise ConfigError("alpha must be nonnegative (or inf)")
        if self.min_samples_split < 0 or self.min_samples_leaf < 0:
            raise ConfigError("min_samples_* must be nonnegative")
        if self.n_bins is not None and self.n_bins < 2:
            raise ConfigError("n_bins must be at least 2 when provided")
        if not (0.0 <= self.random_update <= 1.0):
            raise ConfigError("random_update must lie in [0, 1]")
        if not (self.max_depth >= 1):
            raise ConfigError("max_depth must be positive")


@dataclass(frozen=True)
class SplitRound:
    """One completed update: round index, tree, split group, parent round, drop."""

    index: int
    tree: int
    group: int
    parent_round: int | None
    drop: float
    n_nodes: int
    n_updated: int


@dataclass(eq=False)
class CollabTreesModel:
    """K additive trees stored as (region constraints, increment) pairs.

    ``trees`` is the canonical form.  Prediction walks a compiled copy of it,
    built on first use and kept in ``_compiled`` together with the ``trees``
    object it came from; ``dataclasses.replace`` starts a new model without it.
    """

    trees: tuple[tuple[tuple[tuple[Constraint, ...], float], ...], ...]
    rounds: tuple[SplitRound, ...]
    y_mean: float
    n_train: int
    schema: FeatureSchema
    _compiled: tuple | None = field(default=None, init=False, repr=False)


@dataclass(eq=False)
class EnsembleModel:
    """Bagged collaborative-tree models plus the resample that trained each."""

    models: tuple[CollabTreesModel, ...]
    bootstrap_indices: tuple[np.ndarray, ...]
    hyperparams: Hyperparams
    schema: FeatureSchema
    y_mean: float
    n_train: int


def node_valid_for_split(size: int, depth: int, hp: Hyperparams) -> bool:
    """A node of ``size`` rows at ``depth`` may be split while shallower than
    max_depth and strictly larger than both sample-count thresholds.

    ``grow`` applies this to every child it enqueues; the roots are enqueued
    whatever their size.
    """
    return depth < hp.max_depth and size > max(hp.min_samples_split, hp.min_samples_leaf)


def children_valid_for_update(sizes: Sequence[int], hp: Hyperparams) -> tuple[int, ...]:
    """Positions of the children, given their sizes, that receive tree
    increments: all larger than min_samples_leaf, provided at least two
    qualify; otherwise none, and the split is abandoned."""
    valid = tuple(i for i, size in enumerate(sizes) if size > hp.min_samples_leaf)
    return valid if len(valid) >= 2 else ()


def _allowed(depths: np.ndarray) -> np.ndarray:
    """Update priority over candidate sets of these depths: root sets first,
    then depth-one sets, then every deeper set alike.  True where a set may be
    chosen this round; at least one always is."""
    level = np.minimum(depths, 2)
    return level == level.min()


def _select(scores: np.ndarray, alpha: float, rng: np.random.Generator) -> int:
    """Flat index of the (set, group) pair chosen from a (set, group) score matrix.

    With ``alpha = inf`` one of the maximizers, uniformly, in (set, group)
    order; otherwise a draw with probability ``exp(alpha * score)``
    normalized, computed relative to the largest score.
    """
    s = scores.ravel()
    if math.isinf(alpha):
        ties = np.flatnonzero(s == s.max())
        return int(ties[rng.integers(len(ties))])
    p = np.exp(alpha * (s - s.max()))
    p /= p.sum()
    return int(rng.choice(p.size, p=p))


class _NodeCache:
    """One node: its region and per-node scoring state (rows, per-column sort
    orders, fixed counts).

    ``path`` is the node's region, the constraints from the root down;
    ``rows`` index the member's sample; ``x_rows`` are the same rows of the
    shared matrix, kept when there are 0/1 columns to read from it.
    """

    __slots__ = ("path", "rows", "x_rows", "gs_order", "gs_boundary", "bin_ones")

    def __init__(self, rows):
        self.path: tuple[Constraint, ...] = ()
        self.rows = rows
        self.x_rows = None
        self.gs_order = None
        self.gs_boundary = None
        self.bin_ones = None


class _SetCells:
    """Scoring state of a whole set, built once when the set is enqueued,
    since a set's rows never change.

    ``rows`` are the nodes' rows end to end.  ``flat`` holds every row's
    one-hot cell ids, shifted by ``multi_total`` per node, so that one
    bincount sums the cells of every node; ``counts`` are the cells' row
    counts (inf when empty) and ``starts`` the first cell of each
    (node, group) segment.  ``sizes`` are the node sizes; ``n1`` and ``n0``
    the (node, 0/1 column) counts of ones and zeros, and ``ok`` where both
    are positive.
    """

    __slots__ = ("rows", "flat", "counts", "starts", "sizes", "n1", "n0", "ok")


class _SetState:
    """A set of sibling nodes awaiting update (a root alone, or the children
    of one split), with its cached (group) scores and per-node cuts."""

    __slots__ = ("sid", "tree", "depth", "parent_round", "items", "cells", "scores", "cuts",
                 "max_score", "fresh", "cum_at")

    def __init__(self, sid, tree, depth, parent_round, items, cells):
        self.sid = sid
        self.tree = tree
        self.depth = depth
        self.parent_round = parent_round
        self.items = items  # list of _NodeCache
        self.cells = cells  # _SetCells, or None when every column is scanned
        self.scores = None
        self.cuts = None
        self.max_score = -math.inf
        self.fresh = False
        self.cum_at = 0.0  # cumulative residual-change norm at last scoring


# A node holding at least 1/_PRODUCT_SHARE of the matrix rows sums its 0/1
# columns as ``np.bincount(sample[rows], weights) @ x_bin``, which reads every
# matrix row once; a smaller node gathers its own rows and multiplies, which
# copies each of them.  Timed alone (2 cores, numpy 2.4 on OpenBLAS), the two
# cost the same at a share of 1/4 to 1/5 on 20 000 x 500 and 10 000 x 200 (at
# 1/2 the gather took 3.5x as long, at 1/8 the product 1.7x); on 1 500 x 5
# both take about 10 us.
_PRODUCT_SHARE = 4


# The argmax bound holds in exact arithmetic.  Computed scores carry rounding
# error of up to about n * eps times the residual sum of squares (sums of up
# to n residuals, squared), and the running norm of residual changes absorbs
# changes below its last bit.  Without a margin, once every score is rounding
# noise, a stale set's bound can fall an ulp short of an exact tie with the
# best, and the tie goes unseen.  A stale set is left unscored only when its
# bound falls short of the best by more than this share of the initial sum of
# squares, which covers n * eps for n up to about 4 million rows.
_PRUNE_MARGIN = 1e-9


def _columns(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``x[:, cols]``, as a view when ``cols`` is one ascending run."""
    if cols.size and (np.diff(cols) == 1).all():
        return x[:, cols[0] : cols[-1] + 1]
    return x[:, cols]


class _Scorer:
    """Vectorized split scoring over all groups for one member's training rows.

    ``sample`` holds the member's rows as indices into ``x`` (a bootstrap
    repeats some); a node's ``rows`` index into ``sample``.  Columns are
    handled by family: one-hot groups through one offset bincount per set,
    0/1 single columns through per-node matrix-vector products on the shared
    matrix, and general single columns through cached per-column sort orders
    with a per-node cumulative-sum scan.  A single column counts as 0/1 when
    it holds only 0 and 1 on the member's rows.
    """

    def __init__(self, x: np.ndarray, schema: FeatureSchema, sample: np.ndarray | None = None):
        self.x = x
        self.sample = np.arange(x.shape[0]) if sample is None else np.asarray(sample, dtype=np.intp)
        self.n = len(self.sample)
        self.n_groups = schema.n_groups
        self.group_columns = [np.asarray(g.column_indices, dtype=np.intp) for g in schema.groups]

        multi_idx, multi_sizes, single_idx = [], [], []
        for m, g in enumerate(schema.groups):
            if g.size > 1:
                multi_idx.append(m)
                multi_sizes.append(g.size)
            else:
                single_idx.append(m)
        single_idx = np.asarray(single_idx, dtype=np.intp)
        single_cols = np.asarray([self.group_columns[m][0] for m in single_idx], dtype=np.intp)
        block = _columns(x, single_cols)
        ok = block == 0.0
        ok |= block == 1.0
        is01 = ok.all(axis=0)
        # A column with other values may still hold only 0 and 1 on the rows
        # this member drew.
        mixed = np.flatnonzero(~is01)
        if mixed.size:
            is01[mixed] = ok[np.ix_(self.sample, mixed)].all(axis=0)

        self.multi_idx = np.asarray(multi_idx, dtype=np.intp)
        self.n_multi = len(multi_idx)
        self.multi_slot = np.full(self.n_groups, -1, dtype=np.intp)
        self.multi_slot[self.multi_idx] = np.arange(self.n_multi)
        if self.n_multi:
            sizes = np.asarray(multi_sizes)
            self.multi_offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            self.multi_total = int(sizes.sum())
            labels = np.empty((self.n, self.n_multi), dtype=np.int32)
            for slot, m in enumerate(multi_idx):
                cols = self.group_columns[m]
                labels[:, slot] = np.argmax(x[np.ix_(self.sample, cols)], axis=1)
            self.labels = labels
            self.labels_off = (labels + self.multi_offsets[None, :]).astype(np.int64)
        else:
            self.labels = None
            self.labels_off = None

        self.bin_idx = single_idx[is01]
        self.x_bin = _columns(x, single_cols[is01]) if self.bin_idx.size else None
        self.gs_idx = single_idx[~is01]
        self.n_gs = len(self.gs_idx)
        gs_cols = single_cols[~is01]
        self.xT_gs = np.ascontiguousarray(x[np.ix_(self.sample, gs_cols)].T) if self.n_gs else None
        self._gs_rows = np.arange(self.n_gs)
        self._member = np.zeros(self.n, dtype=bool)
        # Cut row of a node before its scan: 0/1 columns cut at 0, one-hot
        # groups have none.
        self._cut_row = np.full(self.n_groups, np.nan)
        self._cut_row[self.bin_idx] = 0.0

    def root_cache(self) -> _NodeCache:
        cache = _NodeCache(np.arange(self.n, dtype=np.int32))
        if self.n_gs:
            cache.gs_order = np.argsort(self.xT_gs, axis=1, kind="stable").astype(np.int32)
            sv = np.take_along_axis(self.xT_gs, cache.gs_order, axis=1)
            cache.gs_boundary = sv[:, :-1] != sv[:, 1:]
        if self.x_bin is not None:
            cache.x_rows = self.sample
            cache.bin_ones = self._bin_sums(cache.x_rows)
        return cache

    def child_cache(self, parent: _NodeCache, rows: np.ndarray) -> _NodeCache:
        cache = _NodeCache(rows)
        nn = len(rows)
        if self.n_gs:
            self._member[rows] = True
            keep = self._member[parent.gs_order]
            cache.gs_order = parent.gs_order[keep].reshape(self.n_gs, nn)
            self._member[rows] = False
            if nn >= 2:
                sv = self.xT_gs[self._gs_rows[:, None], cache.gs_order]
                cache.gs_boundary = sv[:, :-1] != sv[:, 1:]
            else:
                cache.gs_boundary = np.zeros((self.n_gs, max(nn - 1, 0)), dtype=bool)
        if self.x_bin is not None:
            cache.x_rows = self.sample[rows]
            cache.bin_ones = self._bin_sums(cache.x_rows)
        return cache

    def set_cells(self, caches: Sequence[_NodeCache]) -> _SetCells | None:
        """The set's :class:`_SetCells`; None when every column is scanned."""
        if not self.n_multi and self.x_bin is None:
            return None
        cells = _SetCells()
        n_nodes = len(caches)
        cells.sizes = [len(c.rows) for c in caches]
        if self.n_multi:
            shift = np.arange(n_nodes) * self.multi_total
            cells.rows = caches[0].rows if n_nodes == 1 else np.concatenate([c.rows for c in caches])
            flat = self.labels_off[cells.rows]
            if n_nodes > 1:
                flat += np.repeat(shift, cells.sizes)[:, None]
            cells.flat = flat.ravel()
            cells.counts = _cell_counts(cells.flat, n_nodes * self.multi_total)
            cells.starts = (shift[:, None] + self.multi_offsets).ravel()
        if self.x_bin is not None:
            cells.n1 = np.array([c.bin_ones for c in caches])
            cells.n0 = np.array(cells.sizes)[:, None] - cells.n1
            cells.ok = (cells.n1 > 0) & (cells.n0 > 0)
        return cells

    def score_node(self, cache: _NodeCache, r: np.ndarray, scores: np.ndarray, cuts: np.ndarray):
        """The per-node step of a set scoring.

        Writes the scan's scores and cuts of this node into ``scores`` and
        ``cuts``, its rows of the set's matrices.  Returns the node's residual
        total and its residual sums per 0/1 column, or None without 0/1
        columns.  These sums stay per node: summed over all nodes at once
        they would be rounded in another order.
        """
        if self.n_gs:
            if len(cache.rows) >= 2:
                val, cut = _single_column_scan(cache.gs_order, cache.gs_boundary, r, self.xT_gs)
                scores[self.gs_idx] = val
            else:
                cut = self.xT_gs[self._gs_rows, cache.gs_order[:, 0]]
            cuts[self.gs_idx] = cut
        if self.x_bin is None:
            return None
        r_node = r[cache.rows]
        return float(r_node.sum()), self._bin_sums(cache.x_rows, r_node)

    def score_nodes(self, caches: Sequence[_NodeCache], cells: _SetCells | None, r: np.ndarray):
        """(node, group) scores and cuts of a set's nodes.

        The scan and the 0/1 sums run node by node; the 0/1 score formula
        runs once over the (node, 0/1 column) block, and the one-hot cells of
        every node are summed with one bincount and reduced with one reduceat.
        """
        n_nodes = len(caches)
        scores = np.zeros((n_nodes, self.n_groups))
        cuts = np.empty((n_nodes, self.n_groups))
        cuts[:] = self._cut_row
        sums = [self.score_node(c, r, scores[i], cuts[i]) for i, c in enumerate(caches)]

        if self.x_bin is not None:
            total = np.array([[t] for t, _ in sums])
            # Python floats, so that t**2 goes through pow as it did per node.
            base = np.array([[t**2 / nn] for (t, _), nn in zip(sums, cells.sizes)])
            s1 = np.array([s for _, s in sums])
            with np.errstate(divide="ignore", invalid="ignore"):
                val = s1**2 / cells.n1 + (total - s1) ** 2 / cells.n0 - base
            scores[:, self.bin_idx] = np.where(cells.ok, np.maximum(val, 0.0), 0.0)

        if self.n_multi:
            w = r[cells.rows].repeat(self.n_multi)
            cell_sums = np.bincount(cells.flat, weights=w, minlength=len(cells.counts))
            # An empty cell has sum 0 and count inf, so its ratio is 0.
            ratio = cell_sums * cell_sums / cells.counts
            scores[:, self.multi_idx] = np.add.reduceat(ratio, cells.starts).reshape(n_nodes, -1)
        return scores, cuts

    def _bin_sums(self, x_rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Per 0/1 column, the sum of ``weights`` (default 1) over matrix rows ``x_rows``."""
        n_x = self.x.shape[0]
        if len(x_rows) * _PRODUCT_SHARE >= n_x:
            return np.bincount(x_rows, weights, n_x) @ self.x_bin
        xb = self.x_bin[x_rows]
        return xb.sum(axis=0) if weights is None else weights @ xb


def _cell_counts(flat: np.ndarray, total: int) -> np.ndarray:
    """Rows per one-hot cell as floats, with inf for an empty cell."""
    counts = np.bincount(flat, minlength=total).astype(float)
    counts[counts == 0] = np.inf
    return counts


def _score_set(scorer: _Scorer, st: _SetState, r: np.ndarray) -> None:
    """Score a set: per group, the sum of its nodes' scores in node order."""
    scores, cuts = scorer.score_nodes(st.items, st.cells, r)
    # np.add.reduce may pair the rows up; accumulate adds them in order.
    st.scores = scores[0] if len(scores) == 1 else np.add.accumulate(scores, axis=0)[-1]
    st.cuts = cuts
    st.max_score = float(st.scores.max())
    st.fresh = True


def grow(
    dataset: EncodedDataset,
    schema: FeatureSchema,
    hp: Hyperparams,
    rng: np.random.Generator,
    sample: np.ndarray | None = None,
) -> CollabTreesModel:
    """Train one collaborative-trees model on an encoded (centered) dataset.

    ``sample`` holds the training rows as indices into ``dataset``, repeats
    included (a bootstrap); by default every row once, in order.  Training
    follows ``EncodedDataset(x[sample], y[sample], y_mean)`` without copying
    the matrix; only the order in which large nodes sum 0/1 columns differs.
    """
    x = dataset.x
    n = dataset.n if sample is None else len(sample)
    if n < 2:
        raise DataError("training requires at least two samples")
    if schema.n_columns != x.shape[1]:
        raise SchemaError("schema does not match the encoded matrix width")
    K = hp.n_trees
    scorer = _Scorer(x, schema, sample)
    r = np.asarray(dataset.y, dtype=float)[scorer.sample]

    sets: dict[int, _SetState] = {}
    owner = np.full((n, K), -1, dtype=np.int32)
    root = scorer.root_cache()
    root_cells = scorer.set_cells([root])
    next_id = 0
    for k in range(K):
        sets[next_id] = _SetState(next_id, k, 0, None, [root], root_cells)
        owner[:, k] = next_id
        next_id += 1

    log: list[SplitRound] = []
    trees: list[list] = [[] for _ in range(K)]
    cum_change = 0.0  # running sum of residual-update norms, for score bounds
    margin = _PRUNE_MARGIN * float(r @ r)

    while sets:
        ids = list(sets.keys())
        if len(log) < 2 * K or hp.random_update >= 1.0 or len(ids) == 1:
            cand_ids = ids
        else:
            m = max(int(hp.random_update * len(ids) + 0.5), 1)
            if m >= len(ids):
                cand_ids = ids
            else:
                pos = np.sort(rng.choice(len(ids), size=m, replace=False))
                cand_ids = [ids[i] for i in pos]

        depths = np.array([sets[sid].depth for sid in cand_ids])
        allowed = [sid for sid, ok in zip(cand_ids, _allowed(depths)) if ok]

        if math.isinf(hp.alpha):
            # Every candidate score is a squared projection norm of the
            # residuals, so its square root moves by at most the norm of the
            # residual change.  A stale set whose bound falls below the best
            # current candidate (by more than ``margin``) cannot win the
            # argmax and stays unscored.
            best = -math.inf
            for sid in allowed:
                if sets[sid].fresh and sets[sid].max_score > best:
                    best = sets[sid].max_score
            stale = []
            for sid in allowed:
                st = sets[sid]
                if not st.fresh:
                    if st.scores is None:
                        ub = math.inf
                    else:
                        slack = cum_change - st.cum_at
                        ub = (math.sqrt(max(st.max_score, 0.0)) + slack) ** 2
                    stale.append((ub, sid))
            stale.sort(reverse=True)
            for ub, sid in stale:
                if ub + margin < best:
                    break
                _score_set(scorer, sets[sid], r)
                sets[sid].cum_at = cum_change
                if sets[sid].max_score > best:
                    best = sets[sid].max_score
        else:
            for sid in allowed:
                if not sets[sid].fresh:
                    _score_set(scorer, sets[sid], r)
                    sets[sid].cum_at = cum_change
        fresh = [sid for sid in allowed if sets[sid].fresh]
        flat = _select(np.stack([sets[sid].scores for sid in fresh]), hp.alpha, rng)
        sid, mhat = fresh[flat // scorer.n_groups], flat % scorer.n_groups

        st = sets.pop(sid)
        for cache in st.items:
            owner[cache.rows, st.tree] = -1

        cols = scorer.group_columns[mhat]
        col_ids = cols.tolist()
        drop = 0.0
        updated = 0
        changed_rows = []
        pending = []
        for i, cache in enumerate(st.items):
            rows = cache.rows
            if len(cols) > 1:
                # A stable sort by label keeps each child's rows in node order.
                lab = scorer.labels[rows, scorer.multi_slot[mhat]]
                ordered = rows[lab.argsort(kind="stable")]
                counts = np.bincount(lab, minlength=len(cols))
                ends = counts.cumsum().tolist()
                counts = counts.tolist()
                children = [
                    (ordered[end - count : end], cache.path + ((col_ids[j], True, 0.0),))
                    for j, (count, end) in enumerate(zip(counts, ends))
                    if count
                ]
            else:
                c = float(st.cuts[i, mhat])
                v = x[scorer.sample[rows], col_ids[0]]
                children = [
                    (rows[v > c], cache.path + ((col_ids[0], True, c),)),
                    (rows[v <= c], cache.path + ((col_ids[0], False, c),)),
                ]
            valid = children_valid_for_update([len(crows) for crows, _ in children], hp)
            if not valid:
                continue  # split abandoned: no increment, children not enqueued
            updated += len(valid)
            for j in valid:
                crows, path = children[j]
                mean = float(r[crows].mean())
                r[crows] -= mean
                drop += len(crows) * mean * mean
                trees[st.tree].append((path, mean))
                changed_rows.append(crows)
            splittable = [
                ch for ch in children if node_valid_for_split(len(ch[0]), st.depth + 1, hp)
            ]
            if splittable:
                pending.append((cache, splittable))

        if not updated:
            continue
        s_index = len(log) + 1
        log.append(
            SplitRound(s_index, st.tree, mhat, st.parent_round, drop, len(st.items), updated)
        )
        cum_change += math.sqrt(max(drop, 0.0))
        # Mark every set that owns a changed row; -1 (no owner) lands in the last slot.
        touched = np.zeros(next_id + 1, dtype=bool)
        touched[owner[np.concatenate(changed_rows)]] = True
        for sid2 in np.flatnonzero(touched[:-1]).tolist():
            sets[sid2].fresh = False
        for cache, splittable in pending:
            items = []
            for crows, path in splittable:
                ccache = scorer.child_cache(cache, crows)
                ccache.path = path
                items.append(ccache)
            cells = scorer.set_cells(items)
            sets[next_id] = _SetState(next_id, st.tree, st.depth + 1, s_index, items, cells)
            for cc in items:
                owner[cc.rows, st.tree] = next_id
            next_id += 1

    return CollabTreesModel(
        trees=tuple(tuple(t) for t in trees),
        rounds=tuple(log),
        y_mean=dataset.y_mean,
        n_train=n,
        schema=schema,
    )


def _compile(trees) -> tuple[tuple, ...]:
    """Flat per-node arrays (parent, column, greater, threshold, value) of all trees.

    One node per increment, tree after tree, each tree in its list order, so a
    row meets its increments in the order the trees list them.  A node tests
    only its last constraint, on the rows that reached its parent (-1: the
    root).  A path prefix that no earlier increment of its tree carries gets a
    node of its own with value None; an increment on the empty path has
    column -1 and passes every row.
    """
    parent, column, greater, threshold, value = [], [], [], [], []

    def add(at, constraint, v):
        col, gt, thr = constraint
        parent.append(at)
        column.append(int(col))
        greater.append(bool(gt))
        threshold.append(float(thr))
        value.append(v)
        return len(parent) - 1

    for tree in trees:
        index = {(): -1}
        for constraints, v in tree:
            path = tuple(map(tuple, constraints))
            if not path:
                add(-1, (-1, False, 0.0), float(v))
                continue
            # Grown trees list every prefix first, so one lookup settles it.
            if path[:-1] not in index:
                for k in range(1, len(path)):
                    if path[:k] not in index:
                        index[path[:k]] = add(index[path[: k - 1]], path[k - 1], None)
            index[path] = add(index[path[:-1]], path[-1], float(v))
    return tuple(parent), tuple(column), tuple(greater), tuple(threshold), tuple(value)


def predict_model(model: CollabTreesModel, x: np.ndarray) -> np.ndarray | float:
    """Sum of per-tree increments over regions containing each query row.

    Walks the model's compiled nodes in order, passing each node only the row
    indices that reached its parent, so a row costs about one root-to-leaf
    path per tree whether it comes alone or in a batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.schema.n_columns:
        raise DataError("query width does not match the model schema")
    cache = model._compiled
    if cache is None or cache[0] is not model.trees:
        cache = model._compiled = (model.trees, _compile(model.trees))
    out = np.full(x.shape[0], model.y_mean)
    everything = np.arange(x.shape[0])
    reached = []
    for at, col, gt, thr, v in zip(*cache[1]):
        rows = everything if at < 0 else reached[at]
        if col >= 0 and rows.size:
            vals = x[rows, col]
            rows = rows[vals > thr] if gt else rows[vals <= thr]
        reached.append(rows)
        if v is not None and rows.size:
            out[rows] += v
    return float(out[0]) if single else out


def predict_ensemble(ensemble: EnsembleModel, x: np.ndarray) -> np.ndarray | float:
    """Mean of member predictions."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    out = np.zeros(x.shape[0])
    for m in ensemble.models:
        out += predict_model(m, x)
    out /= len(ensemble.models)
    return float(out[0]) if single else out


def _member_rng(seed: int, member: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(member,)))


def _grow_member(dataset, schema, hp, seed, b):
    rng = _member_rng(seed, b)
    idx = rng.integers(0, dataset.n, size=dataset.n)
    return grow(dataset, schema, hp, rng, idx), idx


_POOL_STATE: dict = {}


def _pool_init(dataset, schema, hp, seed):
    _POOL_STATE["args"] = (dataset, schema, hp, seed)


def _pool_task(b):
    dataset, schema, hp, seed = _POOL_STATE["args"]
    return _grow_member(dataset, schema, hp, seed, b)


def grow_ensemble(
    dataset: EncodedDataset,
    schema: FeatureSchema,
    hp: Hyperparams,
    seed: int | None = None,
    threads: int = 1,
) -> EnsembleModel:
    """Train a bagged ensemble of ``hp.n_estimators`` models.

    Member ``b`` draws a size-n bootstrap with an RNG derived from
    ``(seed, b)``, so results are identical whatever the worker count.
    """
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    if seed is None:
        seed = hp.seed
    B = hp.n_estimators
    if threads > 1 and B > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(threads, B),
            initializer=_pool_init,
            initargs=(dataset, schema, hp, seed),
        ) as pool:
            results = list(pool.map(_pool_task, range(B)))
    else:
        results = [_grow_member(dataset, schema, hp, seed, b) for b in range(B)]
    models = tuple(m for m, _ in results)
    boots = tuple(i for _, i in results)
    return EnsembleModel(
        models=models,
        bootstrap_indices=boots,
        hyperparams=hp,
        schema=schema,
        y_mean=dataset.y_mean,
        n_train=dataset.n,
    )
