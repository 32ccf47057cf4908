"""The benchmark's workloads: generated inputs, training settings and the
properties the trained model must have on each surface.

Every input is drawn from the workload seed alone: the training table, the
held-out query table and the training seed.  The library sees only these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from collabtrees import Hyperparams, datagen

# Held-out R-squared must clear a floor and stay under the Monte-Carlo
# population ceiling of the y1 surface, plus the 0.02 sampling slack that
# acceptance criterion 8 allows.  The bagged-mixed floor is criterion 8's.
# exact-continuous has three deep members on raw columns: 65 seeds, among them
# the worst of a one-member sweep, gave 0.77-0.93.
R2_FLOOR = {"exact-continuous": 0.60, "bagged-mixed": 0.80}
R2_SLACK = 0.02
Y1_SIGNAL = ("x1", "x3", "x5", "x9", "x10")
Y1_PAIR = ("x9", "x10")

# binary-pursuit: linear effects on x1 and x2, signed XOR on (x2, x3).  With
# fair coins the population xMDI cells are beta^2 * Var(x) = 1.5^2 / 4 for each
# additive cell and beta^2 = 1.5^2 for the XOR cell.
PURSUIT_BETA = 1.5
PURSUIT_ADDITIVE = PURSUIT_BETA**2 / 4
PURSUIT_PAIR = PURSUIT_BETA**2
PURSUIT_ADDITIVE_TOL = 0.10
PURSUIT_PAIR_TOL = 0.20


@dataclass
class Inputs:
    train: dict  # raw columns including the response "y"
    roles: dict
    n_bins: int | None
    query: dict  # raw feature columns of held-out rows
    query_y: np.ndarray
    hp: Hyperparams
    threads: int
    n_single: int  # leading query rows also predicted one at a time
    n_persist: int  # save/load pairs per round, so small models give enough samples

    @property
    def pool_workers(self) -> int:
        """Worker processes ``grow_ensemble`` starts; 0 when it trains in-process."""
        pooled = self.threads > 1 and self.hp.n_estimators > 1
        return min(self.threads, self.hp.n_estimators) if pooled else 0


def _seeds(seed: int) -> tuple[int, int]:
    train_seed, query_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(train_seed), int(query_seed)


def _y1_table(n: int, p: int, seed: int) -> dict:
    x = datagen.gaussian_copula_ar1(datagen.CopulaConfig(n=n, p=p, lam=0.1, seed=seed))
    y = datagen.model_y1(x, np.random.default_rng(seed))
    return datagen.matrix_to_table(x, y)


def exact_continuous(seed: int) -> Inputs:
    """Criterion-9 shape scaled down: three deep argmax members on raw
    columns, trained in-process."""
    train_seed, query_seed = _seeds(seed)
    train = _y1_table(1_500, 79, train_seed)
    query = _y1_table(10_000, 79, query_seed)
    query_y = query.pop("y")
    roles = {name: "continuous" for name in train}
    roles["y"] = "response"
    # min_samples_leaf=0 keeps every split, so each tree grows until its nodes
    # hold at most min_samples_split rows.  With a leaf minimum, a split whose
    # best cut isolates a few rows is abandoned with its whole subtree, and the
    # training work then varies threefold from seed to seed.  Three members,
    # not one: a single bootstrapped member missed the surface on about 2 % of
    # 260 seeds (held-out R2 down to 0.52, a noise column above x10), and the
    # size of one deep model varies more from seed to seed than that of three.
    hp = Hyperparams(n_estimators=3, n_trees=11, alpha=math.inf, min_samples_split=100,
                     min_samples_leaf=0, max_depth=20, random_update=1.0, seed=seed)
    return Inputs(train, roles, None, query, query_y, hp, threads=1, n_single=16, n_persist=4)


def _mixed_table(n: int, seed: int) -> dict:
    table = _y1_table(n, 10, seed)
    rng = np.random.default_rng([seed, 1])
    for j in range(1, 6):
        table[f"b{j}"] = (rng.random(n) < 0.5).astype(float)
    for j in range(1, 6):
        table[f"c{j}"] = np.array([f"L{v}" for v in rng.integers(0, 6, n)], dtype=object)
    return table


def bagged_mixed(seed: int) -> Inputs:
    """Binned y1 signal plus binary and six-level categorical noise, bagged."""
    train_seed, query_seed = _seeds(seed)
    train = _mixed_table(1_500, train_seed)
    query = _mixed_table(3_000, query_seed)
    query_y = query.pop("y")
    roles = {name: "continuous" for name in train if name.startswith("x")}
    roles.update({name: "binary" for name in train if name.startswith("b")})
    roles.update({name: "categorical" for name in train if name.startswith("c")})
    roles["y"] = "response"
    hp = Hyperparams(n_estimators=8, n_trees=11, alpha=100.0, min_samples_split=5,
                     min_samples_leaf=5, n_bins=10, random_update=0.1, seed=seed)
    return Inputs(train, roles, 10, query, query_y, hp, threads=2, n_single=8, n_persist=2)


def _pursuit_table(n: int, p: int, seed: int) -> dict:
    x, y = datagen.xor_linear_binary(
        n, p, {0: PURSUIT_BETA, 1: PURSUIT_BETA}, {(1, 2): PURSUIT_BETA}, 0.5,
        np.random.default_rng(seed), noise_sd=1.0,
    )
    return datagen.matrix_to_table(x, y)


def binary_pursuit(seed: int) -> Inputs:
    """Wide fair-coin features with known population effects (depth-2 trees)."""
    train_seed, query_seed = _seeds(seed)
    train = _pursuit_table(20_000, 500, train_seed)
    query = _pursuit_table(10_000, 500, query_seed)
    query_y = query.pop("y")
    roles = {name: "binary" for name in train}
    roles["y"] = "response"
    hp = Hyperparams(n_estimators=2, n_trees=6, alpha=math.inf, min_samples_split=5,
                     min_samples_leaf=5, max_depth=2, random_update=1.0, seed=seed)
    return Inputs(train, roles, None, query, query_y, hp, threads=2, n_single=256, n_persist=8)


WORKLOADS = {
    "exact-continuous": exact_continuous,
    "bagged-mixed": bagged_mixed,
    "binary-pursuit": binary_pursuit,
}


def y1_ceiling() -> float:
    """Population R-squared ceiling of y1 with unit noise.  The AR(1) chain's
    first ten columns have the same law at any p, so ten columns suffice."""
    return datagen.model_y1_r2_ceiling(10, 0.1, n_mc=200_000, seed=0)


def _largest_pair(values: np.ndarray, labels) -> tuple[str, str]:
    off = values.copy()
    np.fill_diagonal(off, -np.inf)
    i, j = np.unravel_index(int(np.argmax(off)), off.shape)
    return tuple(sorted((labels[i], labels[j]), key=labels.index))


def property_failures(name: str, xmdi: np.ndarray, labels, r2: float) -> list[str]:
    """Check 5: what the method must recover on this workload's surface."""
    labels = list(labels)
    failures = []
    if name == "binary-pursuit":
        i1, i2, i3 = (labels.index(f"x{j}") for j in (1, 2, 3))
        for i in (i1, i2):
            if abs(xmdi[i, i] - PURSUIT_ADDITIVE) > PURSUIT_ADDITIVE_TOL:
                failures.append(
                    f"additive cell of {labels[i]} is {xmdi[i, i]:.4f}, "
                    f"expected {PURSUIT_ADDITIVE} +- {PURSUIT_ADDITIVE_TOL}"
                )
        if abs(xmdi[i2, i3] - PURSUIT_PAIR) > PURSUIT_PAIR_TOL:
            failures.append(
                f"(x2, x3) cell is {xmdi[i2, i3]:.4f}, expected {PURSUIT_PAIR} +- {PURSUIT_PAIR_TOL}"
            )
        pair = _largest_pair(xmdi, labels)
        if pair != ("x2", "x3"):
            failures.append(f"largest interaction is {pair}, not (x2, x3)")
        return failures

    ceiling = y1_ceiling()
    if not R2_FLOOR[name] <= r2 <= ceiling + R2_SLACK:
        failures.append(
            f"held-out R2 {r2:.4f} outside [{R2_FLOOR[name]}, {ceiling:.4f} + {R2_SLACK}]"
        )
    overall = xmdi.sum(axis=1)
    signal = [labels.index(s) for s in Y1_SIGNAL]
    others = [i for i in range(len(labels)) if i not in signal]
    if overall[signal].min() <= overall[others].max():
        failures.append(
            f"weakest signal importance {overall[signal].min():.4f} does not exceed "
            f"strongest other group {overall[others].max():.4f}"
        )
    pair = _largest_pair(xmdi, labels)
    if pair != Y1_PAIR:
        failures.append(f"largest interaction is {pair}, not {Y1_PAIR}")
    return failures
