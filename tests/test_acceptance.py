"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Empirical criteria use fixed seeds, so outcomes are reproducible; stated
runtime bounds are asserted where the criterion gives one.
"""

import math
import os
import time

import numpy as np
import pytest

from collabtrees.bench import DEFAULT_SEARCH_SPACE, TuneBudget, adjusted_win_rates, tuned_test_r2
from collabtrees.core import EncodedDataset, build_schema, encode
from collabtrees.core import FeatureSchema, GroupSpec, KIND_CONTINUOUS
from collabtrees.datagen import (
    CopulaConfig,
    gaussian_copula_ar1,
    matrix_to_table,
    model_y1,
    model_y1_r2_ceiling,
    xor_linear_binary,
)
from collabtrees.diagram import diagram_spec, emit_dot
from collabtrees.forest import Hyperparams, grow, grow_ensemble
from collabtrees.oracle import (
    RegressionSpec,
    _cond_mean,
    _group_cols,
    _variance,
    additive_effect,
    binary_schema,
    independent_groups,
    interaction_effect,
    matching_pursuit_path,
)
from collabtrees.xmdi import XmdiMatrix, attributed_total, compute_xmdi, ensemble_xmdi, overall_importance
from reference import brute_force_split_score
from test_forest import replay_drops
from test_splitter import production_scores

THREADS = min(2, os.cpu_count() or 1)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


# The binary feature model shared by criteria 4-6: p independent fair coins,
# linear effects on groups 0 and 1, a signed-XOR interaction on (1, 2) with
# heredity through group 1, unit noise.
P_BINARY = 50
K_BINARY = 6
S1 = {0: 1.5, 1: 1.5}
S2 = {(1, 2): 1.5}
BINARY_SCHEMA = binary_schema(P_BINARY)
SCREEN_HP = Hyperparams(
    n_estimators=1,
    n_trees=K_BINARY,
    alpha=math.inf,
    min_samples_split=5,
    min_samples_leaf=0,
    max_depth=2,
    random_update=1.0,
)

# Exact oracle on a reduced support containing every signal group: the other
# groups are independent with exactly zero effect, so their projections are
# no-ops and all their population objectives are exactly zero.
P_ORACLE = 10


def _binary_f(row):
    out = 0.0
    for j, b in S1.items():
        out += b * (row[j] - 0.5)
    for (l, k), b in S2.items():
        prod = (row[l] - 0.5) * (row[k] - 0.5)
        out += b if prod > 0 else -b
    return out


@pytest.fixture(scope="module")
def binary_oracle():
    oschema = binary_schema(P_ORACLE)
    dist = independent_groups(oschema, [0.5] * P_ORACLE)
    spec = RegressionSpec.from_function(dist, _binary_f)
    return oschema, dist, spec


def _binary_sample(n, seed):
    rng = np.random.default_rng(seed)
    x, y = xor_linear_binary(n, P_BINARY, S1, S2, 0.5, rng, noise_sd=1.0)
    return EncodedDataset(x=x, y=y - y.mean(), y_mean=float(y.mean()))


def test_criterion_01_split_score_oracle_equivalence():
    rng = np.random.default_rng(20_240_101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        gs = int(rng.integers(2, 5))
        x = np.zeros((n, gs + 2))
        x[np.arange(n), rng.integers(0, gs, size=n)] = 1.0
        x[:, gs] = rng.integers(0, 2, size=n)
        x[:, gs + 1] = np.round(rng.normal(size=n), 2)
        r = rng.normal(size=n)
        rows = np.arange(n)
        # The production scorer, through _score_set: the one-hot group, the
        # binary column and the continuous column, in that order.
        got, _ = production_scores(x, r, gs)
        want = [brute_force_split_score(x, r, rows, cols)
                for cols in (tuple(range(gs)), (gs,), (gs + 1,))]
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.time() - t0
    report(
        1,
        "split scores equal the brute-force reference on 200 random instances",
        worst <= 1e-9 and elapsed < 5.0,
        f"max |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_conservation():
    t0 = time.time()
    rng = np.random.default_rng(77)
    trained = []

    # binned, continuous, binary data; argmax and softmax; full and partial updates
    for n_bins, alpha, ru, msl in [(5, math.inf, 1.0, 5), (None, 100.0, 0.3, 0), (4, 0.001, 0.0, 5)]:
        x = gaussian_copula_ar1(CopulaConfig(n=400, p=10, lam=0.4, seed=int(rng.integers(1 << 30))))
        y = model_y1(x, rng)
        table = matrix_to_table(x, y)
        roles = {k: "continuous" for k in table if k != "y"}
        roles["y"] = "response"
        schema = build_schema(table, roles, n_bins)
        ds = encode(table, schema)
        hp = Hyperparams(n_trees=4, alpha=alpha, random_update=ru,
                         min_samples_split=10, min_samples_leaf=msl, max_depth=8)
        trained.append((grow(ds, schema, hp, np.random.default_rng(3)), ds))
    trained.append((grow(_binary_sample(1500, 5), BINARY_SCHEMA, SCREEN_HP, np.random.default_rng(5)),
                    _binary_sample(1500, 5)))

    worst = 0.0
    for model, ds in trained:
        matrix = compute_xmdi(model)
        assert np.all(matrix.values >= 0.0)
        _, final_r = replay_drops(model, ds.x, ds.y)
        delta = float(ds.y @ ds.y) - float(final_r @ final_r)
        gap = abs(attributed_total(matrix) * model.n_train - delta) / max(abs(delta), 1.0)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    report(
        2,
        "attributed importance equals the training SSE drop for every trained model",
        worst <= 1e-8 and elapsed < 30.0,
        f"max relative gap={worst:.2e}, {len(trained)} models, {elapsed:.1f}s",
    )


def test_criterion_03_table1_reproduction():
    hp = Hyperparams(n_estimators=50, n_trees=12, n_bins=5, alpha=math.inf,
                     min_samples_split=10, min_samples_leaf=5, random_update=1.0)
    signal = [0, 2, 4, 8, 9]
    noise = [m for m in range(10) if m not in signal]
    additive_signal = [0, 2, 4]
    repeats = 20
    rates = {}
    for lam in (0.1, 0.8):
        c = np.zeros(3)
        for rep in range(repeats):
            seed = 7000 + rep
            x = gaussian_copula_ar1(CopulaConfig(n=500, p=10, lam=lam, seed=seed))
            y = model_y1(x, np.random.default_rng(seed))
            table = matrix_to_table(x, y)
            roles = {k: "continuous" for k in table if k != "y"}
            roles["y"] = "response"
            schema = build_schema(table, roles, hp.n_bins)
            ds = encode(table, schema)
            ens = grow_ensemble(ds, schema, hp, seed=seed, threads=THREADS)
            matrix = ensemble_xmdi(ens)
            overall = overall_importance(matrix)
            c[0] += overall[signal].min() > overall[noise].max()
            off = matrix.values.copy()
            np.fill_diagonal(off, -1.0)
            l, k = np.unravel_index(np.argmax(off), off.shape)
            c[1] += {int(l), int(k)} == {8, 9}
            diag = np.diag(matrix.values)
            c[2] += diag[additive_signal].min() > diag[noise].max()
        rates[lam] = c / repeats
    ok = all(rate >= 0.95 for lam in rates for rate in rates[lam])
    report(
        3,
        "overall/interaction/additive separation rates at least 0.95 for both correlations",
        ok,
        "; ".join(f"lam={lam}: I={r[0]:.2f} II={r[1]:.2f} III={r[2]:.2f}" for lam, r in rates.items()),
    )


def test_criterion_04_sure_screening():
    t0 = time.time()
    hits = 0
    seeds = 20
    for seed in range(seeds):
        ds = _binary_sample(4000, seed)
        model = grow(ds, BINARY_SCHEMA, SCREEN_HP, np.random.default_rng(seed + 1000))
        roots = {r.group for r in model.rounds[:K_BINARY]}
        pair_found = False
        for r in model.rounds[K_BINARY : 2 * K_BINARY]:
            if r.parent_round is not None:
                parent_group = model.rounds[r.parent_round - 1].group
                if {r.group, parent_group} == {1, 2}:
                    pair_found = True
        hits += ({0, 1} <= roots) and pair_found
    elapsed = time.time() - t0
    report(
        4,
        "root rounds cover the linear groups and later rounds select the pair",
        hits >= 0.9 * seeds and elapsed < 300.0,
        f"{hits}/{seeds} seeds, {elapsed:.1f}s",
    )


def test_criterion_05_xmdi_consistency(binary_oracle):
    oschema, dist, spec = binary_oracle
    true_add = additive_effect(dist, spec, 0)
    assert additive_effect(dist, spec, 1) == pytest.approx(true_add)
    true_int = interaction_effect(dist, spec, (1, 2))
    med_add, med_int = [], []
    for n in (2000, 8000, 32000):
        errs_a, errs_i = [], []
        for seed in range(10):
            ds = _binary_sample(n, seed * 31 + n)
            model = grow(ds, BINARY_SCHEMA, SCREEN_HP, np.random.default_rng(seed))
            v = compute_xmdi(model).values
            errs_a.append(max(abs(v[0, 0] - true_add), abs(v[1, 1] - true_add)))
            errs_i.append(abs(v[1, 2] - true_int))
        med_add.append(float(np.median(errs_a)))
        med_int.append(float(np.median(errs_i)))
    monotone = med_add[0] > med_add[1] > med_add[2] and med_int[0] > med_int[1] > med_int[2]
    rel_ok = med_add[2] / true_add <= 0.15 and med_int[2] / true_int <= 0.15
    report(
        5,
        "additive and interaction estimates converge to the oracle effects",
        monotone and rel_ok,
        f"additive medians {['%.4f' % v for v in med_add]}, "
        f"interaction medians {['%.4f' % v for v in med_int]}",
    )


def test_criterion_06_matching_pursuit_agreement(binary_oracle):
    oschema, dist, spec = binary_oracle
    path = matching_pursuit_path(dist, spec, K_BINARY)

    def objective_given(resid, g):
        cols = _group_cols(oschema, (g,))
        return _variance(dist, _cond_mean(dist, spec.values - resid, cols))

    hits = 0
    seeds = 20
    for seed in range(seeds):
        ds = _binary_sample(50_000, 10_000 + seed)
        model = grow(ds, BINARY_SCHEMA, SCREEN_HP, np.random.default_rng(seed))
        resid = np.zeros(len(spec.values))
        ok = True
        for s in range(K_BINARY):
            g = model.rounds[s].group
            # groups outside the reduced support are independent noise with
            # exactly zero objective at every step
            obj = objective_given(resid, g) if g < P_ORACLE else 0.0
            if abs(obj - path.objectives[s]) > 1e-9:
                ok = False
                break
            if g < P_ORACLE:
                resid = resid + _cond_mean(dist, spec.values - resid, _group_cols(oschema, (g,)))
        hits += ok
    report(
        6,
        "first-K group choices match the greedy population path up to ties",
        hits >= 0.95 * seeds,
        f"{hits}/{seeds} seeds",
    )


def test_criterion_07_win_rate_arithmetic():
    rates = adjusted_win_rates([0.13, 0.135, 0.142])
    three_ok = np.allclose(rates, [0.0, 0.4167, 1.0], atol=1e-4)
    two_ok = adjusted_win_rates([0.3, 0.5]).tolist() == [0.0, 1.0]
    report(
        7,
        "adjusted win rates reproduce the reference interpolation",
        three_ok and two_ok,
        f"rates={np.round(rates, 4).tolist()}",
    )


def test_criterion_08_predictive_sanity():
    t0 = time.time()
    ceiling = model_y1_r2_ceiling(10, 0.1, n_mc=1_000_000, seed=0)
    budget_space = {**DEFAULT_SEARCH_SPACE, "n_estimators": (4,)}
    seeds = 20
    hits = 0
    scores = []
    for seed in range(seeds):
        x = gaussian_copula_ar1(CopulaConfig(n=5000, p=10, lam=0.1, seed=seed))
        y = model_y1(x, np.random.default_rng(seed))
        table = matrix_to_table(x, y)
        roles = {k: "continuous" for k in table if k != "y"}
        roles["y"] = "response"
        budget = TuneBudget(rounds=20, search_space=budget_space, seed=seed)
        score = tuned_test_r2(table, roles, budget, np.random.default_rng(seed), threads=THREADS)
        scores.append(score)
        hits += score >= 0.80
    elapsed = time.time() - t0
    ok = hits >= 18 and max(scores) <= ceiling + 0.02 and elapsed < 1200.0
    report(
        8,
        "tuned test R-squared clears 0.80 under the Monte Carlo ceiling",
        ok,
        f"{hits}/{seeds} seeds, min={min(scores):.3f}, max={max(scores):.3f}, "
        f"ceiling={ceiling:.3f}, {elapsed:.0f}s",
    )


def test_criterion_09_performance_envelope():
    n, p = 10_000, 79
    x = gaussian_copula_ar1(CopulaConfig(n=n, p=p, lam=0.1, seed=0))
    y = model_y1(x, np.random.default_rng(0))
    schema = FeatureSchema(
        tuple(GroupSpec(f"x{j + 1}", KIND_CONTINUOUS, (j,)) for j in range(p))
    )
    ds = EncodedDataset(x=x, y=y - y.mean(), y_mean=float(y.mean()))
    hp = Hyperparams(n_estimators=1, n_trees=11, alpha=math.inf, min_samples_split=5,
                     min_samples_leaf=5, max_depth=20, random_update=1.0)
    t0 = time.time()
    model = grow(ds, schema, hp, np.random.default_rng(0))
    elapsed = time.time() - t0
    report(
        9,
        "single bagging member trains within 60 s at n=10000, p=79, K=11, full updates",
        elapsed <= 60.0 and len(model.rounds) > 0,
        f"{elapsed:.1f}s, {len(model.rounds)} rounds",
    )


def test_criterion_10_diagram_golden_files():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    fixtures = {
        "pair": (np.array([[0.1, 0.1], [0.1, 0.0]]), 1.0, ["alpha", "beta"]),
        "additive": (np.diag([0.5, 0.25, 0.1]), 0.8, ["a", "b", "c"]),
        "mixed": (
            np.array(
                [
                    [0.40, 0.05, 0.0, 0.0],
                    [0.05, 0.30, 0.02, 0.0],
                    [0.0, 0.02, 0.10, 0.00005],
                    [0.0, 0.0, 0.00005, 0.00005],
                ]
            ),
            2.0,
            ["a", "b", "c", "d"],
        ),
    }
    ok = True
    for name, (vals, var, labels) in fixtures.items():
        dot1 = emit_dot(diagram_spec(XmdiMatrix(vals), var, labels))
        dot2 = emit_dot(diagram_spec(XmdiMatrix(vals.copy()), var, list(labels)))
        frozen = (golden / f"{name}.dot").read_text()
        ok = ok and dot1 == dot2 == frozen
    report(10, "DOT output is byte-identical to the frozen golden files", ok)
