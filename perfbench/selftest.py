"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Trains a small ensemble, confirms each check accepts the clean outputs, then
feeds each check a deliberately corrupted copy and confirms it is rejected.
Exits 0 only if every clean input passes and every corruption is caught.
"""

import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.dont_write_bytecode = True

import numpy as np

import collabtrees as ct
from collabtrees import datagen, xmdi

import checks
import workloads


def small_problem():
    x = datagen.gaussian_copula_ar1(datagen.CopulaConfig(n=300, p=10, lam=0.1, seed=5))
    table = datagen.matrix_to_table(x, datagen.model_y1(x, np.random.default_rng(5)))
    roles = {name: "continuous" for name in table}
    roles["y"] = "response"
    schema = ct.build_schema(table, roles)
    dataset = ct.encode(table, schema)
    hp = ct.Hyperparams(n_estimators=2, n_trees=4, alpha=math.inf, min_samples_split=5,
                        min_samples_leaf=5, max_depth=6, seed=5)
    return dataset, schema, ct.grow_ensemble(dataset, schema, hp)


def alter_increment(ensemble, delta):
    """Copy of the ensemble whose first member's first increment is shifted."""
    member = ensemble.models[0]
    (constraints, value), *rest = member.trees[0]
    trees = (((constraints, value + delta), *rest),) + member.trees[1:]
    models = (dataclasses.replace(member, trees=trees),) + ensemble.models[1:]
    return dataclasses.replace(ensemble, models=models)


def y1_matrix():
    """An xMDI matrix with the y1 surface's shape: five signal groups, one pair."""
    labels = [f"x{j}" for j in range(1, 11)]
    v = np.diag([2.0, 0.01, 3.0, 0.01, 19.0, 0.01, 0.01, 0.01, 0.5, 0.1])
    v[8, 9] = v[9, 8] = 5.0
    return v, labels


def pursuit_matrix():
    labels = [f"x{j}" for j in range(1, 21)]
    v = np.diag([workloads.PURSUIT_ADDITIVE] * 2 + [0.0] * 18)
    v[1, 2] = v[2, 1] = workloads.PURSUIT_PAIR
    return v, labels


def main() -> int:
    dataset, schema, ensemble = small_problem()
    x = dataset.x
    pred = ct.predict_ensemble(ensemble, x)
    member_matrix = xmdi.compute_xmdi(ensemble.models[0]).values
    y1, y1_labels = y1_matrix()
    pursuit, pursuit_labels = pursuit_matrix()

    def moved_off_diagonal(v):
        v = v.copy()
        i = int(np.argmax(np.diag(v)))
        j = (i + 1) % len(v)
        v[i, j] += v[i, i]
        v[i, i] = 0.0
        return v

    def stronger_pair(v):
        v = v.copy()
        v[0, 4] = v[4, 0] = 2 * v[8, 9]
        return v

    def weakened_signal(v):
        v = v.copy()
        v[0, 0] = 0.0
        return v

    def shifted_additive(v):
        v = v.copy()
        v[0, 0] += 2 * workloads.PURSUIT_ADDITIVE_TOL
        return v

    ulp = np.nextafter(pred, np.inf)
    cases = [
        # (check, clean result, corruption, corrupted result)
        ("1 conservation", checks.conservation(ensemble, dataset),
         "an increment's value altered by 0.01",
         checks.conservation(alter_increment(ensemble, 0.01), dataset)),
        ("2 xMDI symmetric", checks.xmdi_shape([("member", member_matrix)]),
         "an xMDI cell moved off the diagonal",
         checks.xmdi_shape([("member", moved_off_diagonal(member_matrix))])),
        ("2 xMDI nonnegative", checks.xmdi_shape([("member", member_matrix)]),
         "an xMDI cell made negative",
         checks.xmdi_shape([("member", member_matrix - np.eye(len(member_matrix)))])),
        ("3 loaded model", checks.identical("loaded", pred.copy(), pred),
         "a loaded prediction perturbed by one ulp",
         checks.identical("loaded", np.where(np.arange(len(pred)) == 7, ulp, pred), pred)),
        ("4 single rows", checks.identical("rows", [ct.predict_ensemble(ensemble, x[i]) for i in range(5)], pred[:5]),
         "a single-row prediction perturbed by one ulp",
         checks.identical("rows", [pred[0], pred[1], ulp[2], pred[3], pred[4]], pred[:5])),
        ("5 y1 R2 floor", workloads.property_failures("bagged-mixed", y1, y1_labels, 0.9),
         "held-out R2 below the floor",
         workloads.property_failures("bagged-mixed", y1, y1_labels, workloads.R2_FLOOR["bagged-mixed"] - 0.01)),
        ("5 y1 importance order", workloads.property_failures("exact-continuous", y1, y1_labels, 0.9),
         "a signal group's importance removed",
         workloads.property_failures("exact-continuous", weakened_signal(y1), y1_labels, 0.9)),
        ("5 y1 interaction pair", workloads.property_failures("exact-continuous", y1, y1_labels, 0.9),
         "an (x1, x5) cell larger than the (x9, x10) cell",
         workloads.property_failures("exact-continuous", stronger_pair(y1), y1_labels, 0.9)),
        ("5 pursuit effects", workloads.property_failures("binary-pursuit", pursuit, pursuit_labels, 0.0),
         "the x1 additive cell shifted by twice its tolerance",
         workloads.property_failures("binary-pursuit", shifted_additive(pursuit), pursuit_labels, 0.0)),
        ("6 worker count", checks.identical("pool", pred.copy(), pred),
         "a pooled prediction perturbed by one ulp",
         checks.identical("pool", ulp, pred)),
    ]
    ok = True
    for check, clean, corruption, corrupted in cases:
        passed, caught = not clean, bool(corrupted)
        ok &= passed and caught
        print(f"{'PASS' if passed and caught else 'FAIL'} check {check}: clean input "
              f"{'accepted' if passed else 'rejected: ' + '; '.join(clean)}; {corruption} "
              f"{'rejected: ' + corrupted[0] if caught else 'NOT rejected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
