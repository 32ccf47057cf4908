"""Correctness checks on the outputs of one benchmark round.

Each check returns a list of failure messages; an empty list is a pass.  The
checks take plain inputs (models, arrays, matrices) so that ``selftest.py`` can
feed them corrupted copies and confirm they reject them.
"""

from __future__ import annotations

import numpy as np

from collabtrees import forest, xmdi

CONSERVATION_RTOL = 1e-8


def conservation(ensemble, dataset) -> list[str]:
    """Check 1: per member, the attributed xMDI total times the training size
    equals the fitted sum-of-squares reduction on its bootstrap rows.  The two
    sides come from independent paths: the importance log and prediction."""
    failures = []
    for b, (member, idx) in enumerate(zip(ensemble.models, ensemble.bootstrap_indices)):
        y_b = dataset.y[idx]
        fitted = forest.predict_model(member, dataset.x[idx]) - member.y_mean
        explained = float(y_b @ y_b - (y_b - fitted) @ (y_b - fitted))
        attributed = xmdi.attributed_total(xmdi.compute_xmdi(member)) * member.n_train
        gap = abs(attributed - explained) / max(abs(explained), np.finfo(float).tiny)
        if not gap <= CONSERVATION_RTOL:
            failures.append(
                f"member {b}: attributed {attributed!r} vs explained {explained!r} "
                f"(relative gap {gap:.3g})"
            )
    return failures


def xmdi_shape(matrices) -> list[str]:
    """Check 2: every xMDI matrix is exactly symmetric and nonnegative."""
    failures = []
    for name, values in matrices:
        if not np.array_equal(values, values.T):
            failures.append(f"{name} xMDI matrix is not symmetric")
        if not (values >= 0).all():
            failures.append(f"{name} xMDI matrix has a negative cell")
    return failures


def identical(what: str, got, expected) -> list[str]:
    """Checks 3, 4 and 6: two predictions of the same rows agree bit for bit."""
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        return [f"{what}: shape {got.shape} != {expected.shape}"]
    diff = np.flatnonzero(got != expected)
    if diff.size:
        i = int(diff[0])
        return [f"{what}: {diff.size} rows differ, first at {i}: {got[i]!r} != {expected[i]!r}"]
    return []
