"""Population effects, pursuit paths, brute-force references, table I/O."""

import numpy as np
import pytest

from collabtrees.errors import ArgumentError, OracleSizeError
from collabtrees.oracle import (
    DiscreteDistribution,
    RegressionSpec,
    additive_effect,
    binary_schema,
    independent_groups,
    interaction_effect,
    load_table,
    matching_pursuit_path,
    population_g,
    save_table,
)
from reference import brute_force_split_score


def fair_coins(p):
    schema = binary_schema(p)
    return independent_groups(schema, [0.5] * p)


def xor_f(row, l=0, k=1, amp=1.0):
    prod = (row[l] - 0.5) * (row[k] - 0.5)
    return amp if prod > 0 else -amp


def test_population_g_linear_single():
    dist = fair_coins(3)
    spec = RegressionSpec.from_function(dist, lambda row: row[0] - 0.5)
    table = population_g(dist, spec, [0])
    assert table[(0.0,)] == pytest.approx(-0.5)
    assert table[(1.0,)] == pytest.approx(0.5)


def test_population_g_irrelevant_group_is_zero():
    dist = fair_coins(3)
    spec = RegressionSpec.from_function(dist, lambda row: row[0] - 0.5)
    table = population_g(dist, spec, [1])
    assert all(v == pytest.approx(0.0) for v in table.values())


def test_population_g_xor_parity_pattern():
    dist = fair_coins(3)
    spec = RegressionSpec.from_function(dist, xor_f)
    table = population_g(dist, spec, [0, 1])
    assert table[(0.0, 0.0)] == pytest.approx(1.0)
    assert table[(1.0, 1.0)] == pytest.approx(1.0)
    assert table[(0.0, 1.0)] == pytest.approx(-1.0)
    assert table[(1.0, 0.0)] == pytest.approx(-1.0)


def test_population_g_argument_validation():
    dist = fair_coins(2)
    spec = RegressionSpec.from_function(dist, lambda row: 0.0)
    with pytest.raises(ArgumentError):
        population_g(dist, spec, [])
    with pytest.raises(ArgumentError):
        population_g(dist, spec, [0, 1, 1, 2])


def test_effects_xor_and_linear():
    dist = fair_coins(3)
    spec = RegressionSpec.from_function(dist, xor_f)
    assert additive_effect(dist, spec, 0) == pytest.approx(0.0, abs=1e-12)
    assert interaction_effect(dist, spec, (0, 1)) == pytest.approx(1.0)
    assert interaction_effect(dist, spec, (1, 0)) == pytest.approx(1.0)

    linear = RegressionSpec.from_function(dist, lambda row: row[0] - 0.5)
    assert additive_effect(dist, linear, 0) == pytest.approx(0.25)

    zero = RegressionSpec.from_function(dist, lambda row: 0.0)
    assert additive_effect(dist, zero, 1) == 0.0
    assert interaction_effect(dist, zero, (0, 2)) == 0.0


def test_effect_tables_center_regressions():
    dist = fair_coins(2)
    spec = RegressionSpec.from_function(dist, lambda row: 3.0 + row[0])
    assert abs(float(spec.values @ dist.probabilities)) < 1e-12


def test_pursuit_additive_ordering():
    dist = fair_coins(5)
    betas = {0: 1.0, 1: 2.0, 2: 1.5}
    spec = RegressionSpec.from_function(
        dist, lambda row: sum(b * (row[m] - 0.5) for m, b in betas.items())
    )
    path = matching_pursuit_path(dist, spec, 3)
    assert path.selected[:3] == ((1,), (2,), (0,))
    assert path.objectives[:3] == pytest.approx([4 / 4, 2.25 / 4, 1 / 4])


def test_pursuit_finds_interaction_under_heredity():
    dist = fair_coins(4)

    def f(row):
        return 0.6 * (row[1] - 0.5) + xor_f(row, 1, 2, amp=0.8)

    spec = RegressionSpec.from_function(dist, f)
    K = 2
    path = matching_pursuit_path(dist, spec, K)
    assert path.selected[0] == (1,)
    pair_steps = path.selected[K:]
    assert (1, 2) in pair_steps
    i = K + pair_steps.index((1, 2))
    assert path.objectives[i] == pytest.approx(0.64)


def test_pursuit_zero_function_lexicographic_ties():
    dist = fair_coins(5)
    spec = RegressionSpec.from_function(dist, lambda row: 0.0)
    K = 4
    path = matching_pursuit_path(dist, spec, K)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in path.objectives)
    assert path.selected[:K] == ((0,), (0,), (0,), (0,))
    # pair steps: smallest pair available given remaining unconsumed roots
    assert path.selected[K:] == ((0, 1), (0, 1), (0, 1), (0, 1))
    assert path.consumed_roots == (0, 1, 2, 3)


def test_pursuit_residuals_centered_and_loss_monotone():
    rng = np.random.default_rng(6)
    dist = fair_coins(6)
    values = rng.normal(size=len(dist.probabilities))
    spec = RegressionSpec.from_table(dist, values)
    path = matching_pursuit_path(dist, spec, 4)
    prev = float((spec.values**2) @ dist.probabilities)
    for table in path.residual_tables:
        assert abs(float(table @ dist.probabilities)) < 1e-10
    for table in path.residual_tables[1:]:
        loss = float(((spec.values - table) ** 2) @ dist.probabilities)
        assert loss <= prev + 1e-10
        prev = loss


def test_pursuit_recovers_additive_plus_interaction_exactly():
    dist = fair_coins(5)

    def f(row):
        return (
            1.0 * (row[0] - 0.5)
            + 0.8 * (row[1] - 0.5)
            + xor_f(row, 1, 2, amp=0.7)
        )

    spec = RegressionSpec.from_function(dist, f)
    K = 3
    path = matching_pursuit_path(dist, spec, K)
    n_interactions = 1
    recovered = path.residual_tables[K + n_interactions]
    err = float(((spec.values - recovered) ** 2) @ dist.probabilities)
    assert err <= 1e-10


def test_pursuit_k_validation():
    dist = fair_coins(3)
    spec = RegressionSpec.from_function(dist, lambda row: 0.0)
    with pytest.raises(ArgumentError):
        matching_pursuit_path(dist, spec, 4)


def test_brute_force_matches_frozen_examples():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    r = np.array([1.0, 3.0, 5.0, 7.0])
    assert brute_force_split_score(x, r, range(4), (0, 1)) == pytest.approx(80.0)
    assert brute_force_split_score(x, r, [], (0, 1)) == 0.0
    all_same = np.array([[1.0], [1.0], [1.0]])
    assert brute_force_split_score(all_same, np.array([1.0, 2.0, 3.0]), range(3), (0,)) == 0.0


def test_brute_force_row_cap():
    x = np.zeros((2001, 1))
    with pytest.raises(ArgumentError):
        brute_force_split_score(x, np.zeros(2001), range(2001), (0,))


def test_support_cap_enforced():
    schema = binary_schema(21)
    with pytest.raises(OracleSizeError):
        independent_groups(schema, [0.5] * 21)


def test_zero_probability_configurations_convention():
    schema = binary_schema(2)
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    probs = np.array([0.5, 0.5, 0.0, 0.0])  # group 0 degenerate at 0
    dist = DiscreteDistribution(schema, support, probs)
    spec = RegressionSpec.from_table(dist, np.array([1.0, -1.0, 5.0, 5.0]))
    table = population_g(dist, spec, [1])
    assert table[(0.0,)] == pytest.approx(1.0)
    assert table[(1.0,)] == pytest.approx(-1.0)


def test_onehot_group_distribution_and_effects():
    from collabtrees.core import FeatureSchema, GroupSpec, KIND_BINARY, KIND_ONEHOT

    schema = FeatureSchema(
        (
            GroupSpec("cat", KIND_ONEHOT, (0, 1, 2), categories=("a", "b", "c")),
            GroupSpec("b", KIND_BINARY, (3,)),
        )
    )
    dist = independent_groups(schema, [np.array([0.2, 0.3, 0.5]), 0.5])
    assert dist.support.shape == (6, 4)
    assert dist.probabilities.sum() == pytest.approx(1.0)
    spec = RegressionSpec.from_function(dist, lambda row: 2.0 * row[0])
    add = additive_effect(dist, spec, 0)
    assert add == pytest.approx(4 * 0.2 * 0.8)  # Var(2 * Bernoulli(0.2))
    assert additive_effect(dist, spec, 1) == pytest.approx(0.0, abs=1e-12)


def test_table_roundtrip(tmp_path):
    schema = binary_schema(3)
    dist = independent_groups(schema, [0.5, 0.25, 0.5])
    spec = RegressionSpec.from_function(dist, xor_f, noise_sd=0.7)
    path = tmp_path / "table.txt"
    save_table(path, dist, spec)
    dist2, spec2 = load_table(path)
    assert np.array_equal(dist2.support, dist.support)
    assert np.array_equal(dist2.probabilities, dist.probabilities)
    assert np.array_equal(spec2.values, spec.values)
    assert spec2.noise_sd == 0.7
    assert dist2.schema.n_groups == 3
