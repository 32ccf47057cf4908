"""End-to-end command-line behavior."""

import numpy as np
import pytest

from collabtrees.cli import main
from collabtrees.core import read_csv_columns
from collabtrees.oracle import (
    RegressionSpec,
    binary_schema,
    independent_groups,
    save_table,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def toy(tmp_path):
    """Perfectly separable toy: one binary feature, integer responses."""
    data = tmp_path / "toy.csv"
    rows = ["x,y"] + ["0,1"] * 4 + ["1,3"] * 4
    data.write_text("\n".join(rows) + "\n")
    roles = tmp_path / "roles.txt"
    roles.write_text("x = binary\ny = response\n")
    return data, roles


def test_train_then_predict_recovers_training_response(tmp_path, toy, capsys):
    data, roles = toy
    model = tmp_path / "model.json"
    assert run(
        "train", "--input", data, "--schema", roles, "--output", model,
        "--seed", 42, "--hp.n_estimators", 1, "--hp.n_trees", 1,
        "--hp.min_samples_leaf", 0, "--hp.min_samples_split", 5,
    ) == 0
    assert model.exists()
    assert (tmp_path / "model.json.rounds.csv").exists()
    preds_path = tmp_path / "preds.csv"
    assert run("predict", "--model", model, "--input", data, "--output", preds_path) == 0
    preds = [float(v) for v in preds_path.read_text().splitlines()[1:]]
    assert preds == [1.0] * 4 + [3.0] * 4


def test_importance_missing_model_reports_single_line_error(tmp_path, capsys):
    code = run("importance", "--model", tmp_path / "absent.json", "--output", tmp_path / "o.csv")
    assert code != 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    category = err[0].split(":", 2)[1]
    assert category and " " not in category


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--model", "y1", "--n", 500, "--p", 10,
            "--lambda", 0.1, "--seed", 7]
    assert run(*args, "--output", a) == 0
    assert run(*args, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()
    cols = read_csv_columns(a)
    assert set(cols) == {f"x{j}" for j in range(1, 11)} | {"y"}
    assert len(cols["y"]) == 500


def test_simulate_xor(tmp_path):
    out = tmp_path / "xor.csv"
    assert run(
        "simulate", "--model", "xor", "--n", 50, "--p", 4, "--seed", 3,
        "--noise-sd", 0, "--s1", "1:2.0", "--s2", "2,3:1.0", "--output", out,
    ) == 0
    cols = read_csv_columns(out)
    x1 = cols["x1"].astype(float)
    assert set(np.unique(x1)) <= {0.0, 1.0}


def test_full_pipeline_importance_and_diagram(tmp_path):
    data = tmp_path / "sim.csv"
    assert run("simulate", "--model", "y1", "--n", 300, "--p", 10,
               "--lambda", 0.1, "--seed", 5, "--output", data) == 0
    roles = tmp_path / "roles.txt"
    roles.write_text("\n".join([f"x{j} = continuous" for j in range(1, 11)] + ["y = response"]) + "\n")
    model = tmp_path / "model.json"
    assert run("train", "--input", data, "--schema", roles, "--output", model,
               "--hp.n_estimators", 2, "--hp.n_trees", 4, "--hp.n_bins", 5,
               "--hp.min_samples_split", 10, "--hp.min_samples_leaf", 5) == 0
    pairs = tmp_path / "imp.csv"
    assert run("importance", "--model", model, "--output", pairs) == 0
    assert (tmp_path / "imp.overall.csv").exists()
    y = read_csv_columns(data)["y"].astype(float)
    dot = tmp_path / "net.dot"
    assert run("diagram", "--input", pairs, "--var-y", float(np.var(y)), "--output", dot) == 0
    text = dot.read_text()
    assert text.startswith("digraph importance {")
    # deterministic re-run
    dot2 = tmp_path / "net2.dot"
    assert run("diagram", "--input", pairs, "--var-y", float(np.var(y)), "--output", dot2) == 0
    assert dot.read_text() == dot2.read_text()


def test_diagram_svg_flag_skips_without_renderer(tmp_path, capsys):
    import shutil

    pairs = tmp_path / "imp.csv"
    pairs.write_text("group_i,group_j,xmdi\na,a,0.5\na,b,0.1\nb,b,0.2\n")
    dot = tmp_path / "net.dot"
    assert run("diagram", "--input", pairs, "--var-y", 1.0, "--output", dot, "--svg") == 0
    assert dot.exists()
    svg = tmp_path / "net.svg"
    if shutil.which("dot") is None:
        assert "skipping SVG" in capsys.readouterr().err
        assert not svg.exists()
    else:
        assert svg.exists()


def test_tune_writes_best_and_trace(tmp_path):
    data = tmp_path / "sim.csv"
    assert run("simulate", "--model", "y1", "--n", 120, "--p", 10,
               "--lambda", 0.1, "--seed", 9, "--output", data) == 0
    roles = tmp_path / "roles.txt"
    roles.write_text("\n".join([f"x{j} = continuous" for j in range(1, 11)] + ["y = response"]) + "\n")
    best = tmp_path / "best.json"
    assert run("tune", "--input", data, "--schema", roles, "--rounds", 2,
               "--members", 1, "--seed", 3, "--output", best) == 0
    import json

    payload = json.loads(best.read_text())
    assert payload["n_estimators"] == 1
    trace = (tmp_path / "best.json.trace.csv").read_text().splitlines()
    assert len(trace) == 3  # header + 2 rounds


def test_benchmark_report_with_external_method(tmp_path):
    data = tmp_path / "sim.csv"
    assert run("simulate", "--model", "y1", "--n", 100, "--p", 10,
               "--lambda", 0.1, "--seed", 11, "--output", data) == 0
    roles = tmp_path / "roles.txt"
    roles.write_text("\n".join([f"x{j} = continuous" for j in range(1, 11)] + ["y = response"]) + "\n")
    ext = tmp_path / "other.csv"
    ext.write_text("repeat,r2\n0,0.5\n1,0.5\n")
    report = tmp_path / "report.csv"
    assert run("benchmark", "--input", data, "--schema", roles, "--repeats", 2,
               "--rounds", 1, "--members", 1, "--seed", 1,
               "--external", f"rival={ext}", "--output", report) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "dataset,method,repeat,r2,win_rate"
    assert len(lines) == 5  # 2 repeats x 2 methods
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"cte", "rival"}
    rates = [float(line.split(",")[4]) for line in lines[1:]]
    assert set(rates) <= {0.0, 0.5, 1.0}


def test_oracle_effects_and_pursuit(tmp_path):
    schema = binary_schema(3)
    dist = independent_groups(schema, [0.5, 0.5, 0.5])

    def f(row):
        prod = (row[0] - 0.5) * (row[1] - 0.5)
        return (1.0 if prod > 0 else -1.0) + 0.8 * (row[0] - 0.5)

    spec = RegressionSpec.from_function(dist, f)
    table = tmp_path / "dist.txt"
    save_table(table, dist, spec)
    out = tmp_path / "oracle.txt"
    assert run("oracle", "--table", table, "--effects", "--pursuit", 2, "--output", out) == 0
    lines = out.read_text().splitlines()
    additive = {l.split()[1]: float(l.split()[2]) for l in lines if l.startswith("additive")}
    assert additive["x1"] == pytest.approx(0.16)
    inter = [l for l in lines if l.startswith("interaction x1 x2")]
    assert float(inter[0].split()[3]) == pytest.approx(1.0)
    assert any(l.startswith("pursuit") for l in lines)


def test_oracle_requires_a_mode(tmp_path, capsys):
    schema = binary_schema(2)
    dist = independent_groups(schema, [0.5, 0.5])
    spec = RegressionSpec.from_function(dist, lambda row: row[0] - 0.5)
    table = tmp_path / "dist.txt"
    save_table(table, dist, spec)
    with pytest.raises(SystemExit):
        run("oracle", "--table", table)


def test_failed_write_leaves_no_partial_file(tmp_path, toy):
    data, roles = toy
    missing_dir = tmp_path / "no" / "such" / "dir"
    code = run("train", "--input", data, "--schema", roles,
               "--output", missing_dir / "model.json", "--hp.n_estimators", 1)
    assert code != 0
    assert not missing_dir.exists()


def test_unknown_hp_flag_rejected(tmp_path, toy):
    data, roles = toy
    with pytest.raises(SystemExit):
        run("train", "--input", data, "--schema", roles,
            "--output", tmp_path / "m.json", "--hp.bogus", 3)


def _single_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


@pytest.mark.parametrize("bad_row,column", [("1.5,inf", "y"), ("-inf,3", "x")],
                         ids=["response", "feature"])
def test_train_rejects_infinite_values(tmp_path, capsys, bad_row, column):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["x,y", "0.5,1", "1.5,2", "2.5,3", bad_row]) + "\n")
    roles = tmp_path / "roles.txt"
    roles.write_text("x = continuous\ny = response\n")
    assert run("train", "--input", data, "--schema", roles, "--output", tmp_path / "m.json") == 2
    line = _single_error_line(capsys)
    assert line.startswith("error:data:")
    assert f"column {column!r}" in line and "infinite" in line
    assert not (tmp_path / "m.json").exists()


def test_train_rejects_huge_response(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.csv"
    x, y = rng.normal(size=50).tolist(), (rng.normal(size=50) * 1e160).tolist()
    rows = [f"{v!r},{w!r}" for v, w in zip(x, y)]
    data.write_text("\n".join(["x,y", *rows]) + "\n")
    roles = tmp_path / "roles.txt"
    roles.write_text("x = continuous\ny = response\n")
    assert run("train", "--input", data, "--schema", roles, "--output", tmp_path / "m.json") == 2
    line = _single_error_line(capsys)
    assert line.startswith("error:data:") and "'y' is too large" in line
    assert not (tmp_path / "m.json").exists()


def test_short_csv_row_reports_its_line(tmp_path, capsys, toy):
    _, roles = toy
    data = tmp_path / "short.csv"
    data.write_text("x,y\n0,1\n1\n1,3\n")
    assert run("train", "--input", data, "--schema", roles, "--output", tmp_path / "m.json") == 2
    line = _single_error_line(capsys)
    assert line.startswith("error:data:")
    assert f"{data}:3:" in line


@pytest.mark.parametrize("threads", [0, -3])
def test_train_rejects_nonpositive_threads(tmp_path, capsys, toy, threads):
    data, roles = toy
    assert run("train", "--input", data, "--schema", roles, "--output", tmp_path / "m.json",
               "--threads", threads) == 2
    assert _single_error_line(capsys).startswith("error:config:")
