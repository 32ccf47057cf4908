"""Rounds, correctness checks and per-layer tracing of one benchmark run.

``run.py`` is the entry point; it imports this module once the library
sources are on the path.
"""

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import collabtrees as ct
from collabtrees import datagen, forest, persist, xmdi

import checks
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent

UNITS = {
    "setup_s": "s", "train_s": "s", "predict_batch_s": "s", "predict_row_ms": "ms",
    "save_s": "s", "load_s": "s", "model_bytes": "bytes", "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, tracer layers it needs)
LAYER_METRICS = {
    "forest.scan.s": ("s", ("scan",)),
    "forest.scan.calls": ("count", ("scan",)),
    "forest.scan.cells": ("count", ("scan",)),
    "forest.score.s": ("s", ("score_node", "scan")),
    "forest.score.nodes": ("count", ("score_node",)),
    "forest.score.sets": ("count", ("score_set",)),
    "forest.select.useful_ratio": ("ratio", ("score_set",)),
    "forest.child.s": ("s", ("child",)),
    "forest.child.calls": ("count", ("child",)),
    "forest.child.rows": ("count", ("child",)),
    "forest.select.s": ("s", ("grow", "score_set", "child")),
    "forest.grow.rounds": ("count", ()),
    "forest.pool.speedup": ("ratio", ()),
    "forest.predict.s": ("s", ("predict",)),
    "forest.predict.increments": ("count", ("predict",)),
    "persist.save.s": ("s", ("save",)),
    "persist.load.s": ("s", ("load",)),
    "persist.checksum.s": ("s", ("checksum",)),
    "core.encode.s": ("s", ("core",)),
    "xmdi.s": ("s", ("xmdi",)),
    "datagen.s": ("s", ("datagen",)),
    "trace.overhead_s": ("s", ()),
}


def run_round(inputs, schema, dataset, threads, work_dir):
    """One round of the user's steps; returns timing samples and outputs."""
    samples = {m: [] for m in ("train_s", "predict_batch_s", "predict_row_ms", "save_s", "load_s")}

    def timed(metric, fn, *args, scale=1.0, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        samples[metric].append((time.perf_counter() - t) * scale)
        return out

    ensemble = timed("train_s", ct.grow_ensemble, dataset, schema, inputs.hp, threads=threads)

    t = time.perf_counter()
    x_query = ct.encode_features(inputs.query, schema)
    batch = ct.predict_ensemble(ensemble, x_query)
    samples["predict_batch_s"].append(time.perf_counter() - t)

    singles = [timed("predict_row_ms", ct.predict_ensemble, ensemble, x_query[i], scale=1e3)
               for i in range(inputs.n_single)]
    importance = xmdi.ensemble_xmdi(ensemble)
    path = work_dir / "model.json"
    for _ in range(inputs.n_persist):
        timed("save_s", persist.save_model, path, ensemble)
        model_bytes = path.stat().st_size
        loaded = timed("load_s", persist.load_model, path)
        path.unlink()
    return {
        "samples": samples, "model_bytes": model_bytes,
        "ensemble": ensemble, "loaded": loaded, "x_query": x_query, "batch": batch,
        "singles": singles, "importance": importance,
        "ops": 3 + inputs.n_single + 2 * inputs.n_persist,
    }


def check_round(name, out, inputs, dataset, schema):
    """Checks 1-5 on one round's outputs."""
    ensemble = out["ensemble"]
    failures = checks.conservation(ensemble, dataset)
    matrices = [(f"member {b}", xmdi.compute_xmdi(m).values) for b, m in enumerate(ensemble.models)]
    matrices.append(("ensemble", out["importance"].values))
    failures += checks.xmdi_shape(matrices)
    failures += checks.identical("loaded model on the query batch",
                                 ct.predict_ensemble(out["loaded"], out["x_query"]), out["batch"])
    failures += checks.identical("single-row predictions", out["singles"],
                                 out["batch"][: inputs.n_single])
    y = inputs.query_y
    r2 = 1.0 - float(((y - out["batch"]) ** 2).mean()) / float(y.var())
    failures += workloads.property_failures(name, out["importance"].values, schema.labels, r2)
    return failures


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus ``workers`` times that of the
    largest pool worker.  Forked workers share pages with the parent, so this
    is an upper bound on the concurrent peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def timed_run(name, inputs, schema, dataset, seconds, work_dir):
    """Whole rounds until they have taken ``seconds``; medians of all samples."""
    samples, attempted, failures, first, measured = {}, 0, [], None, 0.0
    while measured < seconds:
        t = time.perf_counter()
        out = run_round(inputs, schema, dataset, inputs.threads, work_dir)
        measured += time.perf_counter() - t
        attempted += out["ops"]
        for m, v in out["samples"].items():
            samples.setdefault(m, []).extend(v)
        if first is None:
            first, model_bytes = out["batch"], out["model_bytes"]
            failures += check_round(name, out, inputs, dataset, schema)
        else:
            failures += checks.identical("retrained ensemble on the query batch", out["batch"], first)
            failures += checks.identical("single-row predictions", out["singles"],
                                         out["batch"][: inputs.n_single])
        del out
    values = {m: statistics.median(v) for m, v in samples.items()}
    values["model_bytes"] = model_bytes
    values["peak_rss_mb"] = peak_rss_mb(inputs.pool_workers)
    return values, attempted, failures


def make_tracer() -> Tracer:
    tr = Tracer()
    scorer = getattr(forest, "_Scorer", None)
    tr.probe("scan", forest, "_single_column_scan", work=lambda order, *rest: order.size)
    tr.probe("score_node", scorer, "score_node")
    tr.probe("score_set", forest, "_score_set")
    tr.probe("child", scorer, "child_cache", work=lambda self, parent, rows: len(rows))
    tr.probe("grow", forest, "grow")
    tr.probe("predict", forest, "predict_model",
             work=lambda model, x: sum(len(t) for t in model.trees) * (len(x) if x.ndim == 2 else 1))
    tr.probe("save", persist, "save_model")
    tr.probe("load", persist, "load_model")
    tr.probe("checksum", persist, "_checksum")
    for attr in ("build_schema", "encode", "encode_features"):
        tr.probe("core", ct, attr)
    tr.probe("xmdi", xmdi, "ensemble_xmdi")
    for attr in ("gaussian_copula_ar1", "model_y1", "xor_linear_binary"):
        tr.probe("datagen", datagen, attr)
    return tr


def traced_run(name, inputs, schema, dataset, tr, work_dir):
    """One traced round.  Before it, train untraced with the workload's pool
    and in-process: the two give the pool speedup and check 6, and the
    in-process time is the base of the tracing overhead.  The traced round
    trains in-process, since worker processes would hide the spans."""
    hp = inputs.hp
    pooled = inputs.pool_workers > 0
    failures = []
    t = time.perf_counter()
    pool_ens = ct.grow_ensemble(dataset, schema, hp, threads=inputs.threads)
    pool_s = inproc_s = time.perf_counter() - t
    if pooled:
        t = time.perf_counter()
        inproc_ens = ct.grow_ensemble(dataset, schema, hp, threads=1)
        inproc_s = time.perf_counter() - t
        x_query = ct.encode_features(inputs.query, schema)
        failures += checks.identical("in-process vs pooled ensemble on the query batch",
                                     ct.predict_ensemble(inproc_ens, x_query),
                                     ct.predict_ensemble(pool_ens, x_query))
        del inproc_ens, x_query
    del pool_ens

    with tr.active():
        out = run_round(inputs, schema, dataset, 1, work_dir)
    failures += check_round(name, out, inputs, dataset, schema)

    s, c, w = tr.seconds, tr.calls, tr.work
    rounds = sum(len(m.rounds) for m in out["ensemble"].models)
    values = {
        "forest.scan.s": s["scan"],
        "forest.scan.calls": c["scan"],
        "forest.scan.cells": w["scan"],
        "forest.score.s": s["score_node"] - s["scan"],
        "forest.score.nodes": c["score_node"],
        "forest.score.sets": c["score_set"],
        "forest.select.useful_ratio": rounds / c["score_set"] if c["score_set"] else 0.0,
        "forest.child.s": s["child"],
        "forest.child.calls": c["child"],
        "forest.child.rows": w["child"],
        "forest.select.s": s["grow"] - s["score_set"] - s["child"],
        "forest.grow.rounds": rounds,
        "forest.pool.speedup": inproc_s / pool_s if pooled else 1.0,
        "forest.predict.s": s["predict"],
        "forest.predict.increments": w["predict"],
        "persist.save.s": s["save"],
        "persist.load.s": s["load"],
        "persist.checksum.s": s["checksum"],
        "core.encode.s": s["core"],
        "xmdi.s": s["xmdi"],
        "datagen.s": s["datagen"],
        "trace.overhead_s": out["samples"]["train_s"][0] - inproc_s,
    }
    return values, out["ops"] + (2 if pooled else 1), failures


def main(args, t0: float) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tr = make_tracer() if args.trace else None
    with tr.active() if tr else contextlib.nullcontext():
        inputs = workloads.WORKLOADS[args.workload](args.seed)
        schema = ct.build_schema(inputs.train, inputs.roles, n_bins=inputs.n_bins)
        dataset = ct.encode(inputs.train, schema)
    setup_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        if tr:
            values, attempted, failures = traced_run(args.workload, inputs, schema, dataset, tr, Path(tmp))
            absent = sorted(m for m, (_, need) in LAYER_METRICS.items() if set(need) & tr.absent)
            metrics = {m: {"value": 0.0 if m in absent else values[m], "unit": unit}
                       for m, (unit, _) in LAYER_METRICS.items()}
        else:
            values, attempted, failures = timed_run(args.workload, inputs, schema, dataset,
                                                    args.seconds, Path(tmp))
            values["setup_s"] = setup_s
            absent = []
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in UNITS.items()}

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": "numba" if getattr(forest, "_HAVE_NUMBA", False) else "numpy",
        "cores": len(os.sched_getaffinity(0)), "numpy": np.__version__,
        "python": platform.python_version(), "absent_layers": absent,
    }
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": 0, "metrics": metrics}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result}, indent=1) + "\n"
    )
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not failures else 1
