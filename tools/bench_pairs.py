"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 tools/bench_pairs.py PARENT LABEL --workloads W [W ...] --seeds S [S ...] --seconds 25

PARENT is any git revision; its files are unpacked with ``git archive`` into a
temporary directory, which is removed on exit.  For every workload and seed,
``perfbench/run.py --trace 0`` runs once on each side, one run at a time: the
parent first on odd seeds, the working tree first on even ones.  A seed may be
given as a range ``A-B``.  The medians of each end-to-end metric over the
seeds, their quartiles and the verdict of each metric are written to
``BENCH_<LABEL>.json`` in the repository root.  The bound of each metric comes
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

STATISTICS = (
    "median and quartiles (linear interpolation) over the seeds' run medians; change_wins "
    "counts seeds where the change reads better, change_losses where it reads worse; "
    "max_spread is the larger of the two sides' interquartile range / median; verdict: "
    "better = the change wins at least 9 in 10 pairs and the medians differ by more than the "
    "parent's interquartile range; else unresolved = a side's spread exceeds the metric's "
    "bound; else worse = the change's median is worse than the parent's by more than the "
    "bound; else within bound"
)


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its env record and result."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("env "):
        raise RuntimeError(f"{' '.join(cmd)} gave no result (exit {proc.returncode}):\n{proc.stderr}")
    return {"env": json.loads(lines[-2][4:]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": sig(med), "q1": sig(q1), "q3": sig(q3)}


def sig(value: float, digits: int = 5) -> float:
    return float(f"{value:.{digits}g}")


def compare(parent: list[float], change: list[float], bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    p_med, c_med = np.median(parent), np.median(change)
    p_iqr = np.subtract(*np.percentile(parent, [75, 25]))
    c_iqr = np.subtract(*np.percentile(change, [75, 25]))
    spread = max(p_iqr / p_med if p_med else 0.0, c_iqr / c_med if c_med else 0.0)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_iqr:
        verdict = "better"
    elif spread > bound:
        verdict = "unresolved: spread above bound"
    elif worse_by > bound:
        verdict = "worse: beyond bound"
    else:
        verdict = "within bound"
    return {**sides, "change_over_parent": sig(c_med / p_med if p_med else 1.0, 4),
            "change_wins": int(wins), "change_losses": int(losses),
            "max_spread": sig(spread, 3), "bound": bound, "verdict": verdict}


def depth(obj) -> int:
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return 1 + max(map(depth, obj), default=0)
    return 0


def dump(obj, indent: int = 0) -> str:
    """JSON with one line per metric: a value nested at most two levels deep
    is written on one line."""
    if depth(obj) <= 2:
        return json.dumps(obj, separators=(", ", ": "))
    pad = " " * (indent + 1)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {dump(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    return "[\n" + ",\n".join(pad + dump(v, indent + 1) for v in obj) + "\n" + " " * indent + "]"


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision to compare against the working tree")
    ap.add_argument("label", help="output goes to BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges A-B")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    unknown = sorted(set(args.workloads) - known)
    if unknown:
        print(f"error: unknown workloads {unknown}; choose from {sorted(known)}", file=sys.stderr)
        return 2
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    workloads, env = {}, None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_commit], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    out = run_side(parent_tree if side == "parent" else ROOT, workload,
                                   seed, args.seconds)
                    env = env or out["env"]
                    runs[side].append(out["result"])
                    train = out["result"]["metrics"]["train_s"]["value"]
                    print(f"{workload} seed {seed} {side}: train_s {train:.4g}", file=sys.stderr)
            metrics = {}
            for m in spec["end_to_end"]:
                values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                          for side, rs in runs.items()}
                metrics[m["name"]] = compare(values["parent"], values["change"], m["bound"],
                                             m["better"] == "lower")
            workloads[workload] = {
                "seeds": seeds,
                "correct_runs": {s: sum(r["correct"] for r in rs) for s, rs in runs.items()},
                "failed_ops": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
                "metrics": metrics,
            }

    code = f"working tree at {head}" + (" with uncommitted changes" if dirty else "")
    report = {
        "label": args.label,
        "parent_commit": parent_commit,
        "change": code,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "order": "one parent and one change run per seed, one run at a time; odd seeds run "
                 "the parent first, even seeds the change first",
        "statistics": STATISTICS,
        "backend": env["backend"], "cores": env["cores"], "numpy": env["numpy"],
        "python": env["python"],
        "sets": [{"code": code, "workloads": workloads}],
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(dump(report) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
