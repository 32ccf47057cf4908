"""Print a SHA-256 digest of every member trained on the benchmark workloads.

    python3 tools/model_hash.py --workloads W [W ...] --seeds S [S ...] [--src DIR]

Each workload's inputs come from ``perfbench/workloads.py`` and are trained as
the benchmark trains them (``build_schema``, ``encode``, ``grow_ensemble``;
in-process, since the worker count does not change the models).  Each output
line reads ``WORKLOAD SEED MEMBER DIGEST``.  A digest covers the member's
``rounds`` and ``trees`` exactly, every float by its hex form, so two library
versions that print the same lines grow bit-identical models.  ``--src``
names the ``src`` directory to import the library from (default: this
repository's); a seed may be given as a range ``A-B``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from bench_pairs import parse_seeds

ROOT = Path(__file__).resolve().parent.parent


def exact(value):
    """``value`` with tuples as lists and every float written in hex, so that
    equal text means equal bits."""
    if isinstance(value, (tuple, list)):
        return [exact(v) for v in value]
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(model) -> str:
    """SHA-256 of one member's ``rounds`` and ``trees``."""
    rounds = [exact(dataclasses.astuple(r)) for r in model.rounds]
    text = json.dumps([rounds, exact(model.trees)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def member_digests(workload: str, seed: int) -> list[str]:
    """Digests of the members of one workload's ensemble, in member order."""
    # Imported here, so that the caller's sys.path decides which library loads.
    import collabtrees as ct
    from perfbench.workloads import WORKLOADS

    inputs = WORKLOADS[workload](seed)
    schema = ct.build_schema(inputs.train, inputs.roles, n_bins=inputs.n_bins)
    dataset = ct.encode(inputs.train, schema)
    ensemble = ct.grow_ensemble(dataset, schema, inputs.hp, threads=1)
    return [digest(m) for m in ensemble.models]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges A-B")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the collabtrees package to hash")
    args = ap.parse_args(argv)
    if not (args.src / "collabtrees" / "__init__.py").is_file():
        print(f"error: no collabtrees package under {args.src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            for member, text in enumerate(member_digests(workload, seed)):
                print(workload, seed, member, text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
