"""End-to-end and per-layer benchmark of collabtrees.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An untraced run (``--trace 0``) times the user's steps in whole rounds --
train, batch predict, single-row predict, importance, save, load -- until the
rounds have taken ``--seconds``, checks the outputs and prints the medians of
the end-to-end metrics.  A traced run (``--trace 1``) makes one round with
probes around each layer and prints the per-layer metrics.  The last line of
standard output is one JSON object; a copy goes to ``perfbench/results/``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    # Turn SIGTERM into an exit, so the pool is shut down and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "collabtrees" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True

    import harness

    return harness.main(args, T0)


if __name__ == "__main__":
    sys.exit(main())
