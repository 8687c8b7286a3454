"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload topo-111 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of stdout is the JSON result; the exit code is non-zero
when a correctness check fails. Run from the repository root: the package
is imported from ``src/`` next to this directory, and scratch files go to
``.bench_work/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one caller, one BLAS thread: a closed loop that does not compete with
# itself for the (at most nproc) cores
BLAS_THREADS = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "dynhop" / "__init__.py").is_file():
        print(f"error: package source not found at {src}/dynhop", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    from measure import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    work = Path(".bench_work") / f"{args.workload}-s{args.seed}"
    correct, result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
    )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
