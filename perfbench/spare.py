"""Spare set-ups of the benchmark, in a process of their own.

    python3 perfbench/spare.py WORKLOAD SEED WORKDIR

Each line read from standard input sets the workload up under a fresh
directory of WORKDIR, tears it down, deletes the directory, and is
answered with the seconds the set-up took.  The first set-up pays the
process's lazy imports, so the caller does not count it.  Exits when
standard input closes.

The spare mounts live here, not in the process that drives the
workload, so that process only ever holds one mount and its peak memory
is the workload's own.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def set_up(name: str, seed: int, workdir: Path) -> float:
    work = workloads.make(name, seed, workdir)
    try:
        t0 = time.perf_counter()
        work.setup()
        return time.perf_counter() - t0
    finally:
        work.teardown()
        workloads.remove_tree(workdir)


def main() -> None:
    name, seed, root = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    for count, _ in enumerate(sys.stdin):
        print(repr(set_up(name, seed, root / str(count))), flush=True)


if __name__ == "__main__":
    main()
