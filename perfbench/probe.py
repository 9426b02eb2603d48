"""Speed-probe process of the benchmark.

    python3 perfbench/probe.py WORKDIR

Answers each line of standard input, a ``+``-joined list of probe kinds
(``cpu``, ``fsync``), with one line: the seconds that fixed work of
those kinds took.  It exits when standard input closes.

The probe runs in this process of its own, so no thread of the program
under test can hold its interpreter lock or share its heap; the
benchmark asks for a probe only between blocks, while no op is in
flight.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import numpy as np

perf = time.perf_counter


def cpu() -> float:
    """Python object work, a memcpy and a numpy sum."""
    t0 = perf()
    table = {i: (i, str(i)) for i in range(6000)}
    sum(v[0] for v in table.values())
    buf, chunk = bytearray(1 << 20), bytes(1 << 16)
    for k in range(16):
        buf[k << 16:(k + 1) << 16] = chunk
    float((np.arange(1 << 16, dtype=np.float64) * 2.0).sum())
    return perf() - t0


class Fsync:
    """One appending write and fsync of a file in WORKDIR, like a WAL commit."""

    def __init__(self, workdir: Path) -> None:
        self.fd = os.open(workdir / "probe", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def __call__(self) -> float:
        t0 = perf()
        os.write(self.fd, b"x" * 128)
        os.fsync(self.fd)
        return perf() - t0


def main() -> None:
    # the probe allocates little; with the collector off its time cannot
    # depend on when a collection happens to run
    gc.disable()
    workdir = Path(sys.argv[1])
    makers = {"cpu": lambda: cpu, "fsync": lambda: Fsync(workdir)}
    probes = {}
    for line in sys.stdin:
        total = 0.0
        for kind in line.strip().split("+"):
            if kind not in probes:
                probes[kind] = makers[kind]()
            total += probes[kind]()
        print(repr(total), flush=True)


if __name__ == "__main__":
    main()
