"""The four closed-loop workloads of the benchmark.

One client thread issues every op and waits for it before the next
(closed loop); simulated ranks take turns.  Each workload is built in
``setup`` (timed as ``setup_s``), then driven one *block* at a time:
the op order and the data of block ``i`` come from ``seed`` and ``i``
alone, so a seed fixes the inputs whatever the speed of the program.
Every read is checked against a numpy or dict model as it returns, and
``verify`` runs an untimed deep fsck and scrub at the end.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.filesystem import DPFS
from repro.core.fsck import fsck
from repro.core.hints import Hint
from repro.core.scrub import scrub

perf = time.perf_counter

N = 1024                    # array side: one 1024x1024 float64 array = 8 MiB
ELEM = 8                    # float64
RANKS = 8
STRIP = N // RANKS          # (*, BLOCK) column strip width
LEVELS = ("linear", "multidim", "array")
TILE = 96                   # rmw-cached tile side (unaligned to the 64x64 bricks)
HOT = N // 2                # hot quarter: the top-left 512x512 block
RMW_CYCLES = 20             # read-modify-write cycles per block
INIT_BLOCK = 1 << 40        # rng stream of the initial contents
NS_OPS = 50                 # namespace ops per block
NS_DIRS = 4
# namespace op mix; creates outnumber removes, so the namespace grows
NS_MIX = (("create", 0.40), ("stat", 0.20), ("read", 0.15),
          ("rename", 0.125), ("remove", 0.125))

SERVERS_SCRIPT = Path(__file__).with_name("servers.py")


class OpLog:
    """Times every op, counts failures and checks, and opens op spans."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.traced = False
        self.block = 0
        #: [kind, level, nbytes, seconds, ok, traced, block]
        self.records: list[list] = []
        self.checks = 0
        self.failures: list[str] = []

    def call(self, kind: str, fn, *, level: str = "", nbytes: int = 0):
        """Run one op; returns ``(ok, result)`` and never raises."""
        tracing = self.traced and self.recorder is not None
        op_id = len(self.records)
        t0 = self.recorder.begin_op(op_id, kind) if tracing else perf()
        try:
            result, ok = fn(), True
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result, ok = None, False
            self.failures.append(f"{kind} {level}: {exc!r}")
        t1 = perf()
        if tracing:
            self.recorder.end_op(t0, t1)
        self.records.append([kind, level, nbytes, t1 - t0, ok, self.traced, self.block])
        return ok, result

    def expect(self, cond: bool, what: str) -> None:
        """Fail the last op when its result is wrong."""
        if not cond and self.records[-1][4]:
            self.records[-1][4] = False
            self.failures.append(what)

    def check(self, what: str, fn) -> None:
        """One untimed verification step: ``fn()`` returns True when the
        result is right, else False or a description of what is wrong."""
        self.checks += 1
        try:
            verdict = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            verdict = repr(exc)
        if verdict is not True:
            self.failures.append(f"{what}: {verdict}" if verdict else what)

    @property
    def attempted(self) -> int:
        return len(self.records) + self.checks

    @property
    def failed(self) -> int:
        # one message per failed op or check
        return len(self.failures)


class Workload:
    """Base: a mount under ``workdir`` plus the model it is checked against."""

    #: what the speed probe times (kinds of ``probe.py``), and its median
    #: time on the machine the reference speed is defined by
    probe_kinds = ("cpu",)
    probe_ref_s = 1.5e-3
    #: whether the run keeps itself and every process it starts (the
    #: speed probe, the storage servers) on one CPU.  Left to the
    #: scheduler, the client's threads (and the server process of
    #: strips-tcp) move between the CPUs and wait on each other's
    #: wake-ups, and op times follow where they happen to run more than
    #: the program or the probe; on one CPU with the probe, an op costs
    #: its own CPU time, at the speed the probe sees.
    one_cpu = True

    def __init__(self, seed: int, workdir: Path, wrap_backend=None) -> None:
        self.seed = seed
        self.workdir = workdir
        #: test hook: wraps the storage backend (fault injection)
        self.wrap_backend = wrap_backend
        self.fs: DPFS | None = None

    def _mount(self, fs: DPFS) -> DPFS:
        if self.wrap_backend is not None:
            fs.backend = self.wrap_backend(fs.backend)
        return fs

    def rng(self, block) -> np.random.Generator:
        return np.random.default_rng([self.seed, block])

    def setup(self) -> None:
        raise NotImplementedError

    def block(self, log: OpLog, index: int) -> None:
        raise NotImplementedError

    def verify(self, log: OpLog) -> None:
        log.check("fsck", lambda: _clean(fsck(self.fs, deep=True)))
        log.check("scrub", lambda: _clean(scrub(self.fs)))

    def summary(self) -> dict[str, float]:
        """Numbers about the end state worth printing with the metrics."""
        return {}

    def teardown(self) -> None:
        if self.fs is not None:
            self.fs.close()
            self.fs = None


def _clean(report) -> bool | str:
    return report.clean or str(report)


# ---------------------------------------------------------------------------
# strips-mem / strips-tcp
# ---------------------------------------------------------------------------

def _hint(level: str) -> Hint:
    if level == "linear":
        return Hint.linear(file_size=N * N * ELEM, brick_size=64 * 1024)
    if level == "multidim":
        return Hint.multidim((N, N), ELEM, (64, 64))
    return Hint.array((N, N), ELEM, "(*, BLOCK)", RANKS)


class Strips(Workload):
    """8 ranks write their (*, BLOCK) column strip of one 8 MiB array at
    each file level, then read it back."""

    tcp = False

    def setup(self) -> None:
        if self.tcp:
            self._start_servers()
            fs = DPFS.remote(self.addresses, io_workers=2, pool_size=1)
        else:
            fs = DPFS.memory(8, io_workers=2)
        self.fs = self._mount(fs)
        for level in LEVELS:
            self.fs.open(f"/{level}", "w", hint=_hint(level)).close()
        self.model = {level: np.zeros((N, N)) for level in LEVELS}
        row = N * ELEM
        self.extents = [
            [(i * row + r * STRIP * ELEM, STRIP * ELEM) for i in range(N)]
            for r in range(RANKS)
        ]

    def _start_servers(self) -> None:
        root = self.workdir / "servers"
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVERS_SCRIPT), str(root), "4"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError("storage server process exited during start")
        self.addresses = [("127.0.0.1", port) for port in json.loads(line)]

    def _write(self, fh, level: str, rank: int, data: bytes):
        if level == "linear":
            return lambda: fh.write_extents(self.extents[rank], data)
        return lambda: fh.write_region((0, rank * STRIP), (N, STRIP), data)

    def _read(self, fh, level: str, rank: int):
        if level == "linear":
            return lambda: fh.read_extents(self.extents[rank])
        return lambda: fh.read_region((0, rank * STRIP), (N, STRIP))

    def block(self, log: OpLog, index: int) -> None:
        rng = self.rng(index)
        nbytes = N * STRIP * ELEM
        for level in LEVELS:
            values = rng.standard_normal((N, N))
            handles = [self.fs.open(f"/{level}", "r+", rank=r) for r in range(RANKS)]
            strips = [
                np.ascontiguousarray(values[:, r * STRIP:(r + 1) * STRIP]).tobytes()
                for r in range(RANKS)
            ]
            for r in rng.permutation(RANKS).tolist():
                ok, _ = log.call(
                    "write", self._write(handles[r], level, r, strips[r]),
                    level=level, nbytes=nbytes,
                )
                if ok:
                    self.model[level][:, r * STRIP:(r + 1) * STRIP] = (
                        values[:, r * STRIP:(r + 1) * STRIP]
                    )
            for r in rng.permutation(RANKS).tolist():
                want = np.ascontiguousarray(
                    self.model[level][:, r * STRIP:(r + 1) * STRIP]
                ).tobytes()
                ok, got = log.call(
                    "read", self._read(handles[r], level, r),
                    level=level, nbytes=nbytes,
                )
                if ok:
                    log.expect(got == want, f"read {level} rank {r}: wrong bytes")
            for fh in handles:
                fh.close()

    def verify(self, log: OpLog) -> None:
        for level in LEVELS:
            log.check(f"final {level}: wrong bytes", lambda: self._read_all(level))
        super().verify(log)

    def _read_all(self, level: str) -> bool:
        with self.fs.open(f"/{level}", "r") as fh:
            if level == "linear":
                got = fh.read(0, fh.size)
            else:
                got = fh.read_region((0, 0), (N, N))
        return got == self.model[level].tobytes()

    def teardown(self) -> None:
        super().teardown()
        proc = getattr(self, "proc", None)
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            self.proc = None


class StripsTcp(Strips):
    tcp = True
    probe_ref_s = 2.2e-3


# ---------------------------------------------------------------------------
# namespace
# ---------------------------------------------------------------------------

class Namespace(Workload):
    """Seeded create/stat/read/rename/remove mix of single-brick linear
    files on a durable local mount; the namespace grows from empty."""

    # a create, rename or remove commits four WAL records, each an
    # appending write and fsync
    probe_kinds = ("cpu",) + ("fsync",) * 4
    probe_ref_s = 2.3e-3
    # an op here mostly waits for fsyncs, not for other threads; on one
    # CPU its figures spread more (0.07 against 0.05 over five seeds)
    one_cpu = False

    def setup(self) -> None:
        root = self.workdir / "ns"
        self.fs = self._mount(DPFS.local(root, NS_DIRS, io_workers=2))
        for d in range(NS_DIRS):
            self.fs.mkdir(f"/d{d}")
        self.files: dict[str, bytes] = {}
        self.live: list[str] = []       # same keys, for O(1) random picks
        self.serial = 0

    def _add(self, path: str, data: bytes) -> None:
        self.files[path] = data
        self.live.append(path)

    def _drop(self, rng) -> str:
        i = int(rng.integers(len(self.live)))
        self.live[i], self.live[-1] = self.live[-1], self.live[i]
        path = self.live.pop()
        return path

    def _new_path(self, rng, stem: str) -> str:
        self.serial += 1
        return f"/d{int(rng.integers(NS_DIRS))}/{stem}{self.serial}"

    def block(self, log: OpLog, index: int) -> None:
        rng = self.rng(index)
        kinds = [k for k, _ in NS_MIX]
        probs = [p for _, p in NS_MIX]
        fs = self.fs
        for kind in rng.choice(kinds, size=NS_OPS, p=probs):
            if not self.live:
                kind = "create"
            if kind == "create":
                path = self._new_path(rng, "f")
                data = rng.bytes(int(rng.integers(512, 4097)))
                hint = Hint.linear(file_size=len(data), brick_size=4096)
                ok, fh = log.call("create", lambda: fs.open(path, "w", hint=hint))
                if not ok:
                    continue
                ok, _ = log.call(
                    "write", lambda: fh.write(0, data), level="linear", nbytes=len(data)
                )
                fh.close()
                self._add(path, data if ok else bytes(len(data)))
            elif kind == "stat":
                path = self.live[int(rng.integers(len(self.live)))]
                ok, st = log.call("stat", lambda: fs.stat(path))
                if ok:
                    log.expect(
                        st["size"] == len(self.files[path]) and not st["is_dir"],
                        f"stat {path}: {st.get('size')} != {len(self.files[path])}",
                    )
            elif kind == "read":
                path = self.live[int(rng.integers(len(self.live)))]
                want = self.files[path]
                ok, got = log.call(
                    "read", lambda: fs.read_file(path), level="linear", nbytes=len(want)
                )
                if ok:
                    log.expect(got == want, f"read {path}: wrong bytes")
            elif kind == "rename":
                old = self._drop(rng)
                new = self._new_path(rng, "r")
                ok, _ = log.call("rename", lambda: fs.rename(old, new))
                data = self.files.pop(old)
                self._add(new if ok else old, data)
            else:
                path = self._drop(rng)
                ok, _ = log.call("remove", lambda: fs.remove(path))
                data = self.files.pop(path)
                if not ok:
                    self._add(path, data)
        self._check_dir(log, int(rng.integers(NS_DIRS)))

    def _check_dir(self, log: OpLog, d: int) -> None:
        prefix = f"/d{d}/"
        want = sorted(p[len(prefix):] for p in self.files if p.startswith(prefix))
        log.check(f"listdir /d{d}", lambda: sorted(self.fs.listdir(f"/d{d}")[1]) == want)

    def verify(self, log: OpLog) -> None:
        for d in range(NS_DIRS):
            self._check_dir(log, d)
        super().verify(log)

    def summary(self) -> dict[str, float]:
        return {"live_files": len(self.files)}


# ---------------------------------------------------------------------------
# rmw-cached
# ---------------------------------------------------------------------------

class RmwCached(Workload):
    """Read-modify-write of unaligned 96x96 tiles of a replicated 8 MiB
    multidim file through a brick cache of half the file."""

    def setup(self) -> None:
        self.fs = self._mount(DPFS.memory(4, io_workers=2, cache_bytes=N * N * ELEM // 2))
        hint = Hint.multidim((N, N), ELEM, (64, 64), replicas=2)
        self.model = self.rng(INIT_BLOCK).standard_normal((N, N))
        with self.fs.open("/field", "w", hint=hint) as fh:
            fh.write_region((0, 0), (N, N), self.model.tobytes())

    def block(self, log: OpLog, index: int) -> None:
        rng = self.rng(index)
        nbytes = TILE * TILE * ELEM
        fh = self.fs.open("/field", "r+")
        for _ in range(RMW_CYCLES):
            span = HOT if rng.random() < 0.7 else N
            r0, c0 = (int(x) for x in rng.integers(0, span - TILE + 1, size=2))
            delta = float(rng.integers(1, 1000))
            cells = (slice(r0, r0 + TILE), slice(c0, c0 + TILE))
            ok, got = log.call(
                "read", lambda: fh.read_region((r0, c0), (TILE, TILE)),
                level="multidim", nbytes=nbytes,
            )
            if not ok:
                continue
            want = np.ascontiguousarray(self.model[cells])
            log.expect(got == want.tobytes(), f"read tile ({r0},{c0}): wrong bytes")
            new = np.frombuffer(got, dtype=np.float64).reshape(TILE, TILE) + delta
            ok, _ = log.call(
                "write", lambda: fh.write_region((r0, c0), (TILE, TILE), new.tobytes()),
                level="multidim", nbytes=nbytes,
            )
            if ok:
                self.model[cells] = new
        fh.close()

    def verify(self, log: OpLog) -> None:
        def read_all() -> bool:
            with self.fs.open("/field", "r") as fh:
                return fh.read_region((0, 0), (N, N)) == self.model.tobytes()

        log.check("final /field: wrong bytes", read_all)
        super().verify(log)


WORKLOADS = {
    "strips-mem": Strips,
    "strips-tcp": StripsTcp,
    "namespace": Namespace,
    "rmw-cached": RmwCached,
}


def make(name: str, seed: int, workdir: Path, wrap_backend=None) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, wrap_backend)


def remove_tree(path: Path) -> None:
    """Delete ``path`` and wait until the deletion is on disk, so the
    journal flush does not land in the next run's fsyncs."""
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
