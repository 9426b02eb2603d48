"""Capacity is checked inside the create transaction, not only before it.

Two creates that each fit on a server but together overflow it must not
both commit, even when both have passed the pre-flight check.
"""

import sys
import threading

from repro.core import DPFS, Hint, fsck
from repro.errors import FileSystemError

CAPACITY = 1000
SIZE = 600  # one fits, two do not


def test_concurrent_creates_cannot_overcommit_a_server():
    fs = DPFS.memory(1, capacity=CAPACITY)
    barrier = threading.Barrier(2, timeout=10)
    make_subfiles = fs._redo_create_subfiles

    def held(norm, replicated):
        # both creates are past the pre-flight capacity check here
        make_subfiles(norm, replicated)
        barrier.wait()

    fs._redo_create_subfiles = held
    outcomes = {}

    def create(path):
        try:
            fs.open(path, "w", hint=Hint.linear(file_size=SIZE, brick_size=SIZE))
            outcomes[path] = "ok"
        except FileSystemError as exc:
            outcomes[path] = exc

    threads = [
        threading.Thread(target=create, args=(f"/f{i}",)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)

    winners = [p for p, o in outcomes.items() if o == "ok"]
    losers = [o for o in outcomes.values() if o != "ok"]
    assert len(winners) == 1, outcomes
    assert len(losers) == 1 and "lacks capacity" in str(losers[0])
    (row,) = fs.df()
    assert row["used"] == SIZE <= row["capacity"]
    assert fs.exists(winners[0])
    assert [p for p in ("/f0", "/f1") if fs.exists(p)] == winners
    fs._redo_create_subfiles = make_subfiles
    assert fsck(fs).clean  # the loser's subfiles were rolled back


def test_many_threads_fill_a_server_exactly_then_drain_it():
    """More threads than cores race creates, then removes; a lost update
    of ``used`` would let an extra create in or leave bytes behind."""
    slots = 10
    fs = DPFS.memory(1, capacity=slots * SIZE)
    hint = Hint.linear(file_size=SIZE, brick_size=SIZE)
    created = []
    lock = threading.Lock()

    def create_some(t):
        for i in range(4):
            path = f"/t{t}-{i}"
            try:
                fs.open(path, "w", hint=hint).close()
            except FileSystemError as exc:
                assert "lacks capacity" in str(exc)
                continue
            with lock:
                created.append(path)

    def remove_mine(t):
        for path in [p for p in created if p.startswith(f"/t{t}-")]:
            fs.remove(path)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for work in (create_some, remove_mine):
            threads = [
                threading.Thread(target=work, args=(t,)) for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            used = fs.df()[0]["used"]
            assert used == fs.meta.recount_server_usage()[0]
            if work is create_some:
                assert len(created) == slots and used == slots * SIZE
    finally:
        sys.setswitchinterval(old_interval)
    assert fs.df()[0]["used"] == 0
    assert fsck(fs).clean
