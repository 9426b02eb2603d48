"""Concurrency tests for the parallel dispatch layer.

Unit tests drive :class:`Dispatcher` directly with synthetic requests;
the stress tests hammer one DPFS instance from many threads over the
memory and local backends.  Synchronization uses events/barriers, never
sleeps, so the tests are deterministic.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import pytest

from repro.backends import MemoryBackend
from repro.backends.faulty import FaultyBackend, TransientFault
from repro.core import DPFS, DispatchPolicy, Dispatcher, Hint, is_transient
from repro.errors import ConfigError, DispatchTimeout, RetryExhausted


@dataclass(frozen=True)
class FakeRequest:
    server: int


def make_items(n):
    return [FakeRequest(i) for i in range(n)]


# ---------------------------------------------------------------------------
# dispatcher unit tests
# ---------------------------------------------------------------------------

def test_empty_plan_is_noop():
    with Dispatcher() as d:
        assert d.run([], lambda item: 1 / 0) == []
    assert d.stats.batches == 0


def test_policy_validation():
    with pytest.raises(ConfigError):
        DispatchPolicy(max_workers=0)
    with pytest.raises(ConfigError):
        DispatchPolicy(retries=-1)
    with pytest.raises(ConfigError):
        DispatchPolicy(timeout_s=0)


def test_results_in_item_order_despite_completion_order():
    """Item 0 finishes *last* (it waits for every other item), yet the
    result list is in item order."""
    n = 4
    peers_done = threading.Event()
    lock = threading.Lock()
    finished = []

    def fn(item):
        if item.server == 0:
            peers_done.wait(timeout=10)
            return 0
        with lock:
            finished.append(item.server)
            if len(finished) == n - 1:
                peers_done.set()
        return item.server * 10

    with Dispatcher(DispatchPolicy(max_workers=n)) as d:
        assert d.run(make_items(n), fn) == [0, 10, 20, 30]


def test_sequential_mode_runs_inline_in_plan_order():
    seen = []
    caller = threading.current_thread()

    def fn(item):
        assert threading.current_thread() is caller
        seen.append(item.server)
        return item.server

    with Dispatcher(DispatchPolicy(max_workers=1)) as d:
        d.run(make_items(5), fn)
    assert seen == [0, 1, 2, 3, 4]
    assert d.stats.inline_batches == 1


def test_transient_error_retried_until_success():
    fails = {"left": 2}
    outcomes = []

    def fn(item):
        if fails["left"]:
            fails["left"] -= 1
            raise TransientFault("flaky")
        return "ok"

    policy = DispatchPolicy(max_workers=1, retries=3, backoff_s=0.0001)
    with Dispatcher(policy) as d:
        values = d.run(
            make_items(1), fn, on_result=lambda item, r: outcomes.append(r)
        )
    assert values == ["ok"]
    assert outcomes[0].retries == 2
    assert d.stats.retries == 2


def test_retry_exhausted_names_the_server():
    def fn(item):
        raise TransientFault("always down")

    policy = DispatchPolicy(max_workers=1, retries=2, backoff_s=0.0001)
    with Dispatcher(policy) as d:
        with pytest.raises(RetryExhausted) as excinfo:
            d.run([FakeRequest(7)], fn)
    assert "server 7" in str(excinfo.value)
    assert "3 attempts" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, TransientFault)


def test_permanent_error_is_never_retried():
    calls = []

    def fn(item):
        calls.append(item.server)
        raise ValueError("permanent")

    with Dispatcher(DispatchPolicy(max_workers=1, retries=5)) as d:
        with pytest.raises(ValueError):
            d.run(make_items(1), fn)
    assert calls == [0]
    assert d.stats.failures == 1


def test_successes_reported_even_when_a_peer_fails():
    """on_result fires for every successful request before the batch's
    first error propagates — partial progress is never lost."""
    done = []

    def fn(item):
        if item.server == 1:
            raise ValueError("boom")
        return item.server

    with Dispatcher(DispatchPolicy(max_workers=4)) as d:
        with pytest.raises(ValueError):
            d.run(make_items(4), fn, on_result=lambda item, r: done.append(r.value))
    assert sorted(done) == [0, 2, 3]


def test_transience_is_attribute_based():
    assert is_transient(TransientFault("x"))
    assert not is_transient(ValueError("x"))
    assert not is_transient(Exception("x"))


def test_timeout_names_the_stuck_server():
    release = threading.Event()

    def fn(item):
        if item.server == 1:
            release.wait(timeout=30)
        return item.server

    policy = DispatchPolicy(max_workers=2, timeout_s=0.2)
    d = Dispatcher(policy)
    try:
        with pytest.raises(DispatchTimeout) as excinfo:
            d.run(make_items(2), fn)
        assert "server 1" in str(excinfo.value)
        assert d.stats.timeouts == 1
    finally:
        release.set()
        d.shutdown()


def test_timeout_is_collected_not_raised_with_collect_errors():
    """``collect_errors=True`` promises every request a slot in the
    result list even when one misses the batch deadline: the timed-out
    slot holds a DispatchTimeout and the other slots still report their
    own outcomes instead of the batch aborting mid-collection."""
    release = threading.Event()

    def fn(item):
        if item.server == 1:
            release.wait(timeout=30)
        return item.server

    policy = DispatchPolicy(max_workers=3, timeout_s=0.2)
    d = Dispatcher(policy)
    try:
        results = d.run(make_items(3), fn, collect_errors=True)
        assert results[0] == 0
        assert isinstance(results[1], DispatchTimeout)
        assert results[2] == 2
        assert d.stats.timeouts == 1
    finally:
        release.set()
        d.shutdown()


def test_timeout_is_one_deadline_from_submission():
    """``timeout_s`` bounds the whole batch, not each sequential future
    wait: with 2 workers chewing through 6 × 0.15 s requests (0.45 s of
    work per worker) and a 0.25 s budget, the old per-future waits never
    individually expired and the batch quietly took ~2× the deadline."""
    import time as _time

    def fn(item):
        _time.sleep(0.15)
        return item.server

    policy = DispatchPolicy(max_workers=2, timeout_s=0.25)
    with Dispatcher(policy) as d:
        start = _time.perf_counter()
        with pytest.raises(DispatchTimeout):
            d.run(make_items(6), fn)
        elapsed = _time.perf_counter() - start
    # well under the 0.45s+ the old sequential-wait accounting allowed
    assert elapsed < 0.4, f"batch outlived its deadline: {elapsed:.3f}s"
    assert d.stats.timeouts == 1


def test_nested_dispatch_runs_inline_without_deadlock():
    """A dispatch issued from a pool worker must not wait on pool
    capacity: with one worker, a re-entrant fan-out would deadlock."""
    inner_threads = []

    def inner(item):
        inner_threads.append(threading.current_thread())
        return item.server

    def outer(item):
        return sum(d.run(make_items(3), inner))

    # max_workers=2 but force the single outer item through the pool by
    # dispatching two items
    d = Dispatcher(DispatchPolicy(max_workers=2))
    with d:
        results = d.run(make_items(2), outer)
    assert results == [3, 3]
    # the inner dispatches ran on the pool workers themselves
    assert all(t.name.startswith("dpfs-io") for t in inner_threads)


def test_dispatch_after_shutdown_degrades_to_inline():
    d = Dispatcher(DispatchPolicy(max_workers=4))
    d.shutdown()
    assert d.run(make_items(3), lambda item: item.server) == [0, 1, 2]


# ---------------------------------------------------------------------------
# file-system stress tests
# ---------------------------------------------------------------------------

def _pattern(seed: int, n: int) -> bytes:
    return bytes((seed * 31 + i) % 256 for i in range(n))


def test_threads_hammering_one_fs_memory():
    """8 threads, each reading and writing its own file on one shared
    DPFS over the memory backend; every byte must survive."""
    n_threads = 8
    rounds = 5
    size = 64 * 1024
    fs = DPFS.memory(4, io_workers=8)
    handles = []
    for i in range(n_threads):
        fs.write_file(
            f"/t{i}",
            bytes(size),
            hint=Hint.linear(file_size=size, brick_size=4096),
        )
        handles.append(fs.open(f"/t{i}", "r+", rank=i))

    errors = []

    def work(i):
        try:
            handle = handles[i]
            for r in range(rounds):
                payload = _pattern(i * rounds + r, size)
                handle.write(0, payload)
                assert handle.read(0, size) == payload
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    for i, handle in enumerate(handles):
        assert handle.read(0, size) == _pattern(i * rounds + rounds - 1, size)
        assert handle.stats.requests > 0
        handle.close()
    # no update lost under contention: one service-time observation per
    # successful request, each kept once, in the registry
    service = fs.metrics.get("dpfs_dispatch_service_seconds")
    assert service.total_count() == fs.dispatcher.stats.requests
    fs.close()


def test_barrier_released_writers_disjoint_extents():
    """Barrier-synchronized simultaneous writers to disjoint extents of
    one shared file: the extents deliberately straddle brick boundaries
    (brick_size=1000 vs 4096-byte segments), so concurrent workers hit
    the same subfiles."""
    n_threads = 8
    seg = 4096
    total = n_threads * seg
    fs = DPFS.memory(4, io_workers=8)
    fs.write_file(
        "/shared", bytes(total), hint=Hint.linear(file_size=total, brick_size=1000)
    )
    handles = [fs.open("/shared", "r+", rank=i) for i in range(n_threads)]
    barrier = threading.Barrier(n_threads)
    errors = []

    def work(i):
        try:
            barrier.wait(timeout=30)
            handles[i].write(i * seg, bytes([i + 1]) * seg)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    expect = b"".join(bytes([i + 1]) * seg for i in range(n_threads))
    assert fs.read_file("/shared") == expect
    for handle in handles:
        handle.close()
    fs.close()


def test_barrier_released_writers_local_backend(tmp_path):
    """Same disjoint-extent race over the directory-backed backend."""
    n_threads = 6
    seg = 2048
    total = n_threads * seg
    fs = DPFS.local(tmp_path / "dpfs", 3, io_workers=6)
    fs.write_file(
        "/shared", bytes(total), hint=Hint.linear(file_size=total, brick_size=900)
    )
    handles = [fs.open("/shared", "r+", rank=i) for i in range(n_threads)]
    barrier = threading.Barrier(n_threads)
    errors = []

    def work(i):
        try:
            barrier.wait(timeout=30)
            handles[i].write(i * seg, _pattern(i, seg))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    expect = b"".join(_pattern(i, seg) for i in range(n_threads))
    assert fs.read_file("/shared") == expect
    for handle in handles:
        handle.close()
    fs.close()


def test_concurrent_readers_shared_file():
    """Many readers of overlapping regions see a consistent image."""
    size = 128 * 1024
    payload = _pattern(3, size)
    fs = DPFS.memory(5, io_workers=8)
    fs.write_file(
        "/ro", payload, hint=Hint.linear(file_size=size, brick_size=8192)
    )
    with ThreadPoolExecutor(8) as pool:

        def reader(i):
            with fs.open("/ro", "r", rank=i) as handle:
                off = (i * 7919) % (size // 2)
                return handle.read(off, size // 2) == payload[off : off + size // 2]

        assert all(pool.map(reader, range(16)))
    fs.close()


@pytest.mark.parametrize("level", ["linear", "multidim", "array"])
def test_workers_1_and_8_produce_identical_files(level):
    """The same scripted workload under sequential and 8-way dispatch
    must yield byte-identical files."""
    outputs = {}
    for workers in (1, 8):
        fs = DPFS.memory(4, io_workers=workers)
        if level == "linear":
            hint = Hint.linear(file_size=0, brick_size=512)
            with fs.open("/f", "w", hint=hint) as handle:
                for i in range(12):
                    handle.write(i * 700, _pattern(i, 900))
        elif level == "multidim":
            hint = Hint.multidim((64, 64), 4, (16, 16))
            with fs.open("/f", "w", hint=hint) as handle:
                for i in range(8):
                    r, c = (i * 5) % 48, (i * 11) % 48
                    handle.write_region(
                        (r, c), (16, 16), _pattern(i, 16 * 16 * 4)
                    )
        else:
            hint = Hint.array((32, 32), 8, "(BLOCK, BLOCK)", nprocs=4)
            with fs.open("/f", "w", hint=hint) as handle:
                for rank in range(4):
                    handle.write_chunk(_pattern(rank, 16 * 32 * 8 // 2), rank)
        outputs[workers] = fs.read_file("/f")
        fs.close()
    assert outputs[1] == outputs[8]


def test_dispatcher_stats_accumulate_across_handles():
    fs = DPFS.memory(4, io_workers=4)
    fs.write_file(
        "/a", bytes(8192), hint=Hint.linear(file_size=8192, brick_size=512)
    )
    fs.read_file("/a")
    stats = fs.dispatcher.stats
    assert stats.batches >= 2
    assert stats.requests >= stats.batches
    assert stats.failures == 0
    fs.close()


def test_simulated_backend_stays_usable_under_parallel_dispatch():
    """The DES-priced backend serializes pricing internally, so it can
    sit under the parallel dispatcher without corrupting its clock."""
    from repro.backends import SimulatedBackend
    from repro.netsim.classes import CLASS1

    backend = SimulatedBackend([CLASS1] * 4)
    fs = DPFS(backend, io_workers=4)
    payload = _pattern(9, 32 * 1024)
    fs.write_file(
        "/sim", payload, hint=Hint.linear(file_size=32 * 1024, brick_size=4096)
    )
    assert fs.read_file("/sim") == payload
    assert backend.clock > 0.0
    fs.close()


def test_transient_fault_retry_is_invisible_to_callers():
    faulty = FaultyBackend(MemoryBackend(4))
    fs = DPFS(faulty, io_workers=4, io_backoff_s=0.0001)
    payload = _pattern(1, 4096)
    fs.write_file(
        "/f", payload, hint=Hint.linear(file_size=4096, brick_size=256)
    )
    faulty.fail_next("read", times=2, transient=True)
    with fs.open("/f", "r") as handle:
        assert handle.read(0, 4096) == payload
        assert handle.stats.retries >= 1
        assert fs.dispatcher.stats.retries == handle.stats.retries
    assert faulty.faults_fired["read"] == 2
    fs.close()
