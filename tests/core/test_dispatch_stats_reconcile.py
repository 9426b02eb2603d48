"""Regression: per-handle ``IOStats`` totals vs the metrics registry.

Every per-server count lives once, in the mount's registry
(``DPFS.metrics``); a handle keeps only its own totals.  These tests pin
how the two reconcile:

- for an all-successful workload, the handles' summed ``requests`` and
  ``retries`` equal the registry's deltas over the same operations;
- a ``RetryExhausted`` request's re-attempts appear in the registry but
  never in any handle's stats — documented divergence, asserted here;
- a faulted server's retries and backoff sleeps land in its own
  ``server`` series, and no other server's.
"""

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint
from repro.errors import RetryExhausted

SIZE = 64 * 1024
N_SERVERS = 4


def _fs(backend=None, **kwargs):
    backend = backend or FaultyBackend(MemoryBackend(N_SERVERS))
    return DPFS(backend, io_retries=3, **kwargs), backend


def _by_server(fs, name):
    """One registry counter's values keyed by integer server id."""
    return {
        int(k): v for k, v in fs.metrics.get(name).by_label("server").items()
    }


def _delta(after, before):
    return {s: v - before.get(s, 0) for s, v in after.items() if v - before.get(s, 0)}


def _precreate(fs):
    # namespace mutations (create/remove/rename subfile fan-out) go
    # through the dispatcher too, and handles never see those — so
    # reconcile the *data* path as a registry delta over a pre-created
    # file rather than as absolute totals.
    hint = Hint(file_size=SIZE, brick_size=SIZE // (2 * N_SERVERS))
    with fs.open("/f", "w", hint):
        pass


def _roundtrip(fs):
    """Write then read /f; return (write-handle stats, read-handle stats)."""
    data = bytes(range(256)) * (SIZE // 256)
    with fs.open("/f", "r+") as h:
        h.write(0, data)
        wstats = h.stats
    with fs.open("/f") as h:
        assert bytes(h.read(0, SIZE)) == data
        return wstats, h.stats


def test_registry_retries_match_handle_retries_when_all_succeed():
    fs, backend = _fs()
    _precreate(fs)
    before = _by_server(fs, "dpfs_dispatch_retries_total")
    backend.fail_next("read", server=0, times=1, transient=True)
    backend.fail_next("write", server=2, times=2, transient=True)
    wstats, rstats = _roundtrip(fs)
    retries = _delta(_by_server(fs, "dpfs_dispatch_retries_total"), before)
    assert sum(retries.values()) == wstats.retries + rstats.retries == 3
    assert retries == {0: 1, 2: 2}
    fs.close()


def test_dispatch_requests_total_by_server_matches_handles():
    fs, _backend = _fs()
    _precreate(fs)
    before = _by_server(fs, "dpfs_dispatch_requests_total")
    wstats, rstats = _roundtrip(fs)
    requests = _delta(_by_server(fs, "dpfs_dispatch_requests_total"), before)
    assert sum(requests.values()) == wstats.requests + rstats.requests
    assert set(requests) == set(range(N_SERVERS))  # every server took part
    fs.close()


def test_faulted_server_retries_and_backoff_in_its_series():
    fs, backend = _fs()
    _precreate(fs)
    backend.fail_next("read", server=1, times=2, transient=True)
    _wstats, rstats = _roundtrip(fs)
    assert rstats.retries == 2
    assert _by_server(fs, "dpfs_dispatch_retries_total") == {1: 2}
    backoff = _by_server(fs, "dpfs_dispatch_backoff_seconds_total")
    assert set(backoff) == {1} and backoff[1] > 0.0
    # the successful attempt's service time is recorded on every server
    service = fs.metrics.get("dpfs_dispatch_service_seconds")
    assert all(service.count(server=s) > 0 for s in range(N_SERVERS))
    fs.close()


def test_failed_request_retries_counted_in_registry_only():
    """The documented divergence: RetryExhausted re-attempts are
    registry-visible but invisible to every handle."""
    fs, backend = _fs()
    _precreate(fs)
    wstats, rstats = _roundtrip(fs)  # clean first pass
    assert wstats.retries == rstats.retries == 0

    backend.fail_on("read", server=3, transient=True)  # persistent fault
    with fs.open("/f") as h:
        with pytest.raises(RetryExhausted):
            h.read(0, SIZE)
        assert h.stats.retries == 0  # the handle saw no *successful* retry

    reg = fs.dispatcher.stats
    assert reg.per_server_retries() == {3: 3}  # io_retries budget
    assert reg.failures >= 1
    fs.close()
