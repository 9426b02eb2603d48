"""Wire-level observability: the stats op, rid propagation, net metrics."""

import pytest

from repro.core import DPFS, Hint
from repro.net import DPFSServer, RemoteBackend

SIZE = 32 * 1024


@pytest.fixture
def cluster(tmp_path):
    with DPFSServer(tmp_path / "s0") as s0, DPFSServer(tmp_path / "s1") as s1:
        yield [s0, s1]


def _traced_fs(cluster, **kwargs):
    backend = RemoteBackend([s.address for s in cluster])
    return DPFS(backend, tracing=True, **kwargs)


def _roundtrip(fs):
    data = bytes(range(256)) * (SIZE // 256)
    hint = Hint(file_size=SIZE, brick_size=SIZE // 4)
    with fs.open("/f", "w", hint) as h:
        h.write(0, data)
    with fs.open("/f") as h:
        assert bytes(h.read(0, SIZE)) == data


def test_stats_op_returns_metrics_and_spans(cluster):
    fs = _traced_fs(cluster)
    _roundtrip(fs)
    for entry in fs.backend.server_stats():
        assert entry["name"].startswith("dpfs://")
        assert "dpfs_server_requests_total" in entry["metrics"]
        assert 'op="read"' in entry["metrics"]
        assert 'op="write"' in entry["metrics"]
    fs.close()


def test_rid_matches_client_trace_on_every_server(cluster):
    fs = _traced_fs(cluster)
    _roundtrip(fs)
    rids = {t.trace_id for t in fs.tracer.traces()}
    assert len(rids) == 2  # one write trace, one read trace
    for entry in fs.backend.server_stats():
        server_rids = {rec["rid"] for rec in entry["spans"]}
        # every logged server span belongs to a client trace
        assert server_rids
        assert server_rids <= rids
        for rec in entry["spans"]:
            assert rec["name"] in ("server.read", "server.write")
            assert rec["duration_s"] >= 0.0
            assert rec["nbytes"] > 0
    fs.close()


def test_no_rid_without_tracing(cluster):
    backend = RemoteBackend([s.address for s in cluster])
    fs = DPFS(backend)  # tracing disabled
    _roundtrip(fs)
    for entry in fs.backend.server_stats():
        assert entry["spans"] == []  # span log needs a rid to record
        assert "dpfs_server_requests_total" in entry["metrics"]
    fs.close()


def test_client_net_metrics_recorded(cluster):
    fs = _traced_fs(cluster)
    _roundtrip(fs)
    text = fs.metrics.render()
    assert 'dpfs_net_requests_total{op="write"}' in text
    assert 'dpfs_net_requests_total{op="read"}' in text
    assert "dpfs_net_roundtrip_seconds_count" in text
    sent = fs.metrics.get("dpfs_net_bytes_sent_total")
    received = fs.metrics.get("dpfs_net_bytes_received_total")
    assert sent.total() >= SIZE
    assert received.total() >= SIZE
    fs.close()


def test_trace_tree_spans_all_phases(cluster):
    fs = _traced_fs(cluster, cache_bytes=1 << 20)
    _roundtrip(fs)
    read_trace = fs.tracer.last()
    assert read_trace.name == "handle.read"
    names = {s.name for s in read_trace.spans}
    assert {
        "handle.read",
        "cache.lookup",
        "combine.plan",
        "dispatch.batch",
        "dispatch.request",
        "net.rpc",
    } <= names
    # net.rpc spans sit under their dispatch.request parents
    by_id = {s.span_id: s for s in read_trace.spans}
    for s in read_trace.spans:
        if s.name == "net.rpc":
            assert by_id[s.parent_id].name == "dispatch.request"
    fs.close()


def test_constructor_ping_reaches_mount_metrics(tmp_path):
    """The connection's first ping runs before the mount binds its
    registry; its counts must still land in ``fs.metrics``."""
    with DPFSServer(tmp_path / "s0") as server:
        fs = DPFS.remote([server.address])
        try:
            requests = fs.metrics.get("dpfs_net_requests_total")
            assert requests.value(op="ping") == server.requests_served == 1
            roundtrip = fs.metrics.get("dpfs_net_roundtrip_seconds")
            assert roundtrip.count(server=0) == 1
        finally:
            fs.close()
