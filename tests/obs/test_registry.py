"""MetricsRegistry: thread safety, bucket edges, cardinality, export."""

import threading

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.obs.registry import DEFAULT_BUCKETS


# -- counters ---------------------------------------------------------------
def test_counter_basics():
    reg = MetricsRegistry()
    c = reg.counter("dpfs_test_total", "help text")
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5
    assert c.total() == 3.5


def test_counter_rejects_negative():
    c = MetricsRegistry().counter("c")
    with pytest.raises(ConfigError):
        c.inc(-1)


def test_counter_labels_are_independent_series():
    c = MetricsRegistry().counter("c")
    c.inc(1, server=0)
    c.inc(2, server=1)
    c.inc(4, server=1)
    assert c.value(server=0) == 1
    assert c.value(server=1) == 6
    assert c.total() == 7
    assert c.by_label("server") == {"0": 1, "1": 6}


def test_bound_counter_matches_unbound():
    c = MetricsRegistry().counter("c")
    bound = c.labels(server=3)
    bound.inc()
    c.inc(1, server=3)
    bound.inc(2)
    assert bound.value() == 4
    assert c.value(server=3) == 4


def test_concurrent_increments_from_8_threads():
    """The headline thread-safety contract: no lost updates."""
    reg = MetricsRegistry()
    c = reg.counter("c")
    h = reg.histogram("h")
    per_thread = 5_000

    def hammer(tid: int) -> None:
        bound = c.labels(thread=tid)
        hb = h.labels(thread=tid)
        for _ in range(per_thread):
            c.inc()
            bound.inc()
            hb.observe(0.001)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.total() == 8 * per_thread * 2
    assert h.total_count() == 8 * per_thread
    for tid in range(8):
        assert c.value(thread=tid) == per_thread


# -- gauges -----------------------------------------------------------------
def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("g")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value() == 12


# -- histograms -------------------------------------------------------------
def test_histogram_bucket_edges_are_le():
    """An observation equal to an edge lands in that edge's bucket."""
    h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
    h.observe(1.0)   # == first edge -> le="1" bucket
    h.observe(1.5)   # -> le="2"
    h.observe(2.0)   # == second edge -> le="2"
    h.observe(9.0)   # -> +Inf
    counts = h.bucket_counts()
    assert counts == {"1": 1, "2": 3, "4": 3, "+Inf": 4}
    assert h.count() == 4
    assert h.sum() == pytest.approx(13.5)


def test_histogram_cumulative_render():
    h = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    text = h.render()
    assert 'h_bucket{le="0.1"} 1' in text
    assert 'h_bucket{le="1"} 2' in text
    assert 'h_bucket{le="+Inf"} 3' in text
    assert "h_count 3" in text


def test_histogram_default_buckets_sorted():
    assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


def test_histogram_rejects_bad_buckets():
    reg = MetricsRegistry()
    with pytest.raises(ConfigError):
        reg.histogram("h1", buckets=())
    with pytest.raises(ConfigError):
        reg.histogram("h2", buckets=(1.0, 1.0))


def test_bound_histogram_matches_unbound():
    h = MetricsRegistry().histogram("h", buckets=(1.0,))
    bound = h.labels(server=0)
    bound.observe(0.5)
    h.observe(2.0, server=0)
    assert h.count(server=0) == 2
    assert h.sum(server=0) == pytest.approx(2.5)


# -- label cardinality -------------------------------------------------------
def test_label_cardinality_cap_collapses_to_overflow():
    c = MetricsRegistry().counter("c", max_series=4)
    for i in range(100):
        c.inc(1, client=i)
    # four real series plus everything else in the overflow bucket
    assert c.total() == 100
    text = c.render()
    assert 'overflow="true"' in text
    # admitted series keep exact values
    assert c.value(client=0) == 1


def test_bound_series_created_before_cap_still_works_after():
    c = MetricsRegistry().counter("c", max_series=2)
    early = c.labels(k="early")
    early.inc()
    for i in range(10):
        c.inc(1, k=i)
    early.inc()
    assert early.value() == 2
    assert c.total() == 12


# -- registry ---------------------------------------------------------------
def test_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")


def test_type_mismatch_is_config_error():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ConfigError):
        reg.histogram("x")


def test_render_is_prometheus_text():
    reg = MetricsRegistry()
    reg.counter("b_total", "second").inc(2)
    reg.gauge("a_gauge", "first").set(1)
    text = reg.render()
    # name-sorted, HELP/TYPE headers present, trailing newline
    assert text.index("a_gauge") < text.index("b_total")
    assert "# HELP a_gauge first" in text
    assert "# TYPE b_total counter" in text
    assert text.endswith("\n")
    assert "b_total 2" in text


def test_snapshot_roundtrips_through_json():
    import json

    reg = MetricsRegistry()
    reg.counter("c").inc(1, server=0)
    reg.histogram("h").observe(0.01)
    reg.gauge("g").set(7)
    snap = json.loads(json.dumps(reg.snapshot()))
    assert snap["c"]["series"][0]["value"] == 1
    assert snap["h"]["series"][0]["count"] == 1
    assert snap["g"]["series"][0]["value"] == 7


def test_merge_into_adds_labels_and_accumulates():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.counter("c_total").inc(2, op="ping")
    src.counter("plain_total").inc(3, op="ping")
    src.histogram("h_seconds").observe(0.003)
    src.gauge("g").set(7)
    dst.counter("c_total").inc(1, op="ping", server=4)
    src.merge_into(dst, {"server": 4}, unlabelled=("plain_total",))
    assert dst.counter("c_total").value(op="ping", server=4) == 3
    assert dst.counter("plain_total").value(op="ping") == 3
    assert dst.histogram("h_seconds").count(server=4) == 1
    assert dst.histogram("h_seconds").sum(server=4) == pytest.approx(0.003)
    assert dst.gauge("g").value(server=4) == 7
