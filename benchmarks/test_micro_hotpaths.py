"""Microbenchmarks of the library's hot code paths.

Unlike the figure benches (one deterministic simulation each), these use
pytest-benchmark's normal statistics: they time the pure-Python kernels
a DPFS deployment exercises per request — striping math, request
planning, metadata SQL, datatype flattening, and the DES engine itself.
"""

import numpy as np

from repro.core import (
    DPFS,
    Hint,
    LinearStriping,
    MultidimStriping,
    RoundRobin,
    build_brick_map,
    plan_requests,
)
from repro.datatypes import FLOAT64, Subarray
from repro.hpf import Region
from repro.metadb import Database
from repro.sim import Environment, Resource


def test_multidim_region_to_slices(benchmark):
    md = MultidimStriping((2048, 2048), 8, (64, 64))
    region = Region.of((0, 2048), (256, 512))  # a 4-brick-wide column strip

    slices = benchmark(md.slices_for_region, region)
    assert sum(s.nbytes for s in slices) == region.volume * 8


def test_linear_extents_to_slices(benchmark):
    lin = LinearStriping(64 * 1024, 256 * 1024 * 1024)
    extents = [(i * 911 * 1024, 64 * 1024) for i in range(256)]

    slices = benchmark(lin.slices_for_extents, extents)
    assert sum(s.length for s in slices) == 256 * 64 * 1024


def test_plan_requests_combined(benchmark):
    md = MultidimStriping((2048, 2048), 8, (64, 64))
    bmap = build_brick_map(RoundRobin(8), md.brick_sizes())
    slices = md.slices_for_region(Region.of((0, 2048), (0, 256)))

    plan = benchmark(
        plan_requests, slices, bmap, combine=True, rank=3, stagger=True
    )
    assert len(plan) <= 8


def test_greedy_placement_4096_bricks(benchmark):
    from repro.core import Greedy

    def place():
        return Greedy([1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0]).assign(4096)

    assign = benchmark(place)
    assert len(assign) == 4096


def test_metadb_indexed_lookup(benchmark):
    db = Database()
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v JSON)")
    for i in range(500):
        db.execute("INSERT INTO t VALUES (?, ?)", [f"/file{i}", list(range(16))])

    row = benchmark(
        db.execute, "SELECT v FROM t WHERE k = ?", ["/file250"]
    )
    assert row.scalar() == list(range(16))


def test_subarray_flatten(benchmark):
    t = Subarray((2048, 2048), (512, 128), (128, 900), FLOAT64)

    flat = benchmark(t.flattened)
    assert len(flat) == 512


def test_des_engine_event_throughput(benchmark):
    """Cost of ~30k event executions (10k resource cycles)."""

    def run():
        env = Environment()
        res = Resource(env, capacity=2)

        def worker(env):
            for _ in range(1000):
                with res.request() as req:
                    yield req
                    yield env.timeout(0.001)

        for _ in range(10):
            env.process(worker(env))
        env.run()
        return env.now

    now = benchmark(run)
    assert now > 0


def test_end_to_end_region_read(benchmark):
    """Full stack: metadata + striping + planning + memory backend."""
    fs = DPFS.memory(4)
    hint = Hint.multidim((256, 256), 8, (32, 32))
    data = np.arange(256 * 256, dtype=np.float64).reshape(256, 256)
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)

    def read_column():
        with fs.open("/f", "r") as handle:
            return handle.read_array((0, 64), (256, 32), np.float64)

    got = benchmark(read_column)
    assert np.array_equal(got, data[:, 64:96])
