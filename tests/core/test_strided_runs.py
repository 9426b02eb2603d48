"""Strided brick runs: the closed-form striping of regions, checked
against a per-cell oracle, the whole data path against a NumPy model,
and end-to-end verification of runs that cover a whole brick."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DPFS, ArrayStriping, Hint, MultidimStriping
from repro.errors import ChecksumError
from repro.hpf import Region


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@st.composite
def regions(draw, shape):
    starts, stops = [], []
    for n in shape:
        lo = draw(st.integers(0, n - 1))
        starts.append(lo)
        stops.append(draw(st.integers(lo + 1, n)))
    return Region(tuple(starts), tuple(stops))


@st.composite
def multidim_files(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(rank))
    bricks = tuple(draw(st.integers(1, n)) for n in shape)
    elem = draw(st.sampled_from([1, 2, 8]))
    return MultidimStriping(shape, elem, bricks)


@st.composite
def array_files(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(rank))
    pattern = [draw(st.sampled_from(["BLOCK", "*"])) for _ in range(rank)]
    # up to twice as many processors as cells along a BLOCK axis, so
    # trailing chunks are often empty
    nprocs = draw(st.integers(1, 8)) if "BLOCK" in pattern else 1
    pgrid = None
    if pattern.count("BLOCK") > 1:
        # spread nprocs over the BLOCK axes explicitly (any factoring)
        axes = [k for k, p in enumerate(pattern) if p == "BLOCK"]
        grid = [1] * rank
        for k in axes[:-1]:
            grid[k] = draw(st.integers(1, 3))
        grid[axes[-1]] = draw(st.integers(1, 3))
        nprocs = math.prod(grid)
        pgrid = tuple(grid)
    elem = draw(st.sampled_from([1, 2, 8]))
    return ArrayStriping(shape, elem, "(" + ", ".join(pattern) + ")", nprocs, pgrid)


def _row_major(coords, shape):
    index = 0
    for c, n in zip(coords, shape):
        index = index * n + c
    return index


def _owner(striping, cell):
    """(brick id, storage origin, storage shape) by brute force."""
    if isinstance(striping, MultidimStriping):
        for b in range(striping.brick_count):
            box = striping.brick_region(b)
            if box.contains(cell):
                return b, box.starts, striping.brick_shape
    else:
        for b, chunk in enumerate(striping.chunks):
            if not chunk.empty and chunk.contains(cell):
                return b, chunk.starts, chunk.shape
    raise AssertionError(f"no brick holds {cell}")


def cell_oracle(striping, region):
    """Every cell's (payload offset, brick id, offset in brick), in bytes."""
    elem = striping.element_size
    out = []
    for cell in region.cells():
        brick, origin, shape = _owner(striping, cell)
        local = [c - o for c, o in zip(cell, origin)]
        rel = [c - s for c, s in zip(cell, region.starts)]
        out.append((
            _row_major(rel, region.shape) * elem,
            brick,
            _row_major(local, shape) * elem,
        ))
    return sorted(out)


def expand_cells(striping, runs):
    elem = striping.element_size
    cells = []
    for s in runs:
        for offset, length, buf in s.rows():
            for k in range(0, length, elem):
                cells.append((buf + k, s.brick_id, offset + k))
    return sorted(cells)


@st.composite
def striping_and_region(draw):
    striping = draw(st.one_of(multidim_files(), array_files()))
    return striping, draw(regions(striping.array_shape))


@given(striping_and_region())
@settings(max_examples=300, deadline=None)
def test_runs_expand_to_the_per_cell_oracle(case):
    striping, region = case
    runs = striping.slices_for_region(region)
    assert expand_cells(striping, runs) == cell_oracle(striping, region)
    sizes = striping.brick_sizes()
    for s in runs:
        assert s.end <= sizes[s.brick_id]
        # contiguous-on-both-sides runs are folded to one row
        if s.count > 1:
            assert not (s.stride == s.length and s.buffer_stride == s.length)
    # at most one run per touched brick and index above the last two dims
    outer = math.prod(region.shape[:-2]) if striping.rank > 2 else 1
    assert len(runs) <= outer * len({s.brick_id for s in runs})


def test_strip_region_is_one_run_per_tile():
    """A (*, BLOCK) strip of 64x64 tiles: one run per touched tile."""
    md = MultidimStriping((1024, 1024), 8, (64, 64))
    runs = md.slices_for_region(Region.of((0, 1024), (128, 256)))
    assert len(runs) == 32
    for s in runs:
        assert (s.offset, s.count, s.length, s.stride) == (0, 64, 512, 512)
        assert s.buffer_stride == 128 * 8
    ar = ArrayStriping((1024, 1024), 8, "(*, BLOCK)", 8)
    (run,) = ar.slices_for_region(ar.chunk_of(1))
    assert (run.brick_id, run.offset, run.count, run.nbytes) == (1, 0, 1, 1024 * 128 * 8)


# ---------------------------------------------------------------------------
# the data path against a NumPy model
# ---------------------------------------------------------------------------

@st.composite
def io_cases(draw):
    striping = draw(st.one_of(multidim_files(), array_files()))
    ops = draw(st.lists(
        st.tuples(st.booleans(), regions(striping.array_shape)),
        min_size=1, max_size=12,
    ))
    cache_factor = draw(st.sampled_from([1, 4, 8, 24]))
    return striping, ops, cache_factor, draw(st.integers(0, 2**32 - 1))


def _hint(striping):
    if isinstance(striping, MultidimStriping):
        return Hint.multidim(
            striping.array_shape, striping.element_size, striping.brick_shape,
            replicas=2,
        )
    return Hint.array(
        striping.array_shape, striping.element_size, striping.pattern_string(),
        striping.nprocs, striping.pgrid, replicas=2,
    )


@given(io_cases())
@settings(max_examples=100, deadline=None)
def test_region_io_matches_numpy_model(case):
    striping, ops, cache_factor, seed = case
    rng = np.random.default_rng(seed)
    elem = striping.element_size
    # the cache admits bricks up to a quarter of its capacity: at factor
    # 1 the biggest bricks bypass it (exact runs), at 4+ all are admitted
    # and small factors evict
    fs = DPFS.memory(3, cache_bytes=cache_factor * max(striping.brick_sizes()))
    shape = striping.array_shape
    model = rng.integers(0, 256, (*shape, elem), dtype=np.uint8)
    with fs.open("/a", "w", hint=_hint(striping)) as fh:
        fh.write_region((0,) * len(shape), shape, model.tobytes())
    with fs.open("/a", "r+") as fh:
        for is_write, region in ops:
            box = tuple(slice(a, b) for a, b in zip(region.starts, region.stops))
            if is_write:
                data = rng.integers(0, 256, (*region.shape, elem), dtype=np.uint8)
                fh.write_region(region.starts, region.shape, data.tobytes())
                model[box] = data
            else:
                got = fh.read_region(region.starts, region.shape)
                assert got == model[box].tobytes()
    whole = (0,) * len(shape)
    with fs.open("/a", "r") as fh:
        # first through whatever the cache holds, then from storage alone
        assert fh.read_region(whole, shape) == model.tobytes()
        fs.cache.clear()
        assert fh.read_region(whole, shape) == model.tobytes()
    fs.close()


def test_strided_write_patches_cached_tile():
    fs = DPFS.memory(3, cache_bytes=1 << 20)
    values = np.arange(64, dtype=np.float64).reshape(8, 8)
    with fs.open("/a", "w", hint=Hint.multidim((8, 8), 8, (4, 4))) as fh:
        fh.write_array((0, 0), values)
    with fs.open("/a", "r+") as fh:
        fh.read_array((0, 0), (8, 8), np.float64)  # caches all four tiles
        # a 2x2 patch inside tile 0: one run of two rows 32 bytes apart
        fh.write_array((1, 1), np.ones((2, 2)))
        values[1:3, 1:3] = 1
        assert fs.cache.stats.patched_writes == 1
        assert np.array_equal(fh.read_array((0, 0), (8, 8), np.float64), values)


# ---------------------------------------------------------------------------
# full-brick runs: CRC from the gathered bytes, verified on read
# ---------------------------------------------------------------------------

TILE = 64


def _tiled_file(replicas):
    fs = DPFS.memory(4)
    values = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
    hint = Hint.multidim((128, 128), 8, (TILE, TILE), replicas=replicas)
    with fs.open("/m", "w", hint=hint) as fh:
        fh.write_array((0, 0), values)
    return fs, values


def _corrupt_primary(fs, brick_id):
    _record, bmap = fs.meta.load_file("/m")
    loc = bmap.location(brick_id)
    fs.backend.write_extents(
        loc.server, "/m", [(loc.local_offset, loc.size)], b"\xde" * loc.size
    )
    return loc


def test_full_tile_write_reads_nothing_back():
    fs, values = _tiled_file(replicas=1)
    reads = []
    backend_read = fs.backend.read_extents

    def counting_read(*args):
        reads.append(args)
        return backend_read(*args)

    fs.backend.read_extents = counting_read
    with fs.open("/m", "r+") as fh:
        # tile 1 (rows 0-63, cols 64-127) in full, inside a wider strip:
        # one strided run, not contiguous in the payload
        fh.write_array((0, 64), values[:64, 64:] + 1)
    assert reads == []
    with fs.open("/m") as fh:
        assert np.array_equal(fh.read_array((0, 64), (64, 64), np.float64),
                              values[:64, 64:] + 1)


def test_region_read_covering_corrupt_tile_raises_without_replicas():
    fs, _values = _tiled_file(replicas=1)
    _corrupt_primary(fs, 1)
    with fs.open("/m") as fh:
        with pytest.raises(ChecksumError):
            # covers tile 1 in full, as a run strided in the payload
            fh.read_region((0, 40), (100, 88))


def test_region_read_covering_corrupt_tile_fails_over_and_repairs():
    fs, values = _tiled_file(replicas=2)
    loc = _corrupt_primary(fs, 1)
    failovers = fs.metrics.counter("dpfs_read_failovers_total")
    before = failovers.by_label("reason").get("checksum", 0)
    with fs.open("/m") as fh:
        got = fh.read_array((0, 40), (100, 88), np.float64)
    assert np.array_equal(got, values[:100, 40:])
    assert failovers.by_label("reason")["checksum"] == before + 1
    assert fs.metrics.counter("dpfs_repairs_total").total() == 1
    # read-repair rewrote the primary copy with the tile's bytes
    stored = fs.backend.read_extents(loc.server, "/m", [(loc.local_offset, loc.size)])
    assert bytes(stored) == np.ascontiguousarray(values[:64, 64:]).tobytes()
    assert ("/m", 1, loc.server) not in fs.quarantine
