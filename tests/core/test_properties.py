"""Property-based tests for striping, placement and the full read/write
path — the paper's core invariants under random geometry."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DPFS,
    ArrayStriping,
    Greedy,
    Hint,
    LinearStriping,
    MultidimStriping,
    RoundRobin,
    build_brick_map,
    plan_requests,
)
from repro.hpf import Region


# ---------------------------------------------------------------------------
# striping invariants
# ---------------------------------------------------------------------------

@st.composite
def md_cases(draw):
    rows = draw(st.integers(1, 32))
    cols = draw(st.integers(1, 32))
    brows = draw(st.integers(1, rows))
    bcols = draw(st.integers(1, cols))
    elem = draw(st.sampled_from([1, 2, 4, 8]))
    md = MultidimStriping((rows, cols), elem, (brows, bcols))
    r0 = draw(st.integers(0, rows - 1))
    r1 = draw(st.integers(r0 + 1, rows))
    c0 = draw(st.integers(0, cols - 1))
    c1 = draw(st.integers(c0 + 1, cols))
    return md, Region.of((r0, r1), (c0, c1))


@given(md_cases())
@settings(max_examples=200, deadline=None)
def test_multidim_slices_cover_region_exactly(case):
    md, region = case
    slices = md.slices_for_region(region)
    rows = sorted(
        (buf, off, ln, s.brick_id) for s in slices for off, ln, buf in s.rows()
    )
    # payload covers the region exactly, in order, without overlap
    assert sum(ln for _b, _o, ln, _i in rows) == region.volume * md.element_size
    expected = 0
    for buf, _off, ln, _brick in rows:
        assert buf == expected
        expected += ln
    # every row stays inside its brick
    brick_bytes = math.prod(md.brick_shape) * md.element_size
    for _buf, off, ln, brick in rows:
        assert 0 <= off and off + ln <= brick_bytes
        assert 0 <= brick < md.brick_count


@given(md_cases())
@settings(max_examples=100, deadline=None)
def test_multidim_touched_bricks_match_geometry(case):
    md, region = case
    slices = md.slices_for_region(region)
    touched = {s.brick_id for s in slices}
    expected = {
        b
        for b in range(md.brick_count)
        if md.brick_region(b).intersect(region) is not None
    }
    assert touched == expected


@given(
    st.integers(1, 64),         # brick size
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 64)),
        min_size=0,
        max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_linear_slices_cover_extents_exactly(brick_size, raw_extents):
    lin = LinearStriping(brick_size, 600)
    extents = [(o, ln) for o, ln in raw_extents if o + ln <= 600]
    slices = lin.slices_for_extents(extents)
    assert sum(s.length for s in slices) == sum(ln for _o, ln in extents)
    for s in slices:
        assert s.offset + s.length <= brick_size
        # slice maps back to the right file position
        file_pos = s.brick_id * brick_size + s.offset
        assert 0 <= file_pos < 600


@st.composite
def array_cases(draw):
    rows = draw(st.integers(2, 24))
    cols = draw(st.integers(2, 24))
    pattern = draw(st.sampled_from(["(BLOCK, *)", "(*, BLOCK)", "(BLOCK, BLOCK)"]))
    if pattern == "(BLOCK, BLOCK)":
        nprocs = draw(st.sampled_from([1, 2, 4]))
    else:
        nprocs = draw(st.integers(1, 6))
    return ArrayStriping((rows, cols), 1, pattern, nprocs)


@given(array_cases())
@settings(max_examples=150, deadline=None)
def test_array_chunks_partition_and_slice_exactly(ar):
    # chunks tile the array
    assert sum(c.volume for c in ar.chunks) == math.prod(ar.array_shape)
    # a full-array region covers every non-empty chunk completely
    slices = ar.slices_for_region(Region.full(ar.array_shape))
    per_brick: dict[int, int] = {}
    for s in slices:
        per_brick[s.brick_id] = per_brick.get(s.brick_id, 0) + s.nbytes
    for rank, chunk in enumerate(ar.chunks):
        if not chunk.empty:
            assert per_brick.get(rank, 0) == chunk.volume


# ---------------------------------------------------------------------------
# placement invariants
# ---------------------------------------------------------------------------

@given(
    st.lists(st.floats(0.5, 10.0), min_size=1, max_size=8),
    st.integers(0, 300),
)
@settings(max_examples=150, deadline=None)
def test_greedy_assignment_complete_and_balanced(perf, n_bricks):
    greedy = Greedy(perf)
    assign = greedy.assign(n_bricks)
    assert len(assign) == n_bricks
    assert all(0 <= s < len(perf) for s in assign)
    # accumulated finish times within one max brick-time of each other
    if n_bricks >= len(perf):
        acc = [assign.count(k) * perf[k] for k in range(len(perf))]
        assert max(acc) - min(acc) <= max(perf) + 1e-9


@given(st.integers(1, 8), st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_round_robin_counts_even(n_servers, n_bricks):
    assign = RoundRobin(n_servers).assign(n_bricks)
    counts = [assign.count(s) for s in range(n_servers)]
    assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# combination invariants
# ---------------------------------------------------------------------------

@given(
    st.integers(1, 6),                      # servers
    st.integers(1, 40),                     # bricks
    st.integers(0, 7),                      # rank
    st.booleans(),                          # combine
)
@settings(max_examples=150, deadline=None)
def test_plan_preserves_payload_bytes(n_servers, n_bricks, rank, combine):
    lin = LinearStriping(10, n_bricks * 10)
    bmap = build_brick_map(RoundRobin(n_servers), lin.brick_sizes())
    slices = lin.slices_for_extents([(0, n_bricks * 10)])
    plan = plan_requests(slices, bmap, combine=combine, rank=rank)
    # same bytes, mapped to valid subfile ranges
    assert sum(r.payload_bytes for r in plan) == n_bricks * 10
    for req in plan:
        assert 0 <= req.server < n_servers
        subfile = bmap.subfile_size(req.server)
        for off, ln in req.extents:
            assert 0 <= off and off + ln <= subfile
    if combine:
        servers = [r.server for r in plan]
        assert len(servers) == len(set(servers))  # one request per server


# ---------------------------------------------------------------------------
# end-to-end read/write oracle
# ---------------------------------------------------------------------------

@given(
    st.sampled_from(["linear", "multidim", "array"]),
    st.integers(1, 5),   # servers
    st.data(),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_parallel_dispatch_matches_sequential(level, n_servers, data):
    """For any file level, brick geometry and nprocs, reading through the
    8-way dispatch pool returns byte-identical data to the sequential
    (workers=1) path over arbitrary extents."""
    seq = DPFS.memory(n_servers, io_workers=1)
    par = DPFS.memory(n_servers, io_workers=8)
    try:
        if level == "linear":
            size = data.draw(st.integers(1, 4096))
            brick = data.draw(st.integers(1, 512))
            hint = Hint.linear(file_size=size, brick_size=brick)
            payload = data.draw(st.binary(min_size=size, max_size=size))
            for fs in (seq, par):
                fs.write_file("/f", payload, hint=hint)
            for _ in range(4):
                off = data.draw(st.integers(0, size - 1))
                ln = data.draw(st.integers(1, size - off))
                combine = data.draw(st.booleans())
                with seq.open("/f", "r", combine=combine) as hs:
                    want = hs.read(off, ln)
                with par.open("/f", "r", combine=combine) as hp:
                    assert hp.read(off, ln) == want
        else:
            rows = data.draw(st.integers(2, 16))
            cols = data.draw(st.integers(2, 16))
            if level == "multidim":
                brows = data.draw(st.integers(1, rows))
                bcols = data.draw(st.integers(1, cols))
                hint = Hint.multidim((rows, cols), 8, (brows, bcols))
            else:
                pattern = data.draw(
                    st.sampled_from(["(BLOCK, *)", "(*, BLOCK)", "(BLOCK, BLOCK)"])
                )
                nprocs = (
                    data.draw(st.sampled_from([1, 2, 4]))
                    if pattern == "(BLOCK, BLOCK)"
                    else data.draw(st.integers(1, 6))
                )
                hint = Hint.array((rows, cols), 8, pattern, nprocs)
            arr = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
            for fs in (seq, par):
                with fs.open("/f", "w", hint=hint) as handle:
                    handle.write_array((0, 0), arr)
            for _ in range(4):
                r0 = data.draw(st.integers(0, rows - 1))
                r1 = data.draw(st.integers(r0 + 1, rows))
                c0 = data.draw(st.integers(0, cols - 1))
                c1 = data.draw(st.integers(c0 + 1, cols))
                rank = data.draw(st.integers(0, 3))
                with seq.open("/f", "r", rank=rank) as hs:
                    want = hs.read_array((r0, c0), (r1 - r0, c1 - c0), np.float64)
                with par.open("/f", "r", rank=rank) as hp:
                    got = hp.read_array((r0, c0), (r1 - r0, c1 - c0), np.float64)
                assert np.array_equal(got, want)
    finally:
        seq.close()
        par.close()


@given(
    st.integers(1, 16),  # brick rows
    st.integers(1, 16),  # brick cols
    st.integers(2, 5),   # servers
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_filesystem_matches_numpy_oracle(brows, bcols, n_servers, data):
    """Random region writes then reads agree with an in-memory ndarray."""
    shape = (16, 16)
    brows = min(brows, shape[0])
    bcols = min(bcols, shape[1])
    fs = DPFS.memory(n_servers)
    hint = Hint.multidim(shape, 8, (brows, bcols))
    oracle = np.zeros(shape)
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), oracle)
    for _ in range(4):
        r0 = data.draw(st.integers(0, shape[0] - 1))
        r1 = data.draw(st.integers(r0 + 1, shape[0]))
        c0 = data.draw(st.integers(0, shape[1] - 1))
        c1 = data.draw(st.integers(c0 + 1, shape[1]))
        value = float(data.draw(st.integers(1, 100)))
        block = np.full((r1 - r0, c1 - c0), value)
        oracle[r0:r1, c0:c1] = block
        rank = data.draw(st.integers(0, 3))
        combine = data.draw(st.booleans())
        with fs.open("/f", "r+", rank=rank, combine=combine) as handle:
            handle.write_array((r0, c0), block)
    with fs.open("/f", "r") as handle:
        got = handle.read_array((0, 0), shape, np.float64)
    assert np.array_equal(got, oracle)
