"""Unit tests for the three striping methods."""

import pytest

from repro.core import ArrayStriping, FileLevel, LinearStriping, MultidimStriping
from repro.errors import StripingError
from repro.hpf import Region


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_brick_count_and_sizes():
    lin = LinearStriping(brick_size=100, file_size=250)
    assert lin.brick_count == 3
    assert lin.brick_sizes() == [100, 100, 100]
    assert lin.total_bytes() == 250
    assert lin.level is FileLevel.LINEAR


def test_linear_empty_file():
    lin = LinearStriping(100, 0)
    assert lin.brick_count == 0
    assert lin.slices_for_extents([]) == []


def test_linear_single_brick_slice():
    lin = LinearStriping(100, 1000)
    slices = lin.slices_for_extents([(150, 30)])
    assert len(slices) == 1
    s = slices[0]
    assert (s.brick_id, s.offset, s.length, s.buffer_offset) == (1, 50, 30, 0)


def test_linear_extent_spanning_bricks():
    lin = LinearStriping(100, 1000)
    slices = lin.slices_for_extents([(80, 150)])
    assert [(s.brick_id, s.offset, s.length) for s in slices] == [
        (0, 80, 20),
        (1, 0, 100),
        (2, 0, 30),
    ]
    assert [s.buffer_offset for s in slices] == [0, 20, 120]


def test_linear_multiple_extents_payload_order():
    lin = LinearStriping(10, 100)
    slices = lin.slices_for_extents([(95, 5), (0, 5)])
    assert [(s.brick_id, s.buffer_offset) for s in slices] == [(9, 0), (0, 5)]


def test_linear_adjacent_slices_merged():
    lin = LinearStriping(10, 100)
    # two abutting extents in one brick collapse to one slice
    slices = lin.slices_for_extents([(0, 4), (4, 4)])
    assert len(slices) == 1 and slices[0].length == 8


def test_linear_beyond_eof_rejected():
    lin = LinearStriping(10, 100)
    with pytest.raises(StripingError):
        lin.slices_for_extents([(95, 10)])


def test_linear_grow():
    lin = LinearStriping(10, 25)
    assert lin.grow_to(25) == 0
    assert lin.grow_to(31) == 1
    assert lin.brick_count == 4
    with pytest.raises(StripingError):
        lin.grow_to(10)


def test_linear_validation():
    with pytest.raises(StripingError):
        LinearStriping(0, 10)
    with pytest.raises(StripingError):
        LinearStriping(10, -1)


# ---------------------------------------------------------------------------
# multidimensional
# ---------------------------------------------------------------------------

def test_multidim_grid_and_sizes():
    md = MultidimStriping((8, 8), 2, (2, 2))
    assert md.grid == (4, 4)
    assert md.brick_count == 16
    assert md.brick_sizes() == [8] * 16
    assert md.total_bytes() == 128


def test_multidim_uneven_grid_padded():
    md = MultidimStriping((5, 7), 1, (2, 3))
    assert md.grid == (3, 3)
    # all bricks occupy the full tile volume on storage (padding)
    assert md.brick_sizes() == [6] * 9
    # but the edge brick's region is clipped
    assert md.brick_region(8) == Region.of((4, 5), (6, 7))


def test_multidim_brick_region_row_major():
    md = MultidimStriping((8, 8), 1, (2, 2))
    assert md.brick_region(0) == Region.of((0, 2), (0, 2))
    assert md.brick_region(1) == Region.of((0, 2), (2, 4))
    assert md.brick_region(4) == Region.of((2, 4), (0, 2))


def test_multidim_full_brick_region_single_slice():
    md = MultidimStriping((8, 8), 1, (2, 2))
    slices = md.slices_for_region(md.brick_region(5))
    assert len(slices) == 1
    assert slices[0].brick_id == 5
    assert slices[0].offset == 0 and slices[0].length == 4


def test_multidim_column_region_touches_one_brick_per_tile_row():
    md = MultidimStriping((8, 8), 1, (2, 2))
    slices = md.slices_for_region(Region.of((0, 8), (0, 1)))
    bricks = sorted({s.brick_id for s in slices})
    assert bricks == [0, 4, 8, 12]
    # half of each touched brick is read (1 of 2 columns)
    assert sum(s.nbytes for s in slices) == 8


def test_multidim_row_region_crosses_brick_columns():
    md = MultidimStriping((8, 8), 1, (2, 2))
    slices = md.slices_for_region(Region.of((3, 4), (0, 8)))
    bricks = sorted({s.brick_id for s in slices})
    assert bricks == [4, 5, 6, 7]


def test_multidim_payload_is_region_row_major():
    md = MultidimStriping((4, 4), 1, (2, 2))
    region = Region.of((1, 3), (1, 3))
    slices = md.slices_for_region(region)
    # the rows tile the packed payload in order, without gap or overlap
    expected = 0
    for buf, ln in sorted((b, ln) for s in slices for _o, ln, b in s.rows()):
        assert buf == expected
        expected += ln
    assert expected == region.volume


def test_multidim_region_outside_rejected():
    md = MultidimStriping((4, 4), 1, (2, 2))
    with pytest.raises(StripingError):
        md.slices_for_region(Region.of((0, 5), (0, 1)))
    with pytest.raises(StripingError):
        md.slices_for_region(Region.of((0, 1)))  # rank mismatch


def test_multidim_flattened_extent_access():
    md = MultidimStriping((4, 4), 2, (2, 2))
    # whole file flattened covers every brick exactly once in volume
    slices = md.slices_for_extents([(0, 32)])
    assert sum(s.nbytes for s in slices) == 32
    # element-misaligned access rejected
    with pytest.raises(StripingError):
        md.slices_for_extents([(1, 2)])


def test_multidim_3d():
    md = MultidimStriping((4, 4, 4), 1, (2, 2, 2))
    assert md.grid == (2, 2, 2)
    slices = md.slices_for_region(Region((0, 0, 0), (4, 4, 1)))
    assert sorted({s.brick_id for s in slices}) == [0, 2, 4, 6]


def test_multidim_validation():
    with pytest.raises(StripingError):
        MultidimStriping((4,), 1, (5,))  # brick larger than array
    with pytest.raises(StripingError):
        MultidimStriping((4, 4), 0, (2, 2))
    with pytest.raises(StripingError):
        MultidimStriping((4, 4), 1, (2,))


# ---------------------------------------------------------------------------
# array level
# ---------------------------------------------------------------------------

def test_array_one_brick_per_processor():
    ar = ArrayStriping((8, 8), 1, "(BLOCK, BLOCK)", 4)
    assert ar.brick_count == 4
    assert ar.brick_sizes() == [16, 16, 16, 16]
    assert ar.level is FileLevel.ARRAY


def test_array_chunk_is_single_slice():
    ar = ArrayStriping((8, 8), 1, "(BLOCK, *)", 4)
    for rank in range(4):
        slices = ar.slices_for_region(ar.chunk_of(rank))
        assert len(slices) == 1
        assert slices[0].brick_id == rank
        assert slices[0].offset == 0
        assert (slices[0].length, slices[0].count) == (16, 1)


def test_array_cross_chunk_region():
    ar = ArrayStriping((8, 8), 1, "(BLOCK, *)", 4)
    slices = ar.slices_for_region(Region.of((1, 3), (0, 8)))
    assert sorted({s.brick_id for s in slices}) == [0, 1]


def test_array_column_region_within_block_block():
    ar = ArrayStriping((8, 8), 1, "(BLOCK, BLOCK)", 4)
    slices = ar.slices_for_region(Region.of((0, 8), (3, 5)))
    # crosses the column boundary at 4: all four chunks touched
    assert sorted({s.brick_id for s in slices}) == [0, 1, 2, 3]


def test_array_uneven_chunks_sized_by_volume():
    ar = ArrayStriping((10, 4), 2, "(BLOCK, *)", 3)
    # HPF block rule: rows 4, 4, 2
    assert ar.brick_sizes() == [32, 32, 16]


def test_array_empty_chunk_gets_placeholder():
    ar = ArrayStriping((2, 4), 1, "(BLOCK, *)", 4)
    sizes = ar.brick_sizes()
    assert sizes[2] == 1 and sizes[3] == 1  # placeholders


def test_array_rejects_cyclic():
    with pytest.raises(StripingError):
        ArrayStriping((8, 8), 1, "(CYCLIC, *)", 4)


def test_array_flattened_extent_access():
    ar = ArrayStriping((4, 4), 1, "(BLOCK, BLOCK)", 4)
    slices = ar.slices_for_extents([(0, 16)])
    assert sum(s.nbytes for s in slices) == 16
    # row 0 alternates between chunk 0 (cols 0-1) and chunk 1 (cols 2-3)
    first_two = slices[:2]
    assert [s.brick_id for s in first_two] == [0, 1]


def test_array_chunk_of_bad_rank():
    ar = ArrayStriping((4, 4), 1, "(BLOCK, *)", 2)
    with pytest.raises(StripingError):
        ar.chunk_of(2)
