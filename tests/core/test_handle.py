"""File handle tests: byte/datatype/region APIs, stats, lifecycle."""

import numpy as np
import pytest

from repro.core import DPFS, Hint
from repro.datatypes import FLOAT64, Contiguous, Subarray, Vector
from repro.errors import BadFileHandle, FileSystemError, StripingError


@pytest.fixture
def md_file(fs, small_array):
    hint = Hint.multidim((64, 64), 8, (16, 16))
    with fs.open("/field", "w", hint=hint) as handle:
        handle.write_array((0, 0), small_array)
    return fs


def test_closed_handle_rejected(fs):
    fs.write_file("/f", b"abc")
    handle = fs.open("/f", "r")
    handle.close()
    assert handle.closed
    with pytest.raises(BadFileHandle):
        handle.read(0, 1)
    handle.close()  # idempotent


def test_context_manager_closes(fs):
    fs.write_file("/f", b"abc")
    with fs.open("/f", "r") as handle:
        assert not handle.closed
    assert handle.closed


def test_read_clamps_at_eof(fs):
    fs.write_file("/f", b"abcdef")
    with fs.open("/f", "r") as handle:
        assert handle.read(4, 100) == b"ef"
        assert handle.read(100, 10) == b""
        assert handle.read(0, 0) == b""


def test_negative_read_rejected(fs):
    fs.write_file("/f", b"abc")
    with fs.open("/f", "r") as handle:
        with pytest.raises(FileSystemError):
            handle.read(-1, 2)
        with pytest.raises(FileSystemError):
            handle.read(0, -2)


def test_read_extents_concatenates_in_order(fs):
    fs.write_file("/f", bytes(range(20)))
    with fs.open("/f", "r") as handle:
        got = handle.read_extents([(10, 3), (0, 2)])
    assert got == bytes([10, 11, 12, 0, 1])


# -- derived datatypes ---------------------------------------------------------

def test_write_read_type_vector(fs):
    hint = Hint.linear(file_size=64, brick_size=16)
    dtype = Vector(4, 2, 4)  # bytes {0,1}, {4,5}, {8,9}, {12,13}
    payload = bytes(range(8))
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_type(dtype, payload)
    with fs.open("/f", "r") as handle:
        assert handle.read_type(dtype) == payload
    raw = fs.read_file("/f")
    assert raw[0:2] == bytes([0, 1])
    assert raw[4:6] == bytes([2, 3])
    assert raw[2:4] == b"\x00\x00"  # holes untouched


def test_write_type_grows_linear_file(fs):
    with fs.open("/f", "w", hint=Hint.linear(brick_size=8)) as handle:
        handle.write_type(Contiguous(4), b"tail", offset=100)
    assert fs.stat("/f")["size"] == 104


def test_write_type_size_mismatch_rejected(fs):
    with fs.open("/f", "w", hint=Hint.linear()) as handle:
        with pytest.raises(FileSystemError):
            handle.write_type(Contiguous(4), b"toolong!")


def test_subarray_type_against_multidim_file(md_file, small_array):
    """A Subarray filetype over the flattened file equals a region read."""
    t = Subarray((64, 64), (8, 8), (16, 24), FLOAT64)
    with md_file.open("/field", "r") as handle:
        via_type = handle.read_type(t)
        via_region = handle.read_region((16, 24), (8, 8))
    assert via_type == via_region == small_array[16:24, 24:32].tobytes()


# -- regions / arrays ------------------------------------------------------------

def test_region_read_write_roundtrip(md_file, small_array):
    with md_file.open("/field", "r+") as handle:
        block = np.full((4, 4), 7.5)
        handle.write_array((10, 10), block)
        got = handle.read_array((10, 10), (4, 4), np.float64)
    assert np.array_equal(got, block)


def test_region_on_linear_file_rejected(fs):
    fs.write_file("/f", b"x" * 64)
    with fs.open("/f", "r") as handle:
        with pytest.raises(StripingError):
            handle.read_region((0,), (8,))


def test_region_payload_size_checked(md_file):
    with md_file.open("/field", "r+") as handle:
        with pytest.raises(FileSystemError):
            handle.write_region((0, 0), (2, 2), b"short")


def test_array_dtype_size_checked(md_file):
    with md_file.open("/field", "r") as handle:
        with pytest.raises(FileSystemError):
            handle.read_array((0, 0), (2, 2), np.float32)


def test_write_array_casts_layout(md_file, small_array):
    with md_file.open("/field", "r+") as handle:
        handle.write_array((0, 0), small_array[::-1])  # non-contiguous view
        got = handle.read_array((0, 0), (64, 64), np.float64)
    assert np.array_equal(got, small_array[::-1])


# -- chunk API (array level) ----------------------------------------------------

def test_chunk_roundtrip_per_rank(fs):
    hint = Hint.array((16, 16), 8, "(BLOCK, *)", nprocs=4)
    data = np.random.default_rng(1).random((16, 16))
    with fs.open("/ckpt", "w", hint=hint) as handle:
        for rank in range(4):
            handle.write_chunk(data[rank * 4 : (rank + 1) * 4].tobytes(), rank=rank)
    for rank in range(4):
        with fs.open("/ckpt", "r", rank=rank) as handle:
            got = np.frombuffer(handle.read_chunk(), np.float64).reshape(4, 16)
            assert np.array_equal(got, data[rank * 4 : (rank + 1) * 4])
            # one chunk = one request (the §3.3 point)
            assert handle.stats.requests == 1


def test_chunk_on_non_array_file_rejected(md_file):
    with md_file.open("/field", "r") as handle:
        with pytest.raises(StripingError):
            handle.read_chunk()


# -- stats -----------------------------------------------------------------------

def test_stats_request_counts_combined_vs_not(md_file):
    with md_file.open("/field", "r", combine=True) as handle:
        handle.read_region((0, 0), (64, 16))  # brick column, 4 bricks
        combined = handle.stats.requests
    with md_file.open("/field", "r", combine=False) as handle:
        handle.read_region((0, 0), (64, 16))
        uncombined = handle.stats.requests
    assert combined < uncombined
    assert uncombined == 4  # one per touched brick


def test_stats_bytes_accounting(fs):
    fs.write_file("/f", b"x" * 100)
    with fs.open("/f", "r+") as handle:
        handle.read(0, 40)
        handle.write(0, b"y" * 10)
        assert handle.stats.bytes_read == 40
        assert handle.stats.bytes_written == 10
        assert handle.stats.bricks_touched >= 2


def test_stats_per_server_distribution(md_file):
    requests = md_file.metrics.get("dpfs_dispatch_requests_total")
    before = requests.by_label("server")
    with md_file.open("/field", "r", combine=False) as handle:
        handle.read_region((0, 0), (64, 64))
    per_server = {
        s: n - before.get(s, 0) for s, n in requests.by_label("server").items()
    }
    assert sum(per_server.values()) == handle.stats.requests
    assert len(per_server) == 4 and all(per_server.values())  # all servers took part
