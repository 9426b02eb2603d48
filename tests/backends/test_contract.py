"""One subfile contract, checked on every storage backend.

The file system above the backend interface assumes the same behaviour
whether subfiles live in memory, in local directories, behind the
simulated clock or on a real TCP server; this is where that claim is
checked.
"""

import pytest

from repro.backends import LocalBackend, MemoryBackend, SimulatedBackend
from repro.errors import FileSystemError
from repro.net import DPFSServer, RemoteBackend
from repro.netsim import CLASS1


@pytest.fixture(params=["memory", "local", "simulated", "remote"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend(1)
    elif request.param == "local":
        yield LocalBackend(tmp_path, 1)
    elif request.param == "simulated":
        yield SimulatedBackend([CLASS1])
    else:
        with DPFSServer(tmp_path / "srv") as server:
            remote = RemoteBackend([server.address])
            yield remote
            remote.close()


def test_create_and_delete_are_idempotent(backend):
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, 3)], b"abc")
    backend.create_subfile(0, "/f")
    assert backend.read_extents(0, "/f", [(0, 3)]) == b"abc"
    backend.delete_subfile(0, "/f")
    backend.delete_subfile(0, "/f")
    assert not backend.subfile_exists(0, "/f")


def test_exists_and_list(backend):
    assert backend.list_subfiles(0) == []
    for name in ("/b", "/a/x", "/a/x//r"):
        backend.create_subfile(0, name)
    assert backend.subfile_exists(0, "/a/x")
    assert not backend.subfile_exists(0, "/a")
    assert backend.list_subfiles(0) == ["/a/x", "/a/x//r", "/b"]


def test_rename_moves_the_data(backend):
    backend.create_subfile(0, "/old")
    backend.write_extents(0, "/old", [(0, 4)], b"data")
    backend.rename_subfile(0, "/old", "/new")
    assert not backend.subfile_exists(0, "/old")
    assert backend.read_extents(0, "/new", [(0, 4)]) == b"data"


@pytest.mark.parametrize(
    "call",
    [
        lambda b: b.rename_subfile(0, "/ghost", "/elsewhere"),
        lambda b: b.subfile_size(0, "/ghost"),
        lambda b: b.read_extents(0, "/ghost", [(0, 1)]),
        lambda b: b.write_extents(0, "/ghost", [(0, 1)], b"x"),
    ],
    ids=["rename", "size", "read", "write"],
)
def test_missing_subfile_raises(backend, call):
    with pytest.raises(FileSystemError):
        call(backend)
    assert not backend.subfile_exists(0, "/elsewhere")


def test_read_past_eof_returns_zeros(backend):
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, 2)], b"hi")
    assert backend.read_extents(0, "/f", [(0, 5), (100, 2)]) == b"hi" + b"\x00" * 5


def test_write_extends_the_subfile(backend):
    backend.create_subfile(0, "/f")
    assert backend.subfile_size(0, "/f") == 0
    backend.write_extents(0, "/f", [(64, 4), (8, 2)], b"tailhd")
    assert backend.subfile_size(0, "/f") == 68
    assert backend.read_extents(0, "/f", [(8, 2), (64, 4)]) == b"hdtail"
    assert backend.read_extents(0, "/f", [(0, 8)]) == b"\x00" * 8


@pytest.mark.parametrize(
    "extents,data",
    [
        ([(0, 4), (-8, 4)], b"abcdefgh"),
        ([(0, 4), (8, -4)], b"abcd"),
        ([(0, 4), (8, 4)], b"abcdefghi"),
        ([(0, 4), (8, 4)], b"abc"),
    ],
    ids=["negative-offset", "negative-length", "long-payload", "short-payload"],
)
def test_bad_extent_list_leaves_subfile_unchanged(backend, extents, data):
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, 4)], b"keep")
    with pytest.raises(FileSystemError):
        backend.write_extents(0, "/f", extents, data)
    assert backend.subfile_size(0, "/f") == 4
    assert backend.read_extents(0, "/f", [(0, 4)]) == b"keep"


def test_bad_read_extent_rejected(backend):
    backend.create_subfile(0, "/f")
    with pytest.raises(FileSystemError):
        backend.read_extents(0, "/f", [(-1, 2)])
