"""The DPFS-SERVER ``used`` column: kept in step with the bricklists by
every mutation, checked and repaired by fsck, and filled in when a root
written before the column existed is reopened."""

import pytest

from repro.core import DPFS, Hint, fsck
from repro.errors import FileSystemError
from repro.metadb import Database

OLD_SERVER_TABLE = (
    "CREATE TABLE dpfs_server ("
    " server_id INTEGER PRIMARY KEY,"
    " server_name TEXT NOT NULL UNIQUE,"
    " capacity INTEGER NOT NULL,"
    " performance REAL NOT NULL)"
)


def _used(fs):
    return {row["server_id"]: row["used"] for row in fs.df()}


def _assert_used_matches_recount(fs):
    assert _used(fs) == fs.meta.recount_server_usage()


def _populate(fs):
    fs.makedirs("/d")
    fs.write_file("/d/a", b"a" * 5000, Hint.linear(file_size=5000, brick_size=1024))
    fs.write_file(
        "/d/r",
        b"r" * 3000,
        Hint.linear(file_size=3000, brick_size=1024, replicas=2),
    )
    fs.write_file("/m", bytes(32 * 32 * 8), Hint.multidim((32, 32), 8, (16, 16)))


def test_used_follows_create_grow_rename_remove():
    fs = DPFS.memory(4)
    _populate(fs)
    assert sum(_used(fs).values()) > 0
    _assert_used_matches_recount(fs)

    # grow a replicated linear file past its last brick
    with fs.open("/d/r", "r+") as handle:
        handle.write(3000, b"g" * 4000)
    _assert_used_matches_recount(fs)

    before = _used(fs)
    fs.rename("/d/a", "/d/b")
    assert _used(fs) == before

    for path in ("/d/b", "/d/r", "/m"):
        fs.remove(path)
        _assert_used_matches_recount(fs)
    assert set(_used(fs).values()) == {0}


def test_distribution_rows_only_for_servers_holding_bricks():
    fs = DPFS.memory(4)
    fs.write_file("/one", b"x" * 100, Hint.linear(file_size=100, brick_size=4096))
    rows = fs.db.execute(
        "SELECT server_name FROM dpfs_file_distribution WHERE filename = '/one'"
    ).rows
    assert len(rows) == 1
    _record, bmap = fs.meta.load_file("/one")
    assert sorted(len(bl) for bl in bmap.to_lists()) == [0, 0, 0, 1]
    # growing onto the other servers adds their rows
    with fs.open("/one", "r+") as handle:
        handle.write(100, b"y" * (4 * 4096))
    rows = fs.db.execute(
        "SELECT server_name FROM dpfs_file_distribution WHERE filename = '/one'"
    ).rows
    assert len(rows) == 4
    assert fs.read_file("/one") == b"x" * 100 + b"y" * (4 * 4096)
    _assert_used_matches_recount(fs)


def test_fsck_reports_and_repairs_bad_usage():
    fs = DPFS.memory(4)
    _populate(fs)
    assert fsck(fs).clean
    fs.db.execute("UPDATE dpfs_server SET used = 7 WHERE server_id = 2")
    report = fsck(fs)
    (finding,) = report.findings
    assert finding.kind == "bad-usage" and not finding.repaired
    assert "server 2 records 7 bytes" in finding.detail
    # metadata-only passes skip the recount
    assert fsck(fs, deep=False).clean

    repaired = fsck(fs, repair=True)
    assert [f.kind for f in repaired.findings] == ["bad-usage"]
    assert repaired.findings[0].repaired
    assert fsck(fs).clean
    _assert_used_matches_recount(fs)


@pytest.mark.parametrize("n_servers", [2, 4])
def test_root_without_used_column_reopens(tmp_path, n_servers):
    root = tmp_path / "root"
    fs = DPFS.local(root, n_servers)
    _populate(fs)
    want = fs.meta.recount_server_usage()
    fs.close()

    # rewrite dpfs_server in the shape it had before ``used`` existed
    db = Database(root / "dpfs.meta")
    rows = db.execute(
        "SELECT server_id, server_name, capacity, performance FROM dpfs_server"
    ).rows
    db.execute("DROP TABLE dpfs_server")
    db.execute(OLD_SERVER_TABLE)
    for row in rows:
        db.execute(
            "INSERT INTO dpfs_server VALUES (?, ?, ?, ?)",
            [row["server_id"], row["server_name"], row["capacity"],
             row["performance"]],
        )
    db.close()

    fs = DPFS.local(root, n_servers)
    assert "used" in fs.db.column_names("dpfs_server")
    assert _used(fs) == want
    assert sum(want.values()) > 0
    assert fsck(fs).clean
    fs.write_file("/new", b"n" * 2000)
    _assert_used_matches_recount(fs)
    fs.close()

    # the migration is durable: a second reopen replays it from the WAL
    fs = DPFS.local(root, n_servers)
    _assert_used_matches_recount(fs)
    assert fsck(fs).clean
    fs.close()


@pytest.mark.parametrize("replicas", [1, 2])
def test_growth_past_capacity_is_refused_and_changes_nothing(replicas):
    """Growing a linear file charges its new bricks to ``used`` only if
    every server has room; a refused growth leaves the metadata, the
    intent journal and the open handle as they were."""
    fs = DPFS.memory(2, capacity=8192)
    size = 4096
    data = bytes(range(256)) * (size // 256)
    hint = Hint.linear(file_size=size, brick_size=1024, replicas=replicas)
    fs.write_file("/f", data, hint)
    used = _used(fs)
    with fs.open("/f", "r+") as h:
        before = (
            h.record.size,
            h.brick_map.to_lists(),
            h.replica_map.to_lists() if h.replica_map is not None else None,
            list(h.record.brick_crcs),
            h.striping.file_size,
        )
        with pytest.raises(FileSystemError, match="lacks capacity"):
            h.write(size + 64 * 1024, b"x" * 1024)
        after = (
            h.record.size,
            h.brick_map.to_lists(),
            h.replica_map.to_lists() if h.replica_map is not None else None,
            list(h.record.brick_crcs),
            h.striping.file_size,
        )
        assert after == before
        assert h.read(0, size) == data
        # a growth that fits still works on the same handle
        h.write(size, b"y" * 512)
    assert sum(_used(fs).values()) == sum(used.values()) + 1024 * replicas
    assert fs.stat("/f")["size"] == size + 512
    assert fs.read_file("/f") == data + b"y" * 512
    assert all(row["used"] <= row["capacity"] for row in fs.df())
    _assert_used_matches_recount(fs)
    assert fs.intents.pending() == []
    assert fsck(fs).clean
