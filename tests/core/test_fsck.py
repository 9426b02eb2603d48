"""fsck tests: detection and repair of every inconsistency class."""

import pytest

from repro.core import DPFS, Hint, fsck


@pytest.fixture
def populated(fs):
    fs.makedirs("/home/user")
    fs.write_file("/home/user/a", b"x" * 1000)
    fs.write_file("/b", b"y" * 500)
    return fs


def test_clean_filesystem(populated):
    report = fsck(populated)
    assert report.clean
    assert report.files_checked == 2
    assert report.directories_checked >= 3
    assert "0 finding(s)" in str(report)


def test_missing_subfile_detected_and_repaired(populated):
    fs = populated
    fs.backend.delete_subfile(0, "/b")
    report = fsck(fs)
    assert [f.kind for f in report.findings] == ["missing-subfile"]
    assert not report.findings[0].repaired

    repaired = fsck(fs, repair=True)
    assert repaired.by_kind("missing-subfile")[0].repaired
    assert fsck(fs).clean
    # file readable again (lost bricks read as zeros — sparse semantics)
    data = fs.read_file("/b")
    assert len(data) == 500


def test_orphan_subfile_detected_and_repaired(populated):
    fs = populated
    fs.backend.create_subfile(1, "/ghost")
    report = fsck(fs)
    orphans = report.by_kind("orphan-subfile")
    assert len(orphans) == 1
    assert orphans[0].path == "/ghost"

    fsck(fs, repair=True)
    assert not fs.backend.subfile_exists(1, "/ghost")
    assert fsck(fs).clean


def test_dangling_dir_entry_detected_and_repaired(populated):
    fs = populated
    # corrupt: directory row lists a file whose attr row is gone
    fs.db.execute("DELETE FROM dpfs_file_attr WHERE filename = '/b'")
    report = fsck(fs)
    kinds = {f.kind for f in report.findings}
    assert "dangling-dir-entry" in kinds
    # the now-unreferenced subfiles also show up as orphans
    assert "orphan-subfile" in kinds

    fsck(fs, repair=True)
    assert fsck(fs).clean
    assert fs.listdir("/")[1] == []  # /b unlinked


def test_dir_entry_repair_keeps_listing_sorted(populated):
    fs = populated
    fs.write_file("/a", b"z" * 10)
    fs.write_file("/c", b"z" * 10)
    fs.db.execute(
        "UPDATE dpfs_directory SET files = ? WHERE main_dir = '/'",
        [["c", "b", "ghost", "a"]],
    )
    assert [f.path for f in fsck(fs).findings] == ["/ghost"]
    fsck(fs, repair=True)
    assert fsck(fs).clean
    assert fs.meta.listdir("/")[1] == ["a", "b", "c"]


def test_dangling_subdir_detected_and_repaired(populated):
    fs = populated
    fs.db.execute("DELETE FROM dpfs_directory WHERE main_dir = '/home/user'")
    report = fsck(fs)
    assert report.by_kind("dangling-dir-entry")
    fsck(fs, repair=True)
    final = fsck(fs)
    assert final.clean


def test_unlinked_file_detected_and_relinked(populated):
    fs = populated
    # corrupt: remove /b from the root directory listing only
    _subs, files = fs.meta.listdir("/")
    fs.db.execute(
        "UPDATE dpfs_directory SET files = ? WHERE main_dir = '/'",
        [[f for f in files if f != "b"]],
    )
    report = fsck(fs)
    unlinked = report.by_kind("unlinked-file")
    assert [f.path for f in unlinked] == ["/b"]

    fsck(fs, repair=True)
    assert fsck(fs).clean
    assert "b" in fs.listdir("/")[1]
    assert fs.read_file("/b") == b"y" * 500


def test_bad_brick_map_reported(populated):
    fs = populated
    # corrupt one distribution row's bricklist (duplicate brick id)
    row = fs.db.execute(
        "SELECT dist_id, bricklist FROM dpfs_file_distribution "
        "WHERE filename = '/b' ORDER BY dist_id LIMIT 1"
    ).rows[0]
    bricklist = list(row["bricklist"]) or [0]
    bricklist.append(bricklist[0])
    fs.db.execute(
        "UPDATE dpfs_file_distribution SET bricklist = ? WHERE dist_id = ?",
        [bricklist, row["dist_id"]],
    )
    report = fsck(fs)
    assert report.by_kind("bad-brick-map")


def test_fsck_shell_command(populated):
    from repro.shell import Shell

    shell = Shell(populated)
    out = shell.run_line("fsck")
    assert "0 finding(s)" in out
    populated.backend.create_subfile(0, "/stray")
    out = shell.run_line("fsck --repair")
    assert "orphan-subfile" in out and "FIXED" in out


def test_fsck_on_local_backend(tmp_path):
    fs = DPFS.local(tmp_path / "d", n_servers=2)
    fs.write_file("/f", b"content" * 100)
    assert fsck(fs).clean
    # orphan on disk
    (tmp_path / "d" / "server_0" / "stray").write_bytes(b"junk")
    report = fsck(fs)
    assert report.by_kind("orphan-subfile")
    fsck(fs, repair=True)
    assert fsck(fs).clean
    fs.close()


def test_fsck_over_tcp(tmp_path):
    from repro.net import DPFSServer, RemoteBackend

    with DPFSServer(tmp_path / "s0") as s0, DPFSServer(tmp_path / "s1") as s1:
        fs = DPFS(RemoteBackend([s0.address, s1.address]))
        fs.write_file("/f", b"data" * 50)
        assert fsck(fs).clean
        fs.backend.create_subfile(0, "/orphan")
        report = fsck(fs, repair=True)
        assert report.by_kind("orphan-subfile")[0].repaired
        assert fsck(fs).clean
        fs.close()
