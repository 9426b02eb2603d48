"""Metadata work per create does not grow with the namespace.

``dpfs_metadb_rows_examined_total`` counts the rows every statement's
full scan or index probe visits; a create must visit no more of them
with 2,000 live files than with 100.
"""

from repro.core import DPFS, Hint

HINT = Hint.linear(file_size=512, brick_size=4096)


def _rows_examined(fs):
    return fs.metrics.get("dpfs_metadb_rows_examined_total").total()


def _create(fs, i):
    fs.open(f"/d{i % 4}/f{i}", "w", hint=HINT).close()


def _examined_by_one_create(fs, i):
    before = _rows_examined(fs)
    _create(fs, i)
    return _rows_examined(fs) - before


def test_rows_examined_per_create_is_flat_in_file_count():
    fs = DPFS.memory(4)
    for d in range(4):
        fs.mkdir(f"/d{d}")
    for i in range(99):
        _create(fs, i)
    at_100 = _examined_by_one_create(fs, 99)
    for i in range(100, 1999):
        _create(fs, i)
    at_2000 = _examined_by_one_create(fs, 1999)
    assert len(fs.meta.iter_files()) == 2000
    assert 0 < at_2000 <= at_100


def test_stat_remove_rename_do_not_scan_the_file_tables():
    fs = DPFS.memory(4)
    for i in range(200):
        fs.open(f"/f{i}", "w", hint=HINT).close()
    before = _rows_examined(fs)
    fs.stat("/f7")
    fs.remove("/f7")
    fs.rename("/f8", "/g8")
    # one scan of a 200-row file table would exceed this on its own
    assert _rows_examined(fs) - before < 50
