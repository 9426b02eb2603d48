"""Secondary index tests: DDL, maintenance, planner use, durability."""

import pytest

from repro.errors import ConstraintError, SchemaError
from repro.metadb import Database


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE t (k TEXT PRIMARY KEY, grp TEXT, v INTEGER)")
    d.execute(
        "INSERT INTO t VALUES ('a','x',1), ('b','y',2), ('c','x',3), "
        "('d', NULL, 4)"
    )
    d.execute("CREATE INDEX t_by_grp ON t (grp)")
    return d


def test_index_lookup_matches_scan(db):
    by_index = db.execute("SELECT k FROM t WHERE grp = 'x' ORDER BY k").rows
    by_scan = db.execute(
        "SELECT k FROM t WHERE grp || '' = 'x' ORDER BY k"
    ).rows
    assert by_index == by_scan == [{"k": "a"}, {"k": "c"}]


def test_null_values_not_indexed(db):
    # WHERE grp = NULL matches nothing (SQL semantics)
    rows = db.execute("SELECT k FROM t WHERE grp = ?", [None]).rows
    assert rows == []


def test_index_maintained_on_insert_update_delete(db):
    db.execute("INSERT INTO t VALUES ('e', 'x', 5)")
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 3
    db.execute("UPDATE t SET grp = 'y' WHERE k = 'a'")
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'y'").scalar() == 2
    db.execute("DELETE FROM t WHERE grp = 'x'")
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 0


def test_duplicate_index_name_rejected(db):
    with pytest.raises(SchemaError):
        db.execute("CREATE INDEX t_by_grp ON t (v)")
    db.execute("CREATE INDEX IF NOT EXISTS t_by_grp ON t (v)")  # no-op


def test_index_on_unknown_column_rejected(db):
    with pytest.raises(SchemaError):
        db.execute("CREATE INDEX bad ON t (nosuch)")
    with pytest.raises(SchemaError):
        db.execute("CREATE INDEX bad ON missing_table (grp)")


def test_drop_index(db):
    db.execute("DROP INDEX t_by_grp")
    # queries still work (scan path)
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2
    with pytest.raises(SchemaError):
        db.execute("DROP INDEX t_by_grp")
    db.execute("DROP INDEX IF EXISTS t_by_grp")


def test_index_rollback(db):
    db.begin()
    db.execute("CREATE INDEX t_by_v ON t (v)")
    db.rollback()
    with pytest.raises(SchemaError):
        db.execute("DROP INDEX t_by_v")
    db.begin()
    db.execute("DROP INDEX t_by_grp")
    db.rollback()
    # restored: still answers correctly
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2


def test_index_survives_reopen(tmp_path):
    path = tmp_path / "meta.db"
    d = Database(path)
    d.execute("CREATE TABLE t (k TEXT PRIMARY KEY, grp TEXT)")
    d.execute("INSERT INTO t VALUES ('a', 'x')")
    d.execute("CREATE INDEX t_by_grp ON t (grp)")
    d.execute("INSERT INTO t VALUES ('b', 'x')")
    d.close()

    d2 = Database(path)
    table = d2.tables["t"]
    assert "t_by_grp" in table.secondary
    assert d2.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2
    d2.close()


def test_index_survives_checkpoint(tmp_path):
    path = tmp_path / "meta.db"
    d = Database(path)
    d.execute("CREATE TABLE t (k TEXT PRIMARY KEY, grp TEXT)")
    d.execute("CREATE INDEX t_by_grp ON t (grp)")
    d.checkpoint()
    d.execute("INSERT INTO t VALUES ('a', 'q')")
    d.close()
    d2 = Database(path)
    assert d2.execute("SELECT k FROM t WHERE grp = 'q'").rows == [{"k": "a"}]
    d2.close()


def test_metadata_layer_uses_distribution_index():
    """The DPFS metadata schema creates dist_by_filename automatically."""
    from repro.backends import MemoryBackend
    from repro.core.metadata import MetadataManager

    manager = MetadataManager(Database())
    manager.register_servers(MemoryBackend(2).servers)
    table = manager.db.tables["dpfs_file_distribution"]
    assert "dist_by_filename" in table.secondary


def test_rows_examined_counts_probe_hits_and_full_scans(db):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    db.bind_metrics(registry)
    counter = registry.get("dpfs_metadb_rows_examined_total")

    def examined(sql, params=()):
        before = counter.total()
        db.execute(sql, params)
        return counter.total() - before

    for i in range(1000):
        db.execute("INSERT INTO t VALUES (?, 'z', ?)", [f"k{i}", i])
    assert examined("SELECT v FROM t WHERE k = ?", ["k500"]) == 1
    assert examined("SELECT v FROM t WHERE k = 'nope'") == 0
    assert examined("SELECT v FROM t WHERE grp = 'x'") == 2
    assert examined("UPDATE t SET v = 0 WHERE k = 'a'") == 1
    assert examined("SELECT v FROM t WHERE v > 990") == 1004


def test_index_probe_never_sizes_the_index():
    """A probe used to test the unique index for truthiness, which
    summed every bucket — O(rows) per lookup.  Indexes have no size."""
    from repro.metadb.index import HashIndex, UniqueIndex

    assert not hasattr(HashIndex, "__len__")
    assert not hasattr(UniqueIndex, "__len__")


def test_unique_index_survives_key_swap_and_rollback(db):
    with pytest.raises(ConstraintError):
        db.execute("UPDATE t SET k = 'b' WHERE k = 'a'")
    db.begin()
    db.execute("UPDATE t SET k = 'z' WHERE k = 'a'")
    db.execute("DELETE FROM t WHERE k = 'b'")
    db.execute("INSERT INTO t VALUES ('a', 'q', 9)")
    db.rollback()
    rows = db.execute("SELECT k, v FROM t WHERE k = 'a'").rows
    assert rows == [{"k": "a", "v": 1}]
    assert db.execute("SELECT k FROM t WHERE k = 'z'").rows == []
    assert db.execute("SELECT v FROM t WHERE k = 'b'").rows == [{"v": 2}]


def test_column_names_answers_for_an_empty_table():
    d = Database()
    d.execute("CREATE TABLE e (a INTEGER PRIMARY KEY, b TEXT)")
    assert d.column_names("e") == ["a", "b"]
    with pytest.raises(SchemaError):
        d.column_names("ghost")


def test_hash_index_matches_a_set_model():
    """Buckets switch between a bare rowid and a set as rows come and
    go; lookups must always agree with a plain dict of sets."""
    import random

    from repro.metadb.index import HashIndex

    rng = random.Random(7)
    index, model = HashIndex("c"), {}
    for _ in range(2000):
        value, rowid = rng.choice("abc"), rng.randrange(6)
        if rng.random() < 0.5:
            index.add(value, rowid)
            model.setdefault(value, set()).add(rowid)
        else:
            index.remove(value, rowid)
            model.get(value, set()).discard(rowid)
        for v in "abc":
            assert index.lookup(v) == model.get(v, set())
