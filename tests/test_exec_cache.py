"""Tests for the disk-persistent memoization cache layer."""

import pickle
import sqlite3
from contextlib import closing

import pytest

from repro.exec import MemoCache, SweepRunner, default_cache
from repro.exec.cache import _default_caches
from repro.exec.db import code_namespace


def _sql(path, statement, params=()):
    """Run one statement on the cache's table; returns all rows."""
    with closing(sqlite3.connect(path / "memo.sqlite",
                                 isolation_level=None)) as db:
        return db.execute(statement, params).fetchall()


def _stored_bytes(path):
    return _sql(path, "SELECT IFNULL(SUM(length(value)), 0) FROM memo")[0][0]


def _corrupt(path, key, data=b"not a pickle"):
    _sql(path, "UPDATE memo SET value = ? WHERE key = ?", (data, key))


def square(x):
    return x * x


@pytest.fixture(autouse=True)
def clean_default_caches():
    saved = dict(_default_caches)
    _default_caches.clear()
    yield
    _default_caches.clear()
    _default_caches.update(saved)


# ---------------------------------------------------------------------------
# Disk layer
# ---------------------------------------------------------------------------
def test_entries_survive_across_cache_instances(tmp_path):
    first = MemoCache(path=tmp_path)
    first.put("a" * 64, {"cycles": 123})
    assert first.disk_entries() == 1

    second = MemoCache(path=tmp_path)      # fresh instance, same directory
    assert ("a" * 64) in second
    assert second.get("a" * 64) == {"cycles": 123}
    assert second.hits == 1 and second.misses == 0


def test_memory_only_cache_unchanged(tmp_path):
    cache = MemoCache()
    cache.put("k", 1)
    assert cache.get("k") == 1
    assert cache.disk_entries() == 0
    assert "disk_entries" not in cache.stats()
    assert "disk_entries" in MemoCache(path=tmp_path).stats()


@pytest.mark.parametrize("data", [
    b"not a pickle",
    pickle.dumps(list(range(100)))[:20],
    b"\x80\x09" + pickle.dumps(42)[2:],
], ids=["garbage", "truncated", "unsupported-protocol"])
def test_corrupt_disk_entry_is_a_miss(tmp_path, data):
    cache = MemoCache(path=tmp_path)
    key = "b" * 64
    cache.put(key, 42)
    _corrupt(tmp_path, key, data)

    fresh = MemoCache(path=tmp_path)
    assert key not in fresh
    assert fresh.get(key) is None
    assert fresh.misses == 1


def test_unpicklable_value_stays_memory_only(tmp_path):
    cache = MemoCache(path=tmp_path)
    cache.put("c" * 64, lambda: None)      # cannot pickle a lambda
    assert cache.disk_entries() == 0
    assert _sql(tmp_path, "SELECT COUNT(*) FROM memo") == [(0,)]
    assert cache.get("c" * 64) is not None # memory layer still serves it


def test_unusable_database_file_degrades_to_memory_only(tmp_path):
    (tmp_path / "memo.sqlite").write_bytes(b"not a database" * 100)
    with pytest.warns(UserWarning, match="caching in memory only"):
        cache = MemoCache(path=tmp_path)
    cache.put("a" * 64, 1)
    assert cache.get("a" * 64) == 1
    assert cache.disk_entries() == 0


def test_clear_removes_disk_entries_too(tmp_path):
    cache = MemoCache(path=tmp_path)
    for i in range(3):
        cache.put(f"{i}{'d' * 63}", i)
    assert cache.disk_entries() == 3
    cache.clear()
    assert len(cache) == 0
    assert cache.disk_entries() == 0
    assert MemoCache(path=tmp_path).get("0" + "d" * 63) is None


def test_clear_never_touches_foreign_files(tmp_path):
    # Pointing the cache at a shared directory must not make clear() delete
    # pickles the cache did not write.
    foreign = tmp_path / "my-results.pkl"
    foreign.write_bytes(pickle.dumps([1, 2, 3]))
    nested = tmp_path / "archive"
    nested.mkdir()
    (nested / "more.pkl").write_bytes(pickle.dumps("keep me"))

    cache = MemoCache(path=tmp_path)
    cache.put("a" * 64, "cache-entry")
    cache.clear()
    assert cache.disk_entries() == 0
    assert foreign.exists() and (nested / "more.pkl").exists()


def test_disk_write_is_atomic_no_partial_files(tmp_path):
    cache = MemoCache(path=tmp_path)
    cache.put("e" * 64, list(range(1000)))
    # One database file (plus its WAL companions), no per-entry files.
    names = {f.name for f in tmp_path.rglob("*")}
    assert "memo.sqlite" in names
    assert names <= {"memo.sqlite", "memo.sqlite-wal", "memo.sqlite-shm"}
    [(blob,)] = _sql(tmp_path, "SELECT value FROM memo WHERE key = ?",
                     ("e" * 64,))
    assert pickle.loads(blob) == list(range(1000))


def test_disk_entries_are_namespaced_by_code_version(tmp_path, monkeypatch):
    # A cache directory written by one code version must never serve a
    # different version's simulator (stale-results hazard).
    cache = MemoCache(path=tmp_path)
    cache.put("f" * 64, "old-code-result")
    assert _sql(tmp_path, "SELECT namespace FROM memo") == [
        (code_namespace(),)]

    monkeypatch.setattr("repro.__version__", "999.0.0")
    upgraded = MemoCache(path=tmp_path)
    assert ("f" * 64) not in upgraded
    assert upgraded.get("f" * 64) is None
    assert upgraded.disk_entries() == 0


# ---------------------------------------------------------------------------
# Runner integration: hits survive "process" boundaries
# ---------------------------------------------------------------------------
def test_runner_hits_survive_into_fresh_cache_instance(tmp_path):
    first = SweepRunner(jobs=1, cache=MemoCache(path=tmp_path))
    assert first.map(square, [3, 4]) == [9, 16]
    assert first.stats.points_executed == 2

    # A new runner with a brand-new cache object (as a new process would
    # build) sees the persisted results and executes nothing.
    second = SweepRunner(jobs=1, cache=MemoCache(path=tmp_path))
    assert second.map(square, [3, 4]) == [9, 16]
    assert second.stats.points_executed == 0
    assert second.stats.cache_hits == 2


# ---------------------------------------------------------------------------
# default_cache resolution
# ---------------------------------------------------------------------------
def test_default_cache_is_process_global_per_path(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert default_cache() is default_cache()
    assert default_cache().path is None
    a = default_cache(tmp_path / "a")
    assert a is default_cache(tmp_path / "a")
    assert a is not default_cache(tmp_path / "b")
    assert a is not default_cache()


def test_default_cache_honours_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    cache = default_cache()
    assert cache.path == tmp_path / "env"
    cache.put("f" * 64, "persisted")
    assert (tmp_path / "env").is_dir()


# ---------------------------------------------------------------------------
# Size cap / least-recently-used eviction
# ---------------------------------------------------------------------------
def _key(i):
    return f"{i:02d}" + "e" * 62


def test_max_bytes_validation():
    with pytest.raises(ValueError):
        MemoCache(max_bytes=0)


def test_eviction_prunes_oldest_entries_past_the_cap(tmp_path):
    cache = MemoCache(path=tmp_path, max_bytes=1)   # everything over budget
    cache.put(_key(0), b"x" * 256)
    cache.put(_key(1), b"y" * 256)
    # Each store triggers a prune; only the newest entry can remain.
    assert cache.disk_entries() <= 1
    assert cache.disk_evictions >= 1
    # In-memory layer is never pruned: both values still served.
    assert cache.get(_key(0)) == b"x" * 256
    assert cache.get(_key(1)) == b"y" * 256


def test_reads_refresh_lru_order(tmp_path):
    cache = MemoCache(path=tmp_path)
    for i in range(3):
        cache.put(_key(i), b"v" * 128)
    # Age all entries, then touch entry 0 by reading it from disk.
    for i in range(3):
        _sql(tmp_path, "UPDATE memo SET used = ? WHERE key = ?",
             (1 + i, _key(i)))
    fresh = MemoCache(path=tmp_path)                 # cold memory layer
    assert fresh.get(_key(0)) == b"v" * 128          # refreshes `used`
    fresh.max_bytes = _stored_bytes(tmp_path) - 1    # force one eviction
    fresh.put(_key(3), b"v" * 128)
    survivors = {key for (key,) in _sql(tmp_path, "SELECT key FROM memo")}
    assert _key(0) in survivors                      # recently read: kept
    assert _key(1) not in survivors                  # least recent: evicted


def test_eviction_composes_with_corrupt_entries(tmp_path):
    cache = MemoCache(path=tmp_path, max_bytes=600)
    cache.put(_key(0), b"a" * 128)
    cache.put(_key(1), b"b" * 128)
    # Corrupt one entry on disk: reads degrade to misses...
    _corrupt(tmp_path, _key(0))
    fresh = MemoCache(path=tmp_path, max_bytes=600)
    assert fresh.get(_key(0), "miss") == "miss"
    # ...and the corrupt row still participates in (and yields to) pruning.
    for i in range(2, 8):
        fresh.put(_key(i), b"c" * 128)
    assert _stored_bytes(tmp_path) <= 600
    assert _key(0) not in {key for (key,) in
                           _sql(tmp_path, "SELECT key FROM memo")}
    assert fresh.get(_key(7)) == b"c" * 128
    assert fresh.disk_evictions > 0


def test_default_cache_reads_cap_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.25")
    cache = default_cache()
    assert cache.max_bytes == 256 * 1024
    # An explicit cap reconfigures the existing instance.
    assert default_cache(max_bytes=1024) is cache
    assert cache.max_bytes == 1024


def test_cap_is_enforced_on_hit_only_caches(tmp_path):
    grower = MemoCache(path=tmp_path)
    for i in range(6):
        grower.put(_key(i), b"z" * 512)
    oversized = _stored_bytes(tmp_path)
    # Opening the directory with a cap prunes immediately — a fully
    # memoized run (no stores) must still shrink an oversized store.
    capped = MemoCache(path=tmp_path, max_bytes=oversized // 2)
    assert capped.disk_evictions > 0
    assert _stored_bytes(tmp_path) <= oversized // 2
    # Reconfiguring the cap through default_cache() also prunes right away.
    cache = default_cache(tmp_path)
    for i in range(6, 12):
        cache.put(_key(i), b"z" * 512)
    total = _stored_bytes(tmp_path)
    default_cache(tmp_path, max_bytes=total // 2)
    assert _stored_bytes(tmp_path) <= total // 2
    with pytest.raises(ValueError):
        default_cache(tmp_path, max_bytes=0)


# ---------------------------------------------------------------------------
# Concurrent writers (the fleet-wide memo store scenario)
# ---------------------------------------------------------------------------
def _stress_key(worker, i):
    return f"{worker}{i:03d}" + "f" * 60


def _cache_stress_worker(args):
    """One fleet worker hammering a tiny, capped shared cache directory.

    Constant eviction pressure makes every process prune rows that every
    other process is reading and writing.  Returns an error string, or
    "ok".
    """
    path, worker, rounds = args
    from repro.exec.cache import MemoCache

    cache = MemoCache(path=path, max_bytes=2048)
    for i in range(rounds):
        key = _stress_key(worker, i)
        cache.put(key, key)                     # value embeds its own key
        for probe_worker in range(4):
            probe = _stress_key(probe_worker, i)
            value = cache.get(probe, None)
            if value is not None and value != probe:
                return f"corrupt read: {probe} -> {value!r}"
    if cache.disk_entries() == 0:       # the newest row always fits the cap
        return "disk layer unavailable"
    return "ok"


def test_threads_share_one_capped_disk_cache(tmp_path):
    import sys
    import threading

    writer = MemoCache(path=tmp_path)            # rows cold for `shared`
    for i in range(30):
        writer.put(_stress_key(9, i), _stress_key(9, i))
    # Every value pickles to the same size, and the cap falls one byte
    # short of all 150 rows: only the last store may prune, and only if
    # every store counted toward the size estimate.
    size = len(pickle.dumps(_stress_key(0, 0), pickle.HIGHEST_PROTOCOL))
    shared = MemoCache(path=tmp_path, max_bytes=150 * size - 1)
    errors = []

    def hammer(worker):
        try:
            for i in range(30):
                key = _stress_key(worker, i)
                shared.put(key, key)
                probe = _stress_key(9, i)
                if shared.get(probe, probe) != probe:    # a disk read
                    errors.append(f"corrupt read of {probe}")
        except Exception as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=hammer, args=(worker,))
               for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert shared.disk_evictions == 1
    assert _stored_bytes(tmp_path) == 149 * size


def test_concurrent_writers_race_safely(tmp_path):
    import concurrent.futures

    jobs = [(str(tmp_path), worker, 40) for worker in range(4)]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(_cache_stress_worker, jobs))
    except OSError:
        pytest.skip("sandbox does not allow worker processes")
    assert outcomes == ["ok"] * 4
    # Whatever survived the crossfire is intact and correctly keyed.
    survivor = MemoCache(path=tmp_path)
    survivors = [key for (key,) in _sql(tmp_path, "SELECT key FROM memo")]
    assert survivors
    for key in survivors:
        assert survivor.get(key) == key
