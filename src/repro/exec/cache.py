"""Content-addressed memoization cache for experiment results.

Experiments are deterministic simulations: the same (function, inputs) pair
always produces the same result, so results can be reused freely.  The cache
is a mapping from :func:`repro.exec.keys.stable_key` digests to results with
two layers:

* an in-memory dict, shared process-wide by default so repeated points
  *across* figures (e.g. the same ``run_svm`` configuration appearing in
  Fig. 5 and Fig. 9) are evaluated once per process, and
* an optional on-disk layer (``path=``): every stored result is also
  pickled into one WAL-mode SQLite file, ``<path>/memo.sqlite``, that
  every process pointed at the directory shares; probes that miss in
  memory fall through to it, so hits survive across processes and CLI
  invocations.  It serves only the rows of
  :func:`~repro.exec.db.code_namespace`, the package version, which misses
  source edits made without a version bump and the code of externally
  registered models: after such an edit, ``clear()`` the cache or use a
  fresh directory.  The disk layer is best-effort: a database error or a
  row that does not unpickle is a miss, and a value that does not pickle
  stays in memory.

The CLI persists to ``.repro-cache/`` by default (``--cache-dir`` /
``REPRO_CACHE_DIR`` override); library callers opt in via
``MemoCache(path=...)`` or ``default_cache(path=...)``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .db import VALUE_SCHEMA, code_namespace, open_db, put_value

_MISSING = object()

#: Keep the most recently used rows, of every namespace, whose pickles fit
#: the cap; delete the rest.
_PRUNE = """DELETE FROM memo WHERE rowid IN (SELECT rowid FROM (
    SELECT rowid, SUM(length(value)) OVER (ORDER BY used DESC, rowid DESC)
    AS kept FROM memo) WHERE kept > ?)"""


class MemoCache:
    """Result store keyed by stable content hashes, optionally disk-backed.

    ``max_bytes`` caps the disk layer's stored pickles: once a store takes
    them past the cap, the least-recently-*used* rows (a read refreshes a
    row's ``used`` time) are deleted until the rest fit.  The in-memory
    layer is never pruned.  A lock guards the connection, so server threads
    may share one instance.
    """

    def __init__(self, path: Union[str, os.PathLike, None] = None,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for no cap)")
        self._data: Dict[str, Any] = {}
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.disk_evictions = 0
        #: Running estimate of the stored pickles' size; None until a capped
        #: prune measures it.  While it fits the cap a store costs no prune.
        self._disk_bytes: Optional[int] = None
        self._db = None
        if self.path is not None:
            self._namespace = code_namespace()
            self._lock = threading.Lock()
            try:
                self._db = open_db(self.path / "memo.sqlite", VALUE_SCHEMA)
            except OSError as exc:
                warnings.warn(f"memo cache {self.path} is unusable ({exc}); "
                              "caching in memory only", stacklevel=2)
            # A capped cache over an existing file enforces the cap up
            # front: hit-only runs must shrink an oversized store too.
            self._prune()

    # ------------------------------------------------------------ disk layer
    def _load_from_disk(self, key: str) -> Any:
        """The persisted value for ``key``, or ``_MISSING`` on any failure."""
        if self._db is None:
            return _MISSING
        with self._lock:
            try:
                row = self._db.execute(
                    "SELECT value FROM memo WHERE namespace = ? AND key = ?",
                    (self._namespace, key)).fetchone()
                if row is None:
                    return _MISSING
                value = pickle.loads(row[0])
                # LRU touch: a recently read row survives pruning.
                self._db.execute(
                    "UPDATE memo SET used = ? WHERE namespace = ? AND key = ?",
                    (time.time(), self._namespace, key))
            except Exception:       # a database or any unpickling error
                return _MISSING
        return value

    def _store_to_disk(self, key: str, value: Any) -> None:
        """Best-effort persist; unpicklable values stay memory-only."""
        if self._db is None:
            return
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            with self._lock:
                put_value(self._db, self._namespace, key, blob, time.time())
                if self._disk_bytes is not None:
                    # Overwrites double-count: that only prunes early.
                    self._disk_bytes += len(blob)
        except Exception:           # a database or any pickling error
            return
        self._prune()

    def _prune(self) -> None:
        """Delete least-recently-used rows until under ``max_bytes``, once
        the size estimate crosses it.  Concurrent pruners just find less."""
        if self._db is None or self.max_bytes is None:
            return
        if self._disk_bytes is not None and self._disk_bytes <= self.max_bytes:
            return
        import sqlite3
        with self._lock:
            try:
                self.disk_evictions += self._db.execute(
                    _PRUNE, (self.max_bytes,)).rowcount
                self._disk_bytes = self._db.execute(
                    "SELECT IFNULL(SUM(length(value)), 0) FROM memo"
                ).fetchone()[0]
            except sqlite3.Error:
                self._disk_bytes = None     # unknown: the next store retries

    def disk_entries(self) -> int:
        """Number of persisted results for this code version (0 if none)."""
        if self._db is None:
            return 0
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM memo WHERE namespace = ?",
                (self._namespace,)).fetchone()[0]

    # --------------------------------------------------------------- mapping
    def get(self, key: str, default: Any = None) -> Any:
        """Fetch a cached result, counting the probe as hit or miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            value = self._load_from_disk(key)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data[key] = value          # promote disk hits to memory
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value
        self._store_to_disk(key, value)

    def __contains__(self, key: str) -> bool:
        if key in self._data:
            return True
        value = self._load_from_disk(key)
        if value is _MISSING:
            return False
        self._data[key] = value          # contains == loadable; promote now
        return True

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry, in memory and on disk: the rows of every
        version namespace, and no file a shared directory holds."""
        self._data.clear()
        self._disk_bytes = None
        if self._db is not None:
            with self._lock:
                self._db.execute("DELETE FROM memo")

    def stats(self) -> Dict[str, int]:
        stats = {"entries": len(self._data),
                 "hits": self.hits, "misses": self.misses}
        if self.path is not None:
            stats["disk_entries"] = self.disk_entries()
            stats["disk_evictions"] = self.disk_evictions
        return stats


#: Process-wide caches (one per cache directory, plus one in-memory) used by
#: default for CLI runs and shared-across-figures reuse.  Library callers get
#: no cache unless they opt in.
_default_caches: Dict[Optional[str], MemoCache] = {}


def default_cache(path: Union[str, os.PathLike, None] = None,
                  max_bytes: Optional[int] = None) -> MemoCache:
    """The process-global cache (created lazily, one instance per path).

    With ``path=None`` the ``REPRO_CACHE_DIR`` environment variable decides:
    set, the cache persists there; unset, it is in-memory only.  With
    ``max_bytes=None`` the ``REPRO_CACHE_MAX_MB`` variable decides the disk
    size cap (unset: uncapped).  An explicit ``max_bytes`` (re)configures the
    cap on an already-created instance.
    """
    if path is None:
        path = os.environ.get("REPRO_CACHE_DIR") or None
    if max_bytes is None:
        env_mb = os.environ.get("REPRO_CACHE_MAX_MB")
        if env_mb:
            try:
                max_bytes = int(float(env_mb) * 1024 * 1024)
                if max_bytes <= 0:
                    raise ValueError(env_mb)
            except ValueError:
                # A typo'd (or non-positive) environment variable must not
                # kill every CLI run; warn and behave as if the cap were
                # unset.
                warnings.warn(f"ignoring invalid REPRO_CACHE_MAX_MB="
                              f"{env_mb!r} (expected a positive number of "
                              "megabytes)", stacklevel=2)
                max_bytes = None
    key = str(Path(path)) if path is not None else None
    if key not in _default_caches:
        _default_caches[key] = MemoCache(path=path, max_bytes=max_bytes)
    elif max_bytes is not None:
        if max_bytes <= 0:                  # same contract as MemoCache()
            raise ValueError("max_bytes must be positive (or None for no cap)")
        cache = _default_caches[key]
        cache.max_bytes = max_bytes
        cache._disk_bytes = None            # stale estimate: rescan and
        cache._prune()                      # enforce the new cap now
    return _default_caches[key]
