"""SQLite-backed persistent store of simulation runs.

One row per content-addressed run (see
:mod:`repro.store.fingerprint`): spec dict, headline summary, and the
full trace payload as a zlib-compressed binary block (JSON metadata
header + packed ``float64`` arrays).  Each row names its payload codec:

* ``zlib-f64-v2`` (written today): a little-endian ``uint32`` header
  length, a JSON header ``{"meta", "n", "layout"}``, then one ``<f8``
  block.  The block holds the shared time axis (``n`` samples) once,
  then per ``layout`` entry ``{name, n, own_times}`` the trace's own
  times (only when ``own_times``: its times differ from the axis as
  float64 bytes) followed by its values.  Deflated at zlib level 1
  (:data:`_ZLIB_LEVEL`); decoded with one ``frombuffer`` over the block.
* ``zlib-f64-v1`` (read only): the same header without ``n``, and every
  trace's times followed by its values.  Existing stores and merged
  shards keep their v1 rows, so one store may mix both codecs.

The zlib stream's adler32 is the payload checksum.  A row that fails to
decode — a bad checksum, a truncated stream, a header that does not
match its block — is never replayed: :meth:`RunStore.get` deletes it,
counts ``store.corrupt_rows`` and reports a miss, so the run is
recomputed and rewritten.

The stdlib ``sqlite3`` is the whole persistence stack — no external
services, one file on disk, safe for concurrent access:

* the database runs in WAL mode with an explicit ``busy_timeout``
  (:data:`BUSY_TIMEOUT_MS`), so readers never block the (single)
  writer and multiple processes can share one store file; writes that
  still lose the lock race retry a bounded number of times
  (:data:`WRITE_RETRIES`) with exponential backoff before surfacing a
  :class:`StoreContentionError` that names the store and the attempt
  count — callers never see a raw ``sqlite3.OperationalError:
  database is locked``;
* connections are opened lazily and re-opened after a ``fork`` (the
  owning pid is tracked), so a store object that leaks into a
  ``ProcessPoolExecutor`` worker does not share a connection with the
  parent — though the cache-aware batch path in
  :mod:`repro.simulation.batch` deliberately touches the store from the
  parent process only;
* payload floats round-trip exactly (``float64`` in, ``float64``
  out), so a cache hit is bit-identical to recomputing the run.

The default store location is ``$REPRO_CACHE_DIR/runstore.sqlite`` when
that variable is set, else ``$XDG_CACHE_HOME/repro/runstore.sqlite``,
else ``~/.cache/repro/runstore.sqlite``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import ReproError
from repro.simulation.io import result_to_dict
from repro.simulation.results import SimulationResult
from repro.types import DetectionEvent, TimeSeries

__all__ = [
    "RunStore",
    "StoreStats",
    "ShardStats",
    "StoreContentionError",
    "default_store_path",
    "BUSY_TIMEOUT_MS",
    "WRITE_RETRIES",
]

#: Column order of the ``runs`` table — the raw-row contract shared by
#: :meth:`RunStore.iter_rows` / :meth:`RunStore.put_row` and the
#: shard ``merge`` / ``export`` machinery in :mod:`repro.store.sharded`.
ROW_COLUMNS = (
    "fingerprint",
    "schema_version",
    "name",
    "attack_enabled",
    "defended",
    "sensor_seed",
    "horizon",
    "spec_json",
    "summary_json",
    "payload",
    "payload_codec",
    "payload_bytes",
    "created_at",
)

PathLike = Union[str, Path]

#: SQLite busy handler timeout applied to every connection.  A writer
#: holding the WAL lock makes competing writers *wait* this long
#: before failing with ``database is locked`` instead of failing
#: immediately.
BUSY_TIMEOUT_MS = 30_000

#: Bounded retry attempts for a write that still loses the lock race
#: after the busy timeout (e.g. many processes hammering one shard).
WRITE_RETRIES = 5

#: Base of the exponential backoff between write retries (seconds);
#: attempt ``k`` sleeps ``WRITE_RETRY_BACKOFF_S * 2**k``.
WRITE_RETRY_BACKOFF_S = 0.05


class StoreContentionError(ReproError):
    """A store write kept losing the SQLite lock race.

    Raised only after :data:`WRITE_RETRIES` bounded retries on top of
    the :data:`BUSY_TIMEOUT_MS` busy handler — seeing this means the
    store is genuinely oversubscribed (consider sharding it; see
    :mod:`repro.store.sharded`), not that a writer got unlucky once.
    """


def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    """Whether an ``OperationalError`` is the lock/busy race (retryable)."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message

#: Identifier of the payload encoding written by :meth:`RunStore.put`;
#: stored per row, so rows written by an older codec stay readable (see
#: the module docstring for both layouts).
_PAYLOAD_CODEC = "zlib-f64-v2"

#: The previous codec, still decoded for existing stores and merged
#: shards.
_PAYLOAD_CODEC_V1 = "zlib-f64-v1"

#: zlib level of new payloads: level 1 deflates the float block about
#: as well as level 6 at a fraction of the time.
_ZLIB_LEVEL = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    fingerprint     TEXT PRIMARY KEY,
    schema_version  INTEGER NOT NULL,
    name            TEXT NOT NULL,
    attack_enabled  INTEGER NOT NULL,
    defended        INTEGER NOT NULL,
    sensor_seed     INTEGER,
    horizon         REAL,
    spec_json       TEXT NOT NULL,
    summary_json    TEXT NOT NULL,
    payload         BLOB NOT NULL,
    payload_codec   TEXT NOT NULL,
    payload_bytes   INTEGER NOT NULL,
    created_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_name ON runs (name);
"""


def default_store_path() -> Path:
    """Resolve the default on-disk location of the run store."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser() / "runstore.sqlite"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "runstore.sqlite"


def _encode_payload(result: SimulationResult) -> bytes:
    """Pack a result in the ``zlib-f64-v2`` layout."""
    meta = result_to_dict(result)
    del meta["traces"]
    series = list(result.traces.items())
    axis = next((ts.times for _, ts in series if ts.times), [])
    axis_bytes = np.asarray(axis, dtype="<f8").tobytes()
    layout = []
    chunks = [axis_bytes]
    for name, ts in series:
        if len(ts.times) != len(ts.values):
            raise ValueError(
                f"trace {name!r} has {len(ts.times)} times but "
                f"{len(ts.values)} values"
            )
        # Compared as float64 bytes, not with list equality, which
        # takes a -0.0 time for 0.0.
        times = np.asarray(ts.times, dtype="<f8").tobytes()
        own_times = times != axis_bytes
        layout.append({"name": name, "n": len(ts.times), "own_times": own_times})
        if own_times:
            chunks.append(times)
        chunks.append(np.asarray(ts.values, dtype="<f8").tobytes())
    header = json.dumps(
        {"meta": meta, "n": len(axis), "layout": layout}, separators=(",", ":")
    ).encode("utf-8")
    blob = b"".join([struct.pack("<I", len(header)), header, *chunks])
    return zlib.compress(blob, _ZLIB_LEVEL)


def _decode_payload(blob: bytes, codec: str) -> SimulationResult:
    """Unpack a payload written by either codec.

    Raises (``zlib.error``, ``ValueError``, ``KeyError``, ...) on any
    payload that does not decode; :meth:`RunStore.get` turns that into
    a miss.
    """
    if codec not in (_PAYLOAD_CODEC, _PAYLOAD_CODEC_V1):
        raise ValueError(f"unknown run-store payload codec {codec!r}")
    raw = zlib.decompress(blob)
    (header_len,) = struct.unpack_from("<I", raw, 0)
    header = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
    block = np.frombuffer(raw, dtype="<f8", offset=4 + header_len)
    # v1 is v2 without a shared axis: every trace stores its own times.
    v1 = codec == _PAYLOAD_CODEC_V1
    n_axis = 0 if v1 else header["n"]
    axis = block[:n_axis].tolist()
    traces = {}
    offset = n_axis
    for entry in header["layout"]:
        name, n = entry["name"], entry["n"]
        if v1 or entry["own_times"]:
            times = block[offset : offset + n].tolist()
            offset += n
        elif n == n_axis:
            times = list(axis)
        else:
            raise ValueError(f"trace {name!r} shares an axis of another length")
        traces[name] = TimeSeries(
            name, times=times, values=block[offset : offset + n].tolist()
        )
        offset += n
    if offset != block.size:
        raise ValueError(f"payload holds {block.size} floats, layout {offset}")
    meta = header["meta"]
    return SimulationResult(
        name=meta["name"],
        traces=traces,
        detection_events=[
            DetectionEvent(
                time=float(e["time"]),
                attack_detected=bool(e["attack_detected"]),
                receiver_output=float(e["receiver_output"]),
            )
            for e in meta["detection_events"]
        ],
        collision_time=meta["collision_time"],
        attack_name=meta["attack_name"],
        defended=meta["defended"],
        defense_stats=meta.get("defense_stats"),
    )


@dataclass(frozen=True)
class ShardStats:
    """Per-shard slice of a :class:`StoreStats` snapshot."""

    shard: str
    entries: int
    payload_bytes: int
    db_bytes: int

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "entries": self.entries,
            "payload_bytes": self.payload_bytes,
            "db_bytes": self.db_bytes,
        }


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's contents (``repro cache stats``).

    ``shards`` is empty for a single-file :class:`RunStore` and holds
    one :class:`ShardStats` per shard for a
    :class:`~repro.store.sharded.ShardedRunStore` — every consumer of
    :meth:`as_dict` (the CLI's ``cache stats --json``, the service's
    ``GET /v1/store/stats``) gets the per-shard breakdown through this
    one shared path.
    """

    path: str
    entries: int
    payload_bytes: int
    db_bytes: int
    by_scenario: Tuple[Tuple[str, int], ...]
    shards: Tuple[ShardStats, ...] = ()

    @property
    def shard_count(self) -> int:
        """Number of physical database files (1 for a plain store)."""
        return len(self.shards) or 1

    def as_dict(self) -> dict:
        """JSON-compatible form of the snapshot.

        The single serialization shared by ``repro cache stats --json``
        and the service's ``GET /v1/store/stats`` endpoint — one code
        path, so the two surfaces can never drift apart.
        """
        payload = {
            "path": self.path,
            "entries": self.entries,
            "payload_bytes": self.payload_bytes,
            "db_bytes": self.db_bytes,
            "by_scenario": {name: count for name, count in self.by_scenario},
            "shard_count": self.shard_count,
        }
        if self.shards:
            payload["shards"] = [shard.as_dict() for shard in self.shards]
        return payload

    def as_rows(self) -> List[dict]:
        """Rows for :func:`repro.analysis.tables.render_table`."""
        rows = [
            {
                "scope": "total",
                "runs": self.entries,
                "payload_kb": round(self.payload_bytes / 1024.0, 1),
                "db_kb": round(self.db_bytes / 1024.0, 1),
            }
        ]
        for shard in self.shards:
            rows.append(
                {
                    "scope": shard.shard,
                    "runs": shard.entries,
                    "payload_kb": round(shard.payload_bytes / 1024.0, 1),
                    "db_kb": round(shard.db_bytes / 1024.0, 1),
                }
            )
        for name, count in self.by_scenario:
            rows.append(
                {"scope": name, "runs": count, "payload_kb": None, "db_kb": None}
            )
        return rows


class RunStore:
    """Content-addressed persistent cache of simulation runs.

    Keys are the SHA-256 fingerprints of
    :func:`repro.store.fingerprint.run_fingerprint`; values are full
    :class:`~repro.simulation.results.SimulationResult` payloads plus
    queryable metadata (scenario name, seed, horizon, headline summary).

    The store is a context manager; ``close()`` is otherwise optional
    (connections are also released when the object is collected).
    """

    #: Whether cache-aware batch execution may let pool workers write
    #: to this store directly.  A single WAL file serializes its
    #: writers, so batch keeps all writes in the parent process; the
    #: sharded store (:mod:`repro.store.sharded`) overrides this.
    concurrent_writers = False

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self._path = Path(path) if path is not None else default_store_path()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None

    # -- connection management -----------------------------------------

    @property
    def path(self) -> Path:
        """Location of the database file."""
        return self._path

    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        if self._conn is not None:
            # Inherited across a fork: drop the parent's handle without
            # closing it (closing would roll back the parent's journal).
            self._conn = None
        self._path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self._path), timeout=BUSY_TIMEOUT_MS / 1000.0)
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        conn.commit()
        self._conn = conn
        self._pid = os.getpid()
        return conn

    def close(self) -> None:
        """Release the database connection (if any)."""
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- core API ------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        result: SimulationResult,
        *,
        spec_dict: Optional[dict] = None,
        attack_enabled: bool = True,
        defended: bool = True,
        sensor_seed: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> bool:
        """Insert one run under its fingerprint.

        Content-addressing makes the row immutable: a fingerprint that
        is already present is left untouched (``ON CONFLICT DO
        NOTHING``), so a ``readwrite`` cache hit causes zero WAL churn
        and the entry keeps its original ``created_at``.  Returns
        whether a new row was written.
        """
        from repro.store.fingerprint import STORE_SCHEMA_VERSION

        payload = _encode_payload(result)
        summary = json.dumps(result.summary().as_dict())
        written = self._insert_row(
            (
                fingerprint,
                STORE_SCHEMA_VERSION,
                result.name,
                int(bool(attack_enabled)),
                int(bool(defended)),
                sensor_seed,
                horizon,
                json.dumps(spec_dict) if spec_dict is not None else "{}",
                summary,
                payload,
                _PAYLOAD_CODEC,
                len(payload),
                time.time(),
            )
        )
        tele = _telemetry.current()
        if tele is not None:
            if written:
                tele.incr("store.writes")
                tele.incr("store.write_bytes", len(payload))
            else:
                tele.incr("store.write_skips")
        return written

    def _insert_row(self, values: Tuple) -> bool:
        """Insert one raw row with bounded lock-race retries.

        The busy handler (:data:`BUSY_TIMEOUT_MS`) absorbs ordinary
        contention; the bounded retry loop on top covers the pathologic
        case where the handler itself times out under many concurrent
        writers.  After :data:`WRITE_RETRIES` failed attempts the
        write surfaces as :class:`StoreContentionError` rather than a
        raw ``sqlite3.OperationalError``.
        """
        sql = (
            f"INSERT INTO runs ({', '.join(ROW_COLUMNS)}) "
            f"VALUES ({', '.join('?' for _ in ROW_COLUMNS)}) "
            "ON CONFLICT(fingerprint) DO NOTHING"
        )
        for attempt in range(WRITE_RETRIES):
            try:
                conn = self._connect()
                with conn:
                    cursor = conn.execute(sql, values)
                return cursor.rowcount > 0
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc):
                    raise
                _telemetry.incr("store.write_retries")
                if attempt == WRITE_RETRIES - 1:
                    raise StoreContentionError(
                        f"store {self._path} stayed locked through "
                        f"{WRITE_RETRIES} write attempts "
                        f"(busy_timeout {BUSY_TIMEOUT_MS} ms each): {exc}"
                    ) from exc
                time.sleep(WRITE_RETRY_BACKOFF_S * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """Fetch the run stored under ``fingerprint`` (``None`` on miss).

        A store file that does not exist yet is an unconditional miss
        and is *not* created by reads.  A row whose payload does not
        decode (the zlib stream's adler32 is its checksum) is a miss
        too: the row is deleted and counted as ``store.corrupt_rows``,
        so the caller recomputes the run and writes a good row.
        """
        tele = _telemetry.current()
        if not self._path.exists():
            if tele is not None:
                tele.incr("store.misses")
            return None
        row = self._connect().execute(
            "SELECT payload, payload_codec FROM runs WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        result = None
        if row is not None:
            try:
                result = _decode_payload(row[0], row[1])
            except Exception:  # the payload is untrusted bytes
                self._drop_corrupt_row(fingerprint)
        if result is None:
            if tele is not None:
                tele.incr("store.misses")
            return None
        if tele is not None:
            tele.incr("store.hits")
            tele.incr("store.hit_bytes", len(row[0]))
        return result

    def _drop_corrupt_row(self, fingerprint: str) -> None:
        """Delete a row that failed to decode.

        A store that cannot be written (locked, read-only file) keeps
        the row; every later read of it is still a miss.
        """
        _telemetry.incr("store.corrupt_rows")
        try:
            self.evict([fingerprint])
        except sqlite3.Error:
            pass

    def __contains__(self, fingerprint: str) -> bool:
        if not self._path.exists():
            return False
        row = self._connect().execute(
            "SELECT 1 FROM runs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        if not self._path.exists():
            return 0
        (count,) = self._connect().execute(
            "SELECT COUNT(*) FROM runs"
        ).fetchone()
        return int(count)

    def fingerprints(self) -> List[str]:
        """All stored fingerprints (insertion-order agnostic)."""
        if not self._path.exists():
            return []
        rows = self._connect().execute(
            "SELECT fingerprint FROM runs ORDER BY fingerprint"
        ).fetchall()
        return [row[0] for row in rows]

    # -- raw-row transfer (the merge/export substrate) -----------------

    def iter_rows(self) -> Iterable[Dict[str, Any]]:
        """Yield every stored row as a :data:`ROW_COLUMNS` dict.

        The payload blob travels opaque and untouched — no decode /
        re-encode round-trip — which is what makes ``merge`` between
        stores bit-preserving by construction.  Rows come out in
        fingerprint order.
        """
        if not self._path.exists():
            return
        cursor = self._connect().execute(
            f"SELECT {', '.join(ROW_COLUMNS)} FROM runs ORDER BY fingerprint"
        )
        for row in cursor:
            yield dict(zip(ROW_COLUMNS, row))

    def put_row(self, row: Dict[str, Any]) -> bool:
        """Insert one raw row (immutable semantics, like :meth:`put`).

        ``row`` is a :meth:`iter_rows`-shaped dict; the original
        ``created_at`` / codec / payload bytes are preserved verbatim.
        Returns whether a new row was written (an existing fingerprint
        is left untouched).
        """
        return self._insert_row(tuple(row[column] for column in ROW_COLUMNS))

    # -- maintenance ---------------------------------------------------

    def stats(self) -> StoreStats:
        """Entry/byte counts, without creating a missing store file."""
        if not self._path.exists():
            return StoreStats(
                path=str(self._path),
                entries=0,
                payload_bytes=0,
                db_bytes=0,
                by_scenario=(),
            )
        conn = self._connect()
        entries, payload_bytes = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(payload_bytes), 0) FROM runs"
        ).fetchone()
        by_name = conn.execute(
            "SELECT name, COUNT(*) FROM runs GROUP BY name ORDER BY name"
        ).fetchall()
        return StoreStats(
            path=str(self._path),
            entries=int(entries),
            payload_bytes=int(payload_bytes),
            db_bytes=self._path.stat().st_size,
            by_scenario=tuple((str(n), int(c)) for n, c in by_name),
        )

    def evict(
        self,
        fingerprints: Optional[Iterable[str]] = None,
        *,
        before: Optional[float] = None,
    ) -> int:
        """Delete selected entries; returns the number removed.

        ``fingerprints`` limits eviction to those keys; ``before``
        (a UNIX timestamp) evicts entries created earlier than it.
        With neither filter, everything is evicted.
        """
        if not self._path.exists():
            return 0
        clauses: List[str] = []
        params: List[object] = []
        if fingerprints is not None:
            keys = list(fingerprints)
            if not keys:
                return 0
            clauses.append(
                f"fingerprint IN ({','.join('?' for _ in keys)})"
            )
            params.extend(keys)
        if before is not None:
            clauses.append("created_at < ?")
            params.append(float(before))
        sql = "DELETE FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        conn = self._connect()
        with conn:
            removed = conn.execute(sql, params).rowcount
        return int(removed)

    def clear(self) -> int:
        """Evict every entry and compact the database file."""
        removed = self.evict()
        if self._path.exists():
            self._connect().execute("VACUUM")
        return removed

    def export(self, path: PathLike) -> Path:
        """Write the store's metadata + summaries (no payloads) as JSON.

        The export is a portable inventory — enough to audit what a
        cache contains and to re-run any entry from its spec dict.
        """
        entries = []
        if self._path.exists():
            rows = self._connect().execute(
                "SELECT fingerprint, schema_version, name, attack_enabled, "
                "defended, sensor_seed, horizon, spec_json, summary_json, "
                "payload_bytes, created_at FROM runs ORDER BY fingerprint"
            ).fetchall()
            for row in rows:
                entries.append(
                    {
                        "fingerprint": row[0],
                        "schema_version": row[1],
                        "name": row[2],
                        "attack_enabled": bool(row[3]),
                        "defended": bool(row[4]),
                        "sensor_seed": row[5],
                        "horizon": row[6],
                        "spec": json.loads(row[7]),
                        "summary": json.loads(row[8]),
                        "payload_bytes": row[9],
                        "created_at": row[10],
                    }
                )
        out = Path(path)
        out.write_text(
            json.dumps(
                {"store": str(self._path), "entries": entries}, indent=2
            )
        )
        return out

    def scenario_counts(self) -> Dict[str, int]:
        """Stored-run count per scenario name."""
        return dict(self.stats().by_scenario)
