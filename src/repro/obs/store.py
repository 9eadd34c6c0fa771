"""Sqlite-backed telemetry store: the simulator's flight recorder.

:class:`RunStore` replaces the ad-hoc JSON run caches and loose result
files as the *queryable* system of record for simulation runs.  One
store file holds:

* ``runs`` — one row per executed simulation: the alignment key
  (workload, design, chiplets, topology, qualifier), scale/mult/seed,
  a config hash, the git revision and host fingerprint that produced
  it, the owning sweep id and a status;
* ``counters`` — the run's scalar results (throughput, mpki, hop
  counts, cycle buckets, ...), one row per counter, flattened exactly
  the way ``repro diff`` flattens manifests so store-backed gating
  aligns with CSV/JSON manifests bit-for-bit;
* ``epochs`` — the :class:`repro.obs.MetricsRecorder` per-chiplet
  time-series (streamed in live through a
  :class:`repro.obs.bus.SqliteSink`);
* ``violations`` — structured :class:`repro.obs.AuditProbe` records;
* ``latency_digests`` — per-(stage, chiplet) translation-latency
  digests from the always-on :class:`repro.obs.digest.LatencyProbe`
  (serialized log buckets plus precomputed p50/p95/p99), the substrate
  for ``repro report`` percentiles, ``repro analyze`` and ``repro diff
  --tail``;
* ``bench`` — perf-guard snapshots imported from
  ``results/BENCH_engine.json``.

Concurrency: the store opens in WAL mode with a busy timeout, and every
write is one ``BEGIN IMMEDIATE`` transaction — N parallel
``ExperimentRunner`` worker processes can insert runs simultaneously
without losing rows (``tests/test_store.py`` proves it with a process
pool).  Schema changes bump :data:`SCHEMA_VERSION`; opening a store
written by a different version fails loudly with
:class:`StoreVersionError` instead of corrupting it.

Backward compatibility: :meth:`RunStore.import_json_cache` ingests the
PR-1 ``ExperimentRunner`` JSON caches and
:meth:`RunStore.import_bench_history` the ``BENCH_engine.json``
trajectory, so historical results join the queryable record.
"""

import json
import os
import sqlite3
import time

from repro.obs.metrics import FIELDS as METRIC_FIELDS

#: Bump on any table/column change; old stores must fail loudly unless
#: an in-place migration is listed in :data:`_MIGRATABLE_VERSIONS`.
SCHEMA_VERSION = 2

#: Prior schema versions the current build upgrades in place.  Version
#: 1 -> 2 only *added* the ``latency_digests`` table (created by the
#: IF-NOT-EXISTS schema pass), so migrating is just restamping ``meta``.
_MIGRATABLE_VERSIONS = ("1",)

#: Run statuses considered results (included in manifests/reports).
RESULT_STATUSES = ("done", "cached", "imported")

_EPOCH_COLUMNS = list(METRIC_FIELDS) + ["wall"]


class StoreError(RuntimeError):
    """Base class for run-store failures."""


class StoreVersionError(StoreError):
    """The store was written by an incompatible schema version."""


_SCHEMA = [
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS runs (
        id INTEGER PRIMARY KEY,
        workload TEXT NOT NULL,
        design TEXT NOT NULL,
        chiplets INTEGER,
        topology TEXT NOT NULL DEFAULT 'all-to-all',
        qualifier TEXT NOT NULL DEFAULT '',
        scale TEXT NOT NULL DEFAULT 'default',
        mult INTEGER NOT NULL DEFAULT 1,
        seed INTEGER NOT NULL DEFAULT 0,
        config_hash TEXT NOT NULL,
        git_rev TEXT,
        host TEXT,
        sweep_id TEXT,
        status TEXT NOT NULL DEFAULT 'done',
        created_at REAL NOT NULL
    )""",
    """CREATE INDEX IF NOT EXISTS runs_key
        ON runs (workload, design, scale)""",
    """CREATE TABLE IF NOT EXISTS counters (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        name TEXT NOT NULL,
        value REAL NOT NULL,
        PRIMARY KEY (run_id, name)
    )""",
    """CREATE TABLE IF NOT EXISTS epochs (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        t REAL, event TEXT, mode TEXT, chiplet INTEGER,
        incoming INTEGER, serviced INTEGER, hits INTEGER,
        hit_rate REAL, walk_queue_depth INTEGER,
        mshr_occupancy INTEGER, mshr_hwm INTEGER, mshr_mean REAL,
        route_hops INTEGER, wall REAL
    )""",
    """CREATE INDEX IF NOT EXISTS epochs_run ON epochs (run_id)""",
    """CREATE TABLE IF NOT EXISTS violations (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        kind TEXT NOT NULL,
        t REAL,
        message TEXT NOT NULL,
        detail TEXT
    )""",
    """CREATE TABLE IF NOT EXISTS latency_digests (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        stage TEXT NOT NULL,
        chiplet INTEGER,
        count INTEGER NOT NULL,
        zeros INTEGER NOT NULL DEFAULT 0,
        total REAL NOT NULL,
        vmin REAL, vmax REAL,
        p50 REAL, p95 REAL, p99 REAL,
        bins TEXT NOT NULL,
        PRIMARY KEY (run_id, stage, chiplet)
    )""",
    """CREATE INDEX IF NOT EXISTS latency_digests_run
        ON latency_digests (run_id)""",
    """CREATE TABLE IF NOT EXISTS bench (
        id INTEGER PRIMARY KEY,
        timestamp TEXT,
        git_rev TEXT,
        host TEXT,
        stale INTEGER NOT NULL DEFAULT 0,
        payload TEXT NOT NULL
    )""",
]


def config_hash(scale, workload, design, overrides, mult, seed):
    """Stable hash of one run configuration (the cache-key fields).

    Thin legacy wrapper: the hash is defined by
    :meth:`repro.core.spec.ExperimentSpec.config_hash` (sha1 of the
    canonical run-cache key), so rows written through either path carry
    identical hashes.
    """
    from repro.core.spec import ExperimentSpec

    return ExperimentSpec.from_overrides(
        workload, design, overrides=overrides,
        scale=scale, seed=seed, mult=mult,
    ).config_hash()


def _enable_wal(conn, timeout):
    """Switch ``conn`` to WAL, retrying while another opener holds the lock.

    Two processes opening one *fresh* store race in ``PRAGMA journal_mode
    = WAL``: the loser gets ``database is locked`` at once, without the
    busy timeout applying.  Only that statement is retried, with backoff
    from 1 ms doubling to at most 50 ms, until ``timeout`` seconds have
    passed; any other error, or the lock outlasting ``timeout``, raises.
    """
    deadline = time.monotonic() + timeout
    delay = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(delay)
        delay = min(2 * delay, 0.05)


class RunStore:
    """One sqlite telemetry store (see module docstring)."""

    def __init__(self, path, timeout=30.0):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # isolation_level=None: no implicit transactions — every write
        # below brackets itself with BEGIN IMMEDIATE so multi-statement
        # inserts are atomic and take the write lock up front (with the
        # busy timeout arbitrating between parallel workers).
        self._conn = sqlite3.connect(path, timeout=timeout)
        self._conn.isolation_level = None
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout = %d" % int(timeout * 1000))
        _enable_wal(self._conn, timeout)
        self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._ensure_schema()

    # -- lifecycle ----------------------------------------------------------

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _ensure_schema(self):
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = row["value"] if row else None
            if version in _MIGRATABLE_VERSIONS:
                # Additive upgrade: the IF-NOT-EXISTS schema pass above
                # already created any new tables; restamp and move on.
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )
                version = str(SCHEMA_VERSION)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        if version != str(SCHEMA_VERSION):
            # Fail loudly *before* any write touches the tables: an
            # old/unknown store must be migrated or regenerated, never
            # silently mixed with rows of another schema generation.
            raise StoreVersionError(
                "%s has schema version %s, this build writes version %d; "
                "migrate or regenerate the store" % (
                    self.path, version, SCHEMA_VERSION,
                )
            )

    # -- writes -------------------------------------------------------------

    def begin_run(
        self,
        workload,
        design,
        *,
        chiplets=None,
        topology="all-to-all",
        qualifier="",
        scale="default",
        mult=1,
        seed=0,
        config_hash="",
        git_rev=None,
        host=None,
        sweep_id=None,
        status="running",
        created_at=None,
    ):
        """Create the run row (``status='running'``); returns run_id.

        Live sinks need a run id before the run's counters exist; call
        :meth:`finish_run` with the final counters when it completes.
        """
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            cursor = conn.execute(
                "INSERT INTO runs (workload, design, chiplets, topology,"
                " qualifier, scale, mult, seed, config_hash, git_rev,"
                " host, sweep_id, status, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    workload,
                    design,
                    chiplets,
                    topology,
                    qualifier,
                    scale,
                    mult,
                    seed,
                    config_hash,
                    git_rev,
                    json.dumps(host, sort_keys=True) if host else None,
                    sweep_id,
                    status,
                    time.time() if created_at is None else created_at,
                ),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return cursor.lastrowid

    def finish_run(self, run_id, counters, status="done"):
        """Record the run's counters and final status atomically."""
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT OR REPLACE INTO counters (run_id, name, value)"
                " VALUES (?, ?, ?)",
                [
                    (run_id, name, float(value))
                    for name, value in sorted(counters.items())
                ],
            )
            conn.execute(
                "UPDATE runs SET status = ? WHERE id = ?", (status, run_id)
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def insert_run(self, workload, design, counters, *, status="done",
                   epochs=None, violations=None, **fields):
        """One finished run — row, counters and telemetry — atomically."""
        run_id = self.begin_run(
            workload, design, status="inserting", **fields
        )
        if epochs:
            self.insert_epochs(run_id, epochs)
        if violations:
            self.insert_violations(run_id, violations)
        self.finish_run(run_id, counters, status=status)
        return run_id

    def insert_epochs(self, run_id, rows):
        """Append epoch time-series rows (dicts in the metric schema)."""
        conn = self._conn
        placeholders = ", ".join("?" for _ in _EPOCH_COLUMNS)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO epochs (run_id, %s) VALUES (?, %s)"
                % (", ".join(_EPOCH_COLUMNS), placeholders),
                [
                    tuple(
                        [run_id]
                        + [row.get(column) for column in _EPOCH_COLUMNS]
                    )
                    for row in rows
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def insert_violations(self, run_id, rows):
        """Append audit-violation rows.

        Accepts both ``AuditViolation.to_dict()`` dicts (``kind`` is the
        violation category) and bus ``violation`` events (``kind`` is
        the event kind; the category rides in ``violation``).
        """
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO violations (run_id, kind, t, message, detail)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        row.get("violation", row.get("kind", "unknown")),
                        row.get("t"),
                        row.get("message", ""),
                        json.dumps(row.get("detail") or {}, sort_keys=True),
                    )
                    for row in rows
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def insert_digests(self, run_id, rows):
        """Append latency-digest rows (LatencyProbe ``digest_rows``/bus
        ``digest`` events; extra bus stamps are ignored)."""
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT OR REPLACE INTO latency_digests (run_id, stage,"
                " chiplet, count, zeros, total, vmin, vmax, p50, p95,"
                " p99, bins) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        row["stage"],
                        row.get("chiplet"),
                        int(row["count"]),
                        int(row.get("zeros", 0)),
                        float(row["total"]),
                        row.get("vmin"),
                        row.get("vmax"),
                        row.get("p50"),
                        row.get("p95"),
                        row.get("p99"),
                        json.dumps(row["bins"]),
                    )
                    for row in rows
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def digests_for(self, run_id):
        """Latency-digest rows of one run, ``bins`` JSON-decoded."""
        out = []
        for row in self._conn.execute(
            "SELECT * FROM latency_digests WHERE run_id = ?"
            " ORDER BY stage, chiplet",
            (run_id,),
        ):
            digest = dict(row)
            digest["bins"] = json.loads(digest["bins"])
            out.append(digest)
        return out

    def latest_run_ids(self, scale="default", sweep_id=None):
        """The newest result run id per alignment key.

        Same key/newest-wins semantics as :meth:`latest_manifest`, but
        mapping to run ids so callers can fetch per-run telemetry
        (digests, epochs) for the gating generation.
        """
        clauses = ["status IN (%s)" % ", ".join(
            "?" for _ in RESULT_STATUSES
        )]
        args = list(RESULT_STATUSES)
        if scale is not None:
            clauses.append("scale = ?")
            args.append(scale)
        if sweep_id is not None:
            clauses.append("sweep_id = ?")
            args.append(sweep_id)
        run_ids = {}
        for row in self._conn.execute(
            "SELECT id, workload, design, chiplets, topology, qualifier"
            " FROM runs WHERE %s ORDER BY id" % " AND ".join(clauses),
            args,
        ):
            key = (
                row["workload"],
                row["design"],
                row["chiplets"],
                row["topology"],
                row["qualifier"],
            )
            run_ids[key] = row["id"]  # newest wins
        return run_ids

    # -- imports ------------------------------------------------------------

    def import_json_cache(self, path, git_rev=None, host=None,
                          sweep_id=None):
        """Ingest a PR-1 ``ExperimentRunner`` JSON run cache.

        Every cache entry becomes a ``status='imported'`` run with the
        same alignment key and flattened counters ``repro diff`` derives
        from the cache, so imported history gates identically.  Returns
        the number of runs imported.
        """
        from repro.core.spec import ExperimentSpec
        from repro.stats.diff import flatten_counters

        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise StoreError(
                "%s: expected a JSON object keyed by run configuration"
                % (path,)
            )
        imported = 0
        for raw_key, record in payload.items():
            try:
                spec = ExperimentSpec.from_cache_key(raw_key)
            except ValueError:
                raise StoreError(
                    "%s: unparseable run-cache key %r" % (path, raw_key)
                )
            # The qualifier keeps the scale in band (matching how `repro
            # diff` keys a JSON manifest), while the scale column keeps
            # it queryable.
            _, _, chiplets, topology, qualifier = spec.alignment_key()
            self.insert_run(
                spec.workload,
                spec.design,
                flatten_counters(record),
                status="imported",
                chiplets=chiplets,
                topology=topology,
                qualifier=qualifier,
                scale=spec.scale,
                mult=spec.mult,
                seed=spec.seed,
                config_hash=spec.config_hash(),
                git_rev=git_rev,
                host=host,
                sweep_id=sweep_id,
            )
            imported += 1
        return imported

    def import_bench_history(self, path):
        """Ingest ``results/BENCH_engine.json`` snapshots; returns count."""
        from repro.stats.bench import load_history

        history = load_history(path)
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO bench (timestamp, git_rev, host, stale,"
                " payload) VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        snap.get("timestamp"),
                        snap.get("git_rev"),
                        json.dumps(snap.get("host"), sort_keys=True)
                        if snap.get("host")
                        else None,
                        1 if snap.get("stale") else 0,
                        json.dumps(snap, sort_keys=True),
                    )
                    for snap in history
                    if isinstance(snap, dict)
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return len(history)

    # -- queries ------------------------------------------------------------

    def run_count(self):
        row = self._conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()
        return row["n"]

    def counters_for(self, run_id):
        return {
            row["name"]: row["value"]
            for row in self._conn.execute(
                "SELECT name, value FROM counters WHERE run_id = ?",
                (run_id,),
            )
        }

    def list_runs(
        self,
        workload=None,
        design=None,
        chiplets=None,
        topology=None,
        scale=None,
        sweep_id=None,
        statuses=RESULT_STATUSES,
        limit=None,
    ):
        """Matching runs as dicts (newest first), counters attached."""
        clauses, args = [], []
        for column, value in (
            ("workload", workload),
            ("design", design),
            ("chiplets", chiplets),
            ("topology", topology),
            ("scale", scale),
            ("sweep_id", sweep_id),
        ):
            if value is not None:
                clauses.append("%s = ?" % column)
                args.append(value)
        if statuses:
            clauses.append(
                "status IN (%s)" % ", ".join("?" for _ in statuses)
            )
            args.extend(statuses)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id DESC"
        if limit:
            sql += " LIMIT %d" % int(limit)
        out = []
        for row in self._conn.execute(sql, args):
            run = dict(row)
            if run.get("host"):
                try:
                    run["host"] = json.loads(run["host"])
                except ValueError:
                    pass
            run["counters"] = self.counters_for(run["id"])
            out.append(run)
        return out

    def latest_manifest(self, scale="default", sweep_id=None):
        """The newest run per alignment key, in ``repro diff`` format.

        Returns ``{(workload, design, chiplets, topology, qualifier):
        {counter: value}}`` — directly comparable against
        :func:`repro.stats.diff.load_manifest` output.  ``scale`` pins
        the machine scale (it is a store column, not part of the
        qualifier, so smoke-scale stored runs align with smoke-scale
        sweep CSVs); ``None`` disables the filter.
        """
        clauses = ["status IN (%s)" % ", ".join(
            "?" for _ in RESULT_STATUSES
        )]
        args = list(RESULT_STATUSES)
        if scale is not None:
            clauses.append("scale = ?")
            args.append(scale)
        if sweep_id is not None:
            clauses.append("sweep_id = ?")
            args.append(sweep_id)
        manifest = {}
        for row in self._conn.execute(
            "SELECT * FROM runs WHERE %s ORDER BY id"
            % " AND ".join(clauses),
            args,
        ):
            key = (
                row["workload"],
                row["design"],
                row["chiplets"],
                row["topology"],
                row["qualifier"],
            )
            manifest[key] = self.counters_for(row["id"])  # newest wins
        return manifest

    def epochs_for(self, run_id):
        return [
            dict(row)
            for row in self._conn.execute(
                "SELECT * FROM epochs WHERE run_id = ? ORDER BY rowid",
                (run_id,),
            )
        ]

    def violations_for(self, run_id):
        out = []
        for row in self._conn.execute(
            "SELECT * FROM violations WHERE run_id = ? ORDER BY rowid",
            (run_id,),
        ):
            violation = dict(row)
            try:
                violation["detail"] = json.loads(violation["detail"] or "{}")
            except ValueError:
                pass
            out.append(violation)
        return out

    def violation_count(self, run_id=None):
        if run_id is None:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM violations"
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM violations WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        return row["n"]

    def bench_snapshots(self):
        """Imported bench snapshots (oldest first) as payload dicts."""
        out = []
        for row in self._conn.execute(
            "SELECT * FROM bench ORDER BY id"
        ):
            try:
                payload = json.loads(row["payload"])
            except ValueError:
                continue
            payload["_stale"] = bool(row["stale"])
            out.append(payload)
        return out
