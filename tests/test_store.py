"""Tests for the sqlite telemetry store (repro.obs.store).

The store is the flight recorder behind ``repro sweep --store`` /
``repro report`` / ``repro diff --store``; these tests pin its load-
bearing guarantees:

* schema: runs + counters + epochs + violations round-trip; statuses
  gate manifest visibility (a crashed ``running`` row never becomes a
  baseline);
* concurrency: N worker *processes* insert simultaneously into one
  store (WAL + busy timeout + immediate transactions) without losing a
  row — the property the parallel experiment fabric relies on;
* versioning: a store stamped with an unknown schema version fails
  loudly on open instead of being silently mixed into;
* imports: PR-1 JSON run caches ingest with exactly the alignment keys
  and counters ``repro diff`` derives from them, and the bench
  trajectory ingests as queryable snapshots;
* manifests: ``latest_manifest`` output is directly comparable with
  ``load_manifest`` CSV/JSON output (newest run per key wins, scale
  pinned as a column).
"""

import json
import multiprocessing
import os
import sqlite3
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.obs.store import (
    RESULT_STATUSES,
    SCHEMA_VERSION,
    RunStore,
    StoreVersionError,
    config_hash,
)
from repro.stats.diff import compare, load_manifest, load_store_manifest

COUNTERS = {"throughput": 1.25, "mpki": 40.0, "cycles": 10000.0}


def _insert(store, workload="GUPS", design="mgvm", **fields):
    fields.setdefault("scale", "smoke")
    fields.setdefault(
        "config_hash", config_hash("smoke", workload, design, {}, 1, 0)
    )
    return store.insert_run(workload, design, dict(COUNTERS), **fields)


def _open_fresh_stores(barrier, paths, errors):
    """Open and close each fresh store in step with a peer process."""
    failed = 0
    for path in paths:
        barrier.wait()
        try:
            RunStore(path).close()
        except sqlite3.OperationalError:
            failed += 1
    errors.put(failed)


def _worker_insert(path, worker, inserts):
    """Insert ``inserts`` runs from one worker process; returns run ids."""
    ids = []
    with RunStore(path) as store:
        for i in range(inserts):
            ids.append(
                _insert(
                    store,
                    workload="GUPS",
                    design="w%d-i%d" % (worker, i),
                    sweep_id="concurrency",
                )
            )
    return ids


class TestSchema:
    def test_insert_and_query_roundtrip(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            run_id = _insert(
                store, chiplets=8, topology="ring", git_rev="abc123",
                host={"platform": "test"}, sweep_id="s1",
            )
            assert store.run_count() == 1
            assert store.counters_for(run_id) == COUNTERS
            (run,) = store.list_runs(workload="GUPS")
            assert run["design"] == "mgvm"
            assert run["chiplets"] == 8
            assert run["topology"] == "ring"
            assert run["host"] == {"platform": "test"}
            assert run["counters"] == COUNTERS
            assert store.list_runs(workload="PR") == []
            assert store.list_runs(scale="paper") == []

    def test_statuses_gate_manifest_visibility(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            # A begun-but-never-finished run (crashed worker) must not
            # become anyone's baseline.
            store.begin_run("GUPS", "mgvm", scale="smoke")
            assert store.latest_manifest(scale="smoke") == {}
            _insert(store)
            manifest = store.latest_manifest(scale="smoke")
            assert manifest == {
                ("GUPS", "mgvm", None, "all-to-all", ""): COUNTERS
            }

    def test_latest_run_wins_per_key(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            _insert(store)
            newer = dict(COUNTERS, throughput=9.9)
            store.insert_run(
                "GUPS", "mgvm", newer, scale="smoke",
                config_hash="deadbeef",
            )
            manifest = store.latest_manifest(scale="smoke")
            key = ("GUPS", "mgvm", None, "all-to-all", "")
            assert manifest[key]["throughput"] == 9.9

    def test_scale_is_a_column_not_a_qualifier(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            _insert(store, scale="smoke")
            _insert(store, scale="paper")
            smoke = store.latest_manifest(scale="smoke")
            paper = store.latest_manifest(scale="paper")
            # Same alignment key both times — the scale never leaks into
            # the qualifier, so same-scale CSVs align cleanly.
            assert set(smoke) == set(paper) == {
                ("GUPS", "mgvm", None, "all-to-all", "")
            }
            assert store.latest_manifest(scale=None)  # filter off

    def test_result_statuses_cover_writers(self):
        # The runner writes done/cached, imports write imported; every
        # one of them must count as a result.
        assert set(RESULT_STATUSES) == {"done", "cached", "imported"}


class TestConcurrency:
    def test_parallel_process_inserts_lose_nothing(self, tmp_path):
        path = str(tmp_path / "runs.db")
        workers, inserts = 4, 12
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_worker_insert, path, worker, inserts)
                for worker in range(workers)
            ]
            ids = [i for future in futures for i in future.result()]
        assert len(ids) == len(set(ids)) == workers * inserts
        with RunStore(path) as store:
            assert store.run_count() == workers * inserts
            runs = store.list_runs(sweep_id="concurrency", limit=None)
            assert len(runs) == workers * inserts
            # Every run kept its full counter set (no torn writes).
            assert all(run["counters"] == COUNTERS for run in runs)

    def test_two_processes_open_fresh_stores_without_lock_errors(
        self, tmp_path
    ):
        """Two openers of one fresh store race in ``PRAGMA journal_mode =
        WAL``; the loser must wait for the lock, not raise ``database is
        locked``."""
        paths = [str(tmp_path / ("fresh-%03d.db" % i)) for i in range(100)]
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2, timeout=60)
        errors = context.Queue()
        processes = [
            context.Process(
                target=_open_fresh_stores, args=(barrier, paths, errors)
            )
            for _ in range(2)
        ]
        try:
            for process in processes:
                process.start()
            failed = [errors.get(timeout=120) for _ in processes]
            for process in processes:
                process.join(60)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join()
        assert [process.exitcode for process in processes] == [0, 0]
        assert failed == [0, 0]
        assert all(os.path.exists(path) for path in paths)

    def test_parallel_sweep_workers_store_every_run(self, tmp_path):
        """End to end: a --jobs 2 sweep writes one row per point."""
        path = str(tmp_path / "runs.db")
        with ExperimentRunner(
            scale="smoke", workers=2, store_path=path, metrics_every=1000
        ) as runner:
            grid = runner.run_matrix(["GUPS", "PR"], ["private", "mgvm"])
        with RunStore(path) as store:
            runs = store.list_runs()
            assert len(runs) == len(grid) == 4
            assert {run["status"] for run in runs} == {"done"}
            # Epoch telemetry streamed in from the worker processes.
            assert all(store.epochs_for(run["id"]) for run in runs)
            manifest = store.latest_manifest(scale="smoke")
            for (workload, design_name), record in grid.items():
                key = (workload, design_name, None, "all-to-all", "")
                assert manifest[key]["throughput"] == pytest.approx(
                    record.throughput
                )


class TestVersioning:
    def test_unknown_schema_version_fails_loudly(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreVersionError) as excinfo:
            RunStore(path)
        assert "99" in str(excinfo.value)
        assert str(SCHEMA_VERSION) in str(excinfo.value)

    def test_same_version_reopens_cleanly(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            _insert(store)
        with RunStore(path) as store:
            assert store.run_count() == 1


class TestImports:
    def test_json_cache_import_aligns_with_diff_manifest(self, tmp_path):
        cache_path = str(tmp_path / "cache.json")
        with ExperimentRunner(scale="smoke", cache_path=cache_path) as runner:
            runner.run_matrix(["GUPS"], ["private", "mgvm"])
        store_path = str(tmp_path / "runs.db")
        with RunStore(store_path) as store:
            assert store.import_json_cache(cache_path, git_rev="abc") == 2
            (run,) = store.list_runs(design="mgvm")
            assert run["status"] == "imported"
            assert run["git_rev"] == "abc"
        stored = load_store_manifest(store_path, scale="smoke")
        from_json = load_manifest(cache_path)
        # The qualifier conventions differ (the JSON loader folds the
        # scale into the qualifier; the store keeps it as a column), so
        # compare workload/design alignment and the counters themselves.
        assert {k[:2] for k in stored} == {k[:2] for k in from_json}
        by_pair = {k[:2]: v for k, v in from_json.items()}
        for key, counters in stored.items():
            assert counters == pytest.approx(by_pair[key[:2]])

    def test_bench_history_import(self, tmp_path):
        history = [
            {"timestamp": "2026-01-01T00:00:00", "git_rev": "aaa",
             "engine_events_per_sec": 1000.0},
            {"timestamp": "2026-01-02T00:00:00", "git_rev": "bbb",
             "stale": True, "engine_events_per_sec": 1.0},
        ]
        bench_path = tmp_path / "BENCH.json"
        bench_path.write_text(json.dumps(history))
        with RunStore(str(tmp_path / "runs.db")) as store:
            assert store.import_bench_history(str(bench_path)) == 2
            snaps = store.bench_snapshots()
        assert [s["git_rev"] for s in snaps] == ["aaa", "bbb"]
        assert [s["_stale"] for s in snaps] == [False, True]


class TestCli:
    def test_report_lists_stored_runs(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            _insert(store, git_rev="abc1234", sweep_id="s1")
        assert main(["report", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "GUPS/mgvm" in out
        assert "abc1234" in out
        assert "1 run(s)" in out

    def test_report_json_and_filters(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            _insert(store, workload="GUPS")
            _insert(store, workload="PR")
        assert main(
            ["report", "--store", path, "--workload", "PR", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [run["workload"] for run in payload] == ["PR"]
        assert payload[0]["counters"] == COUNTERS

    def test_report_trend_shows_deltas_across_revs(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            store.insert_run(
                "GUPS", "mgvm", {"throughput": 1.0}, scale="smoke",
                config_hash="x", git_rev="rev1",
            )
            store.insert_run(
                "GUPS", "mgvm", {"throughput": 1.1}, scale="smoke",
                config_hash="x", git_rev="rev2",
            )
        assert main(
            ["report", "--store", path, "--trend", "throughput", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["git_rev"] for p in payload] == ["rev1", "rev2"]
        assert payload[0]["rel_delta"] is None
        assert payload[1]["rel_delta"] == pytest.approx(0.1)

    def test_report_missing_store_is_a_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no store"):
            main(["report", "--store", str(tmp_path / "absent.db")])

    def test_top_once_renders_job_table(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.bus import JsonlStreamSink, MetricsBus

        stream = str(tmp_path / "sweep.stream")
        with MetricsBus(
            [JsonlStreamSink(stream)], batch_size=1,
            context={"sweep": "abc", "job": "GUPS/mgvm"},
        ) as bus:
            bus.publish("sweep", phase="started", points=1)
            bus.publish("job", phase="started")
            bus.publish("metric", chiplet=0, serviced=10, mshr_hwm=7)
            bus.publish("job", phase="finished", seconds=0.5)
            bus.publish("sweep", phase="finished")
        assert main(["top", stream, "--once"]) == 0
        out = capsys.readouterr().out
        assert "sweep abc: finished" in out
        assert "GUPS/mgvm" in out
        assert "finished" in out


class TestStoreManifests:
    def test_store_self_compare_is_clean(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with ExperimentRunner(scale="smoke", store_path=path) as runner:
            runner.run_matrix(["GUPS"], ["private", "mgvm"])
        manifest = load_store_manifest(path, scale="smoke")
        report = compare(manifest, manifest)
        assert report["ok"]
        assert report["aligned"] == 2

    def test_missing_store_loads_empty(self, tmp_path):
        assert load_store_manifest(str(tmp_path / "absent.db")) == {}

    def test_injected_delta_fails_store_gate(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with ExperimentRunner(scale="smoke", store_path=path) as runner:
            runner.run_matrix(["GUPS"], ["mgvm"])
        baseline = load_store_manifest(path, scale="smoke")
        candidate = {
            key: dict(counters, throughput=counters["throughput"] * 1.02)
            for key, counters in baseline.items()
        }
        report = compare(baseline, candidate, rel_tol=0.01)
        assert not report["ok"]
        (violation,) = report["violations"]
        assert violation["counter"] == "throughput"
        assert violation["workload"] == "GUPS"
        assert violation["design"] == "mgvm"
        assert violation["rel_delta"] == pytest.approx(0.02)
