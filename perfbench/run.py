"""Simulation-cost benchmark of the repro MCM-GPU simulator.

Run from the root of a checkout (pure Python, nothing to build)::

    python3 perfbench/run.py --workload l1-stream --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``l1-stream``: {J1D, J2D, C2D, KM, FW} x {private, mgvm}, default scale;
* ``translate``: SYRK/mgvm, SPMV/shared and GUPS/shared on an 8-chiplet
  ring, default scale;
* ``sweep``: the representative workloads x the main designs at smoke
  scale through ``ExperimentRunner.run_sweep`` with two workers and a
  fresh JSONL stream.

The sweep does not write a ``RunStore``: two pool workers opening one
fresh store race in ``PRAGMA journal_mode = WAL`` (``database is
locked``) and abort about one sweep in ten, so pass counts, and with
them the failure share, would differ between runs of the same code.
The traced sweep run measures that defect and the store's cost in
:func:`store_probe` instead.

``--trace 0`` repeats the workload's points until ``--seconds`` have
passed (at least once each) and prints the end-to-end metrics.
``--trace 1`` runs the points once untraced and once under
:mod:`layers`, and prints the per-layer metrics.  Either way every point's
counters are checked against ``reference.json`` (or, for the sweep at
simulation seed 0, against ``results/golden_smoke.csv`` through
``repro.stats.diff``), and the last line of stdout is one JSON object.
A fuller record, with the host fingerprint and git revision, goes to
``.perfbench/results/``; traced runs also write their spans to
``.perfbench/trace/``.

End-to-end host times are reported in *reference seconds*: each measured
interval is scaled by how fast a fixed pure-Python loop
(:func:`reference_loop`) ran during it, read every 0.1 s by
:class:`SpeedSampler`, relative to :data:`REFERENCE_LOOP_S`.  A shared
2-core host can change speed by 1.5-2x within seconds (CPU time tracks
wall time, so it is the cores, not scheduling); on such a host raw
seconds spread 0.15-0.2 (quartile distance over median, ten runs) and
reference seconds 0.02-0.08.  The loop is benchmark code, so no change
to the simulator can move it.  Raw seconds are kept in the run record.
Traced runs report raw seconds.
"""

import argparse
import contextlib
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

perf_counter = time.perf_counter

#: Output directory, relative to the checkout root (git-ignored).
OUT_DIR = ".perfbench"

#: Fresh-interpreter set-up measurements per run (their median is
#: ``setup_s``).
SETUP_PROBES = 5

#: Fresh stores :func:`store_probe` has two processes write at once.
STORE_PROBE_ROUNDS = 100

#: Seconds :func:`reference_loop` takes, in the middle of a simulation,
#: on the host that reference seconds are defined by.
REFERENCE_LOOP_S = 0.0019

#: How often :class:`SpeedSampler` reads the host speed.
SAMPLE_EVERY_S = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_kacc_per_s", "kacc/s"),
    ("peak_rss_mb", "MB"),
)


# -- host speed ---------------------------------------------------------------


def reference_loop():
    """A fixed pure-Python heap-and-dict loop that times the host."""
    heap = []
    table = {}
    total = 0
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 1023] = table.get((i * 31) & 1023, 0) + i
    while heap:
        t, i = heapq.heappop(heap)
        total += table.get(i & 1023, 0) ^ t
    return total


def loop_seconds():
    """Seconds one :func:`reference_loop` takes now."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class SpeedSampler:
    """Reads the host's speed every :data:`SAMPLE_EVERY_S` while it is open.

    A ``SIGALRM`` handler runs :func:`reference_loop` once between two
    bytecodes of whatever is executing, so the readings come from the
    same core, interleaved with the work they rescale.  Each reading is
    a single loop, not the best of several: the host flips between a
    fast and a slow state within seconds, and a best-of reading sees the
    fast state too often.  The handler's own time is kept in
    :attr:`spent`.  Simulated results cannot change: the handler touches
    no simulator state.  An interval too short for a reading gets one
    when the sampler closes.
    """

    def __init__(self):
        self.factors = []  # REFERENCE_LOOP_S / loop_seconds(), per reading
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = perf_counter()
        self.factors.append(REFERENCE_LOOP_S / loop_seconds())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.factors:
            self.factors.append(REFERENCE_LOOP_S / loop_seconds())
        return False

    def rescale(self, seconds):
        """Reference seconds of ``seconds`` measured while open."""
        return (seconds - self.spent) * statistics.fmean(self.factors)


# -- failures -----------------------------------------------------------------


class Outcome:
    """Points attempted, failed (by exception type) and mismatched."""

    def __init__(self):
        self.attempted = 0
        self.failed_by_type = {}
        self.mismatches = []

    def fail(self, kind, count=1):
        self.failed_by_type[kind] = self.failed_by_type.get(kind, 0) + count

    @property
    def failed(self):
        return sum(self.failed_by_type.values())


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)["points"]


def check_counters(outcome, key, counters, reference):
    """Count a point as failed when its counters differ from the reference."""
    expected = reference.get(key)
    if expected is None:
        outcome.fail("NoReference")
        outcome.mismatches.append({"point": key, "counters": "no reference"})
        return False
    wrong = sorted(
        name for name, value in expected.items()
        if counters.get(name) != value
    )
    if wrong:
        outcome.fail("CounterMismatch")
        outcome.mismatches.append({"point": key, "counters": wrong})
        return False
    return True


# -- default-scale workloads --------------------------------------------------


def run_points(specs, outcome, reference, tracer=None, samples=None,
               deadline=None):
    """Run ``specs`` once, in order, from a cold trace cache.

    Returns the pass's host seconds.  ``samples`` (a list per spec)
    collects per-point ``(seconds, reference seconds, memory accesses)``;
    past ``deadline`` no further point starts once each has a sample.
    """
    from repro.sim.simulator import clear_trace_cache

    clear_trace_cache()
    first = perf_counter()
    for index, spec in enumerate(specs):
        if deadline is not None and perf_counter() >= deadline and all(
            samples
        ):
            break
        key = spec.cache_key()
        outcome.attempted += 1
        if tracer is not None:
            tracer.point = key
        sampler = SpeedSampler()
        try:
            with sampler if samples is not None else contextlib.nullcontext():
                start = perf_counter()
                if tracer is None:
                    record, stats = workloads.run_point(spec)
                else:
                    record, stats = tracer.span(
                        "bench.point", workloads.run_point, spec
                    )
                seconds = perf_counter() - start
        except Exception as exc:  # a failing point is counted, not fatal
            outcome.fail(type(exc).__name__)
            continue
        if check_counters(
            outcome, key, workloads.point_counters(record, stats), reference
        ) and samples is not None:
            samples[index].append((
                seconds, sampler.rescale(seconds), stats.mem_accesses
            ))
    return perf_counter() - first


def measure_points(specs, seconds, outcome, reference):
    """Cycle through ``specs`` for ``seconds`` (each at least once).

    Peak memory is read after the first pass: how many passes fit in
    ``seconds`` depends on the host's speed, and a second pass raises
    the peak (by 15 MB on ``translate``).
    """
    samples = [[] for _ in specs]
    deadline = perf_counter() + seconds
    rss = None
    while perf_counter() < deadline:
        run_points(specs, outcome, reference, samples=samples,
                   deadline=deadline)
        if not all(samples):
            return None
        if rss is None:
            rss = peak_rss_mb()
    raw = sum(statistics.median(s[0] for s in point) for point in samples)
    wall = sum(statistics.median(s[1] for s in point) for point in samples)
    accesses = sum(point[0][2] for point in samples)
    passes = min(len(point) for point in samples)
    return {"wall": wall, "raw_wall": raw, "accesses": accesses,
            "passes": passes, "rss": rss}


# -- the sweep workload ---------------------------------------------------------


def run_sweep_pass(seed, outcome, reference, golden, tmp_dir):
    """One ``run_sweep`` into a fresh JSONL stream.

    Returns ``(seconds, simulated memory accesses, records)``, or
    ``(None, None, None)`` when the sweep aborted.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.bus import read_stream

    sweep, specs = workloads.build_specs("sweep", seed)
    tag = uuid.uuid4().hex[:8]
    stream = os.path.join(tmp_dir, "sweep-%s.jsonl" % tag)
    outcome.attempted += len(specs)
    runner = ExperimentRunner(
        scale=sweep.scale,
        seed=sweep.seed,
        workers=min(2, os.cpu_count() or 1),
        stream_path=stream,
    )
    records = seconds = None
    start = perf_counter()
    try:
        records = runner.run_sweep(sweep)
        seconds = perf_counter() - start
    except Exception as exc:  # an aborted sweep returns no point at all
        outcome.fail(type(exc).__name__)
        outcome.fail("NotReturned", len(specs) - 1)
    runner.close_bus()
    accesses = sum(
        event.get("mem_accesses", 0) for event in read_stream(stream)
        if event.get("kind") == "job" and event.get("phase") == "finished"
    )
    os.remove(stream)
    if records is None:
        return None, None, None
    check_sweep(outcome, specs, records, reference, golden)
    return seconds, accesses, records


def check_sweep(outcome, specs, records, reference, golden):
    """Check sweep records: golden CSV at seed 0, reference.json otherwise."""
    if golden is None:
        for spec in specs:
            check_counters(
                outcome, spec.cache_key(),
                workloads.record_counters(records[(spec.workload, spec.design)]),
                reference,
            )
        return
    from repro.stats.diff import compare, load_manifest
    from repro.stats.export import write_raw_csv

    path = os.path.join(OUT_DIR, "tmp", "sweep-%s.csv" % uuid.uuid4().hex[:8])
    write_raw_csv(list(records.values()), path)
    candidate = load_manifest(path)
    os.remove(path)
    baseline = {key: golden[key] for key in candidate if key in golden}
    report = compare(baseline, candidate, rel_tol=0.0, abs_tol=0.0)
    bad = {(v["workload"], v["design"]) for v in report["violations"]}
    missing = [key for key in candidate if key not in golden]
    for key in missing:
        bad.add((key[0], key[1]))
    for workload, design in sorted(bad):
        outcome.fail("CounterMismatch")
        outcome.mismatches.append({"point": "%s/%s" % (workload, design),
                                   "counters": "differs from golden"})


def load_golden(seed):
    """The golden smoke manifest when the sweep runs at simulation seed 0."""
    if workloads.simulation_seed(seed) != 0:
        return None
    from repro.stats.diff import load_manifest

    return load_manifest(os.path.join("results", "golden_smoke.csv"))


def sample_in_workers(directory):
    """Read the host speed, and peak memory, inside the sweep's pool workers.

    The sweep's points run in two worker processes that keep both cores
    busy, so readings taken in this process would measure contention.
    Each point runs under a :class:`SpeedSampler` in the worker that
    simulates it instead; the readings, with the worker's peak memory
    after the point, go to ``directory``, one file per point.
    """
    import layers

    def sampled_point(simulate, spec, obs):
        sampler = SpeedSampler()
        with sampler:
            start = perf_counter()
            record = simulate(spec, obs)
            seconds = perf_counter() - start
        name = "%d-%s.json" % (os.getpid(), uuid.uuid4().hex[:8])
        with open(os.path.join(directory, name), "w") as handle:
            json.dump({"seconds": seconds, "spent": sampler.spent,
                       "factors": sampler.factors,
                       "rss_mb": peak_rss_mb()},
                      handle)
        return record

    layers.hook_pool_points(sampled_point)


def worker_speed(directory):
    """Collect (and delete) the readings :func:`sample_in_workers` wrote.

    Returns the share of worker time the readings took, their mean speed
    factor and the workers' peak memory, or ``None`` when no point
    finished.
    """
    busy = spent = rss = 0.0
    factors = []
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path) as handle:
            point = json.load(handle)
        os.remove(path)
        busy += point["seconds"]
        spent += point["spent"]
        factors += point["factors"]
        rss = max(rss, point["rss_mb"])
    if not factors:
        return None
    return spent / busy, statistics.fmean(factors), rss


def measure_sweep(seed, seconds, outcome, reference):
    """Repeat the sweep for ``seconds``; medians over completed passes.

    A pass's peak memory is the largest of this process's and its pool
    workers'.  Which points a worker gets, and so its peak, changes from
    pass to pass; the median over passes steadies it.
    """
    golden = load_golden(seed)
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    speed_dir = os.path.join(tmp_dir, "speed-%s" % uuid.uuid4().hex[:8])
    os.makedirs(speed_dir)
    sample_in_workers(speed_dir)
    walls, raws, peaks, accesses = [], [], [], None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        took, simulated, _ = run_sweep_pass(seed, outcome, reference, golden,
                                            tmp_dir)
        speed = worker_speed(speed_dir)
        if took is None:
            continue
        share, factor, worker_rss = speed
        walls.append(took * (1.0 - share) * factor)
        raws.append(took)
        peaks.append(max(peak_rss_mb(), worker_rss))
        accesses = simulated
    shutil.rmtree(speed_dir)
    if not walls:
        return None
    return {"wall": statistics.median(walls),
            "raw_wall": statistics.median(raws),
            "accesses": accesses, "passes": len(walls),
            "rss": statistics.median(peaks)}


# -- end-to-end run -------------------------------------------------------------


def peak_rss_mb():
    """This process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload, seed):
    """Time a fresh interpreter's import and spec building (probe mode)."""
    sampler = SpeedSampler()
    with sampler:
        start = perf_counter()
        import repro  # noqa: F401
        from repro.driver.kernel_launch import launch_kernel  # noqa: F401
        from repro.experiments.runner import ExperimentRunner, RunRecord  # noqa: F401
        from repro.sim.simulator import Simulator  # noqa: F401

        workloads.build_specs(workload, seed)
        seconds = perf_counter() - start
    print(json.dumps({"raw": seconds, "s": sampler.rescale(seconds)}))


def measure_setup(workload, seed):
    """Median set-up time over :data:`SETUP_PROBES` fresh interpreters."""
    raws, values = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=120,
        ).stdout
        probe = json.loads(out.strip().splitlines()[-1])
        raws.append(probe["raw"])
        values.append(probe["s"])
    return statistics.median(values), statistics.median(raws)


def end_to_end(workload, seed, seconds, outcome, reference):
    if workload == "sweep":
        result = measure_sweep(seed, seconds, outcome, reference)
    else:
        specs = workloads.build_specs(workload, seed)[1]
        result = measure_points(specs, seconds, outcome, reference)
    if result is None:
        return None, {}
    setup, raw_setup = measure_setup(workload, seed)
    metrics = {
        "setup_s": setup,
        "wall_s": result["wall"],
        "sim_kacc_per_s": result["accesses"] / result["wall"] / 1000.0,
        "peak_rss_mb": result["rss"],
    }
    extra = {
        "raw_setup_s": raw_setup,
        "raw_wall_s": result["raw_wall"],
        "passes": result["passes"],
        "mem_accesses": result["accesses"],
    }
    return metrics, extra


# -- traced run -----------------------------------------------------------------


def traced(workload, seed, outcome, reference, delay=None, only=None):
    """One untraced pass, then one traced pass; returns the trace summary.

    ``delay`` (``{layer: seconds}``) busy-waits inside every call of those
    layers, and ``only`` keeps just those ``(workload, design)`` points;
    both serve ``selftest.py``.
    """
    import layers

    tracer = layers.Tracer()
    tracer.delays.update(delay or {})
    if workload != "sweep":
        specs = workloads.build_specs(workload, seed)[1]
        if only:
            specs = [s for s in specs if (s.workload, s.design) in only]
        plain = run_points(specs, outcome, reference)
        tracer.install()
        tracer.calibrate()
        wall = run_points(specs, outcome, reference, tracer=tracer)
        return layers.summarize(tracer, None, wall, plain)

    golden = load_golden(seed)
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    worker_dir = os.path.join(tmp_dir, "workers-%s" % uuid.uuid4().hex[:8])
    os.makedirs(worker_dir)
    plain, _, _ = run_sweep_pass(seed, outcome, reference, golden, tmp_dir)
    tracer.install()
    tracer.calibrate()
    layers.install_worker_hook(tracer, worker_dir)
    tracer.reset(None)
    wall, _, records = run_sweep_pass(seed, outcome, reference, golden,
                                      tmp_dir)
    workers = layers.Tracer()
    workers.inner, workers.outer = tracer.inner, tracer.outer
    for name in sorted(os.listdir(worker_dir)):
        with open(os.path.join(worker_dir, name)) as handle:
            workers.merge(json.load(handle))
    shutil.rmtree(worker_dir)
    if plain is None or wall is None:
        return None
    summary = layers.summarize(tracer, workers, wall, plain)
    specs = workloads.build_specs("sweep", seed)[1]
    probe = store_probe(
        [(spec, records[(spec.workload, spec.design)]) for spec in specs],
        tracer, tmp_dir,
    )
    table = probe.layer_table()
    metrics = summary["metrics"]
    for layer in ("obs.store_open", "obs.store_write"):
        for field in ("calls", "s", "self_s"):
            metrics["%s.%s" % (layer, field)]["value"] = table[layer][field]
    metrics["obs.store_lock_failures"]["value"] = sum(
        counts.get("OperationalError", 0) for counts in probe.errors.values()
    )
    summary["store_probe"] = {
        "rounds": STORE_PROBE_ROUNDS,
        "opens": table["obs.store_open"]["calls"],
        "errors": probe.errors,
        "layers": {layer: table[layer]
                   for layer in ("obs.store_open", "obs.store_write")},
    }
    return summary


def store_probe(points, tracer, tmp_dir):
    """Have two processes persist a sweep's records into fresh stores.

    Each of :data:`STORE_PROBE_ROUNDS` rounds makes a fresh ``RunStore``
    path; two forked processes start on it together and each writes half
    of ``points`` (``(spec, record)`` pairs) with the calls a sweep's
    pool worker makes per point: open, ``begin_run``, ``finish_run``,
    close.  This is where a sweep writing a fresh store aborts with
    ``database is locked``; here a failed open is counted and the
    process goes on.  The processes inherit ``tracer``'s wrappers; the
    returned :class:`layers.Tracer` holds what they recorded.
    """
    import multiprocessing

    import layers

    directory = os.path.join(tmp_dir, "store-%s" % uuid.uuid4().hex[:8])
    os.makedirs(directory)
    paths = [os.path.join(directory, "round-%03d.db" % index)
             for index in range(STORE_PROBE_ROUNDS)]
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(2, timeout=60)
    processes = [
        context.Process(target=_persist_points,
                        args=(tracer, barrier, paths, points[index::2],
                              directory))
        for index in range(2)
    ]
    try:
        for process in processes:
            process.start()
        for process in processes:
            process.join(120)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join()
    if any(process.exitcode != 0 for process in processes):
        shutil.rmtree(directory)
        raise RuntimeError("store probe process failed")
    probe = layers.Tracer()
    probe.inner, probe.outer = tracer.inner, tracer.outer
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                probe.merge(json.load(handle))
    shutil.rmtree(directory)
    return probe


def _persist_points(tracer, barrier, paths, points, directory):
    """One :func:`store_probe` process: write ``points`` to each path."""
    import sqlite3

    import layers
    from repro.obs.store import RunStore

    tracer.reset("store-probe")
    for path in paths:
        barrier.wait()
        for spec, record in points:
            try:
                store = RunStore(path)
            except sqlite3.OperationalError:
                continue  # counted by the wrapper around RunStore.__init__
            try:
                _, _, chiplets, topology, qualifier = spec.alignment_key(
                    scale_in_band=False
                )
                run_id = store.begin_run(
                    spec.workload, spec.design, chiplets=chiplets,
                    topology=topology, qualifier=qualifier, scale=spec.scale,
                    mult=spec.mult, seed=spec.seed,
                    config_hash=spec.config_hash(),
                )
                store.finish_run(run_id, workloads.record_counters(record))
            finally:
                store.close()
    layers.write_json(
        os.path.join(directory, "%d.json" % os.getpid()), tracer.dump()
    )


# -- output ---------------------------------------------------------------------


def provenance(seed):
    from repro.stats.bench import git_revision, host_fingerprint

    dirty = None
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=30,
        )
        if status.returncode == 0:
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host": host_fingerprint(),
        "git_rev": git_revision(),
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "seed": seed,
        "simulation_seed": workloads.simulation_seed(seed),
    }


def write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        sys.exit("perfbench: refusing to run with %s set; the benchmark "
                 "measures the default configuration" % ", ".join(knobs))
    if not os.path.isdir(os.path.join("src", "repro")):
        sys.exit("perfbench: run from the repository root (no src/repro here)")
    sys.path.insert(0, os.path.abspath("src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH"))
        if p
    )
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    reference = load_reference()
    outcome = Outcome()
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed)}
    flags = []
    if args.trace:
        summary = traced(args.workload, args.seed, outcome, reference)
        metrics = summary.pop("metrics") if summary else {}
        if summary:
            flags = summary["flags"]
            record.update(reconcile=summary["reconcile"], flags=flags)
            write_json(os.path.join(OUT_DIR, "trace", "%s-seed%d.json" % (
                args.workload, args.seed)), summary)
    else:
        values, record["extra"] = end_to_end(
            args.workload, args.seed, args.seconds, outcome, reference
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        } if values else {}
    record.update(
        metrics=metrics,
        attempted=outcome.attempted,
        failed=outcome.failed,
        failed_by_type=outcome.failed_by_type,
        mismatches=outcome.mismatches,
    )
    correct = bool(metrics) and not outcome.mismatches
    path = os.path.join(OUT_DIR, "results", "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time())))
    write_json(path, record)
    for name in sorted(metrics):
        print("%-34s %14.6g %s" % (name, metrics[name]["value"],
                                   metrics[name]["unit"]))
    print("points attempted %d, failed %d %s" % (
        outcome.attempted, outcome.failed, outcome.failed_by_type or ""))
    for flag in flags:
        print("flag:", flag)
    print("record:", path)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
