"""Microbenchmarks for the event-engine hot path.

Targets tracked across PRs (see ``docs/performance.md`` and
``results/BENCH_engine.json``):

* ``test_engine_event_throughput`` — raw dispatch rate through
  :meth:`Engine.run`: a self-rescheduling ``fn(arg)`` chain seeded with
  a burst of same-timestamp events, mirroring the push/pop mix and the
  event form of a real simulation (every event schedules about one
  successor, passing its state as the argument).
* ``test_smoke_end_to_end_sim`` — one complete ``smoke``-scale
  simulation (GUPS under MGvm), the unit of work the parallel experiment
  fabric fans out.
* ``test_queue_throughput_*`` — queue-discipline microbenches (calendar
  vs heap) under the classic *hold model*: a steady-depth pop-one /
  push-one loop, isolating the queue from dispatch.  The CLI
  ``--queues`` sweep runs the same loop across queue depths.

CLI modes (``PYTHONPATH=src python benchmarks/bench_engine_hotpath.py``):

* *(default / positional path)* — append a measurement to the
  ``BENCH_engine.json`` perf trajectory, stamped with a host
  fingerprint (python, platform, cpu count) so cross-machine
  comparisons can widen their noise margins instead of false-failing.
* ``--check`` — perf guard: measure live events/s and compare against
  the most recent snapshot, failing on a regression beyond the
  timer-noise margin (widened automatically when the snapshot was taken
  on a different host).
* ``--queues`` — print the queue-discipline sweep (heap vs calendar at
  several queue depths).

``scripts/bench_smoke.sh`` snapshots the default numbers into
``results/BENCH_engine.json``.
"""

import os

from repro.arch.params import scaled_params
from repro.core.config import design
from repro.engine.event_queue import (
    CalendarEventQueue,
    Engine,
    HeapEventQueue,
)
from repro.sim.simulator import clear_trace_cache, simulate
from repro.stats.bench import (
    BENCH_HISTORY_PATH,
    git_revision,
    host_fingerprint,
    load_history,
    select_baseline_snapshot,
)
from repro.workloads.registry import build_kernel

EVENTS = 200_000
FANOUT = 64

#: Hold-model ops per queue-discipline measurement.
QUEUE_OPS = 200_000
#: Queue depths for the --queues sweep (events resident in the queue).
QUEUE_DEPTHS = (16, 256, 4096)

#: --check noise margins.  The default tolerates timer noise plus the
#: ~2x fast/slow regimes CI containers alternate between; when the
#: snapshot being compared against was taken on a *different* host
#: (fingerprint mismatch) the margin widens further — cross-machine
#: events/s are only loosely comparable.
CHECK_MARGIN = 0.55
CHECK_MARGIN_CROSS_HOST = 0.70

def drive_engine(num_events=EVENTS, fanout=FANOUT):
    """Execute ``num_events`` events through a fresh engine."""
    engine = Engine()

    def tick(remaining):
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.after(1.0, tick, remaining)

    remaining = [num_events]
    for _ in range(fanout):
        engine.at(0.0, tick, remaining)
    engine.run()
    return engine.events_executed


def _noop(_arg):
    return None


def _hold_increments(ops, seed=1234):
    """Deterministic per-op time increments mirroring a real simulation:
    mostly small integral latencies (compute gaps, cache hops), a few
    per mille page-fault-class delays that exercise the calendar's
    overflow heap."""
    import random

    rng = random.Random(seed)
    increments = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.004:
            increments.append(20_000.0)  # page-fault-class
        elif roll < 0.25:
            increments.append(float(rng.randint(64, 512)))  # DRAM/link
        else:
            increments.append(float(rng.randint(1, 8)))  # core latencies
    return increments


def drive_queue(queue, ops=QUEUE_OPS, depth=256, increments=None):
    """Hold model: prefill ``depth`` events, then pop-one/push-one
    ``ops`` times at constant depth.  Returns ops executed (== ops)."""
    if increments is None:
        increments = _hold_increments(ops)
    for i in range(depth):
        queue.push(1.0 + (i % 64), _noop, i)
    pop = queue.pop
    push = queue.push
    for inc in increments:
        t, fn, arg = pop()
        push(t + inc, fn, arg)
    return ops


def queue_discipline_sweep(ops=QUEUE_OPS, depths=QUEUE_DEPTHS, rounds=3):
    """Best-of-``rounds`` hold-model ops/s for each discipline x depth."""
    import time

    increments = _hold_increments(ops)
    out = {}
    for name, factory in (
        ("heap", HeapEventQueue),
        ("calendar", CalendarEventQueue),
    ):
        out[name] = {}
        for depth in depths:
            best = 0.0
            for _ in range(rounds):
                queue = factory()
                start = time.perf_counter()
                drive_queue(queue, ops=ops, depth=depth, increments=increments)
                elapsed = time.perf_counter() - start
                best = max(best, ops / elapsed)
            out[name][depth] = round(best, 1)
    return out


def run_smoke_sim():
    """One end-to-end smoke simulation with a cold trace cache."""
    clear_trace_cache()
    kernel = build_kernel("GUPS", scale="smoke")
    params = scaled_params("smoke")
    return simulate(kernel, params, design("mgvm"), seed=0)


def measure_snapshot(rounds=3):
    """Best-of-``rounds`` numbers for the BENCH_engine.json trajectory."""
    import time

    best_eps = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        executed = drive_engine()
        elapsed = time.perf_counter() - start
        best_eps = max(best_eps, executed / elapsed)

    best_sim = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_smoke_sim()
        best_sim = min(best_sim, time.perf_counter() - start)

    return {
        "engine_events_per_sec": round(best_eps, 1),
        "smoke_sim_seconds": round(best_sim, 4),
    }


# host_fingerprint / load_history / select_baseline_snapshot moved to
# repro.stats.bench (imported above): bench_obs_overhead.py and the
# telemetry store share them, so the selection logic cannot drift.


def load_latest_snapshot(path=BENCH_HISTORY_PATH):
    """Return the most recent snapshot record, or ``None``.

    Kept for trajectory tooling; perf guards should use
    :func:`select_baseline_snapshot`, which skips stale-labelled
    entries and prefers same-host fingerprints.
    """
    history = load_history(path)
    return history[-1] if history else None


def append_snapshot(path=BENCH_HISTORY_PATH, rounds=3):
    """Append one measurement to the perf-trajectory file (a JSON list)."""
    import datetime
    import json

    snapshot = measure_snapshot(rounds=rounds)
    snapshot["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc
    ).isoformat(timespec="seconds")
    fingerprint = host_fingerprint()
    snapshot["python"] = fingerprint["python"]
    snapshot["host"] = fingerprint
    snapshot["git_rev"] = git_revision()

    history = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                history = json.load(handle)
            if not isinstance(history, list):
                history = []
        except ValueError:
            history = []
    history.append(snapshot)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)
    return snapshot


def check_against_snapshot(path="results/BENCH_engine.json", rounds=3):
    """Perf guard: live engine events/s must not regress beyond the
    (cross-host-widened) noise margin below the selected baseline
    snapshot.  Returns (ok, report).
    """
    baseline, selected = select_baseline_snapshot(path)
    if baseline is None:
        return False, selected
    live = measure_snapshot(rounds=rounds)
    margin = CHECK_MARGIN
    same_host = baseline.get("host") == host_fingerprint()
    if not same_host:
        margin = CHECK_MARGIN_CROSS_HOST
    floor = baseline["engine_events_per_sec"] * (1.0 - margin)
    ok = live["engine_events_per_sec"] >= floor
    lines = [
        "baseline: %s" % selected,
        "%s: live %.0f events/s vs snapshot %.0f (floor %.0f, "
        "margin %.0f%%%s)"
        % (
            "pass" if ok else "FAIL",
            live["engine_events_per_sec"],
            baseline["engine_events_per_sec"],
            floor,
            margin * 100,
            "" if same_host else ", cross-host widened",
        ),
    ]
    return ok, "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest-benchmark targets
# ---------------------------------------------------------------------------


def test_engine_event_throughput(benchmark):
    executed = benchmark(drive_engine)
    assert executed >= EVENTS
    benchmark.extra_info["events"] = executed
    benchmark.extra_info["events_per_sec"] = executed / benchmark.stats["mean"]


def test_smoke_end_to_end_sim(benchmark):
    stats = benchmark(run_smoke_sim)
    assert stats.instructions > 0
    benchmark.extra_info["sim_events"] = stats.mem_accesses


def test_queue_throughput_heap(benchmark):
    increments = _hold_increments(QUEUE_OPS)
    ops = benchmark(
        lambda: drive_queue(HeapEventQueue(), increments=increments)
    )
    benchmark.extra_info["ops_per_sec"] = ops / benchmark.stats["mean"]


def test_queue_throughput_calendar(benchmark):
    increments = _hold_increments(QUEUE_OPS)
    ops = benchmark(
        lambda: drive_queue(CalendarEventQueue(), increments=increments)
    )
    benchmark.extra_info["ops_per_sec"] = ops / benchmark.stats["mean"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _main(argv):
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default="results/BENCH_engine.json",
        help="snapshot trajectory file (default: results/BENCH_engine.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="guard mode: fail if live events/s regressed past the margin",
    )
    parser.add_argument(
        "--queues",
        action="store_true",
        help="print the heap-vs-calendar hold-model sweep across depths",
    )
    args = parser.parse_args(argv)

    if args.check:
        ok, report = check_against_snapshot(path=args.path)
        print(report)
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1
    if args.queues:
        sweep = queue_discipline_sweep()
        print(json.dumps(sweep, indent=2))
        for depth in QUEUE_DEPTHS:
            ratio = sweep["calendar"][depth] / sweep["heap"][depth]
            print(
                "depth %5d: calendar/heap = %.2fx" % (depth, ratio),
                file=sys.stderr,
            )
        return 0
    print(json.dumps(append_snapshot(path=args.path), indent=2))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main(sys.argv[1:]))
