"""Benchmark-side tracing: spans around the public function of each layer.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces, for the life of the process, the public functions listed in
:data:`LAYERS` with wrappers that time every call; because pool workers
are forked from the tracing process, they inherit the wrappers too.

What is kept in memory:

* every call of a *phase* layer (``span=True``: launch, simulator init,
  dispatch, record, store writes, ...) as one span record
  ``(id, parent id, layer, point, start, end)``;
* every call of a *per-access* layer (TLB lookup, cache access, ...) folded
  into an aggregate keyed by ``(parent layer, layer)``: calls, busy
  seconds and the seconds its child spans cover.  A per-access span log
  would hold millions of records per point.

A layer's self time is its span time minus its child spans, minus the
calibrated cost the wrappers themselves add (:meth:`Tracer.calibrate`).
"""

import importlib
import json
import os
import sys
import time
import uuid

perf_counter = time.perf_counter

ROOT = "(unattributed)"

#: ``(layer, module, owner classes or None for a module function,
#: attributes, record spans?)``.  The first word of a layer names the
#: ``src/repro/<module>`` package whose public function it wraps.
LAYERS = (
    ("engine.run", "repro.engine.event_queue", ("Engine",), ("run",), True),
    ("sim.simulator_init", "repro.sim.simulator", ("Simulator",),
     ("__init__",), True),
    ("sim.translation_request", "repro.sim.translation",
     ("TranslationSystem",), ("request",), False),
    ("sim.slice_receive", "repro.sim.slice", ("L2TLBSlice",), ("receive",),
     False),
    ("sim.walker_walk", "repro.sim.walkers", ("WalkerPool",), ("walk",),
     False),
    ("vm.tlb_lookup", "repro.vm.tlb", ("TLB",), ("lookup",), False),
    ("vm.tlb_insert", "repro.vm.tlb", ("TLB",), ("insert",), False),
    ("vm.mshr", "repro.vm.mshr", ("MSHRFile",),
     ("merge", "allocate", "complete", "park", "unpark"), False),
    ("vm.pwc", "repro.vm.walk_cache", ("PageWalkCache",),
     ("first_level_to_fetch", "fill"), False),
    ("vm.page_table", "repro.vm.page_table", ("PageTable",),
     ("translate", "is_mapped", "node_for", "pte_line_address"), False),
    ("mem.memory_access", "repro.mem.memory_system", ("MemorySystem",),
     ("access",), False),
    ("mem.cache_access", "repro.mem.cache", ("Cache",),
     ("access", "access_if_hit"), False),
    ("arch.traverse", "repro.arch.interconnect", ("Interconnect",),
     ("traverse",), False),
    ("core.hsl_home", "repro.core.hsl",
     ("PrivateHSL", "InterleaveHSL", "XorFoldHSL", "DynamicHSL"),
     ("home",), False),
    ("core.balance", "repro.core.balance", ("BalanceController",),
     ("note_routed", "note_slice_access"), False),
    ("workloads.build_kernel", "repro.workloads.registry", None,
     ("build_kernel",), True),
    # Trace generation has no public function of its own: the simulator
    # asks the kernel for its per-CTA traces (memoized) here.
    ("workloads.trace_gen", "repro.sim.simulator", None, ("_traces_for",),
     True),
    ("driver.launch_kernel", "repro.driver.kernel_launch", None,
     ("launch_kernel",), True),
    ("stats.from_stats", "repro.experiments.runner", ("RunRecord",),
     ("from_stats",), True),
    ("obs.store_open", "repro.obs.store", ("RunStore",), ("__init__",), True),
    ("obs.store_write", "repro.obs.store", ("RunStore",),
     ("begin_run", "finish_run", "insert_run", "insert_epochs",
      "insert_digests", "insert_violations"), True),
    ("obs.bus_flush", "repro.obs.bus", ("MetricsBus",), ("flush",), True),
    ("experiments.run_sweep", "repro.experiments.runner",
     ("ExperimentRunner",), ("run_sweep",), True),
)

#: Spans the benchmark opens itself (no ``src/`` function behind them).
BENCH_LAYERS = ("bench.point", "experiments.simulate_spec")

LAYER_NAMES = tuple(layer[0] for layer in LAYERS) + BENCH_LAYERS


class Tracer:
    """In-memory span recorder shared by every wrapper it installs."""

    def __init__(self):
        # Frames: [child seconds, layer, span id of nearest recorded span].
        self.stack = [[0.0, ROOT, -1]]
        self.agg = {}  # (parent layer, layer) -> [calls, seconds, child s]
        self.spans = []  # (id, parent id, layer, point, start, end)
        self.errors = {}  # layer -> {exception type: count}
        self.events = 0  # Engine.run return values (events executed)
        self.stats = []  # RunStats seen by RunRecord.from_stats
        self.point = None
        self.missing = []  # LAYERS entries whose function was not found
        self.delays = {}  # layer -> injected busy-wait seconds per call
        self.inner = 0.0  # calibrated wrapper cost inside a span
        self.outer = 0.0  # ... and outside it (lands in the parent)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, layer, span=False):
        """``fn`` timed as one call of ``layer``."""
        stack = self.stack
        agg = self.agg
        spans = self.spans
        tracer = self
        delay = self.delays.get(layer)
        if delay:
            fn = _delayed(fn, delay)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                span_id = len(spans)
                spans.append(None)
                frame = [0.0, layer, span_id]
            else:
                frame = [0.0, layer, parent[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors = tracer.errors.setdefault(layer, {})
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                parent[0] += elapsed
                key = (parent[1], layer)
                stat = agg.get(key)
                if stat is None:
                    stat = agg[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if span:
                    spans[span_id] = (
                        span_id, parent[2], layer, tracer.point, start, end
                    )

        return traced

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a recorded span of a benchmark layer."""
        return self.wrap(fn, layer, span=True)(*args, **kwargs)

    def install(self):
        """Wrap every :data:`LAYERS` function; returns self."""
        for layer, module_name, owners, attributes, span in LAYERS:
            module = importlib.import_module(module_name)
            for attribute in attributes:
                if owners is None:
                    self._wrap_function(module, attribute, layer, span)
                    continue
                for owner in owners:
                    cls = getattr(module, owner, None)
                    if cls is None or attribute not in vars(cls):
                        self.missing.append("%s.%s" % (owner, attribute))
                        continue
                    self._wrap_method(cls, attribute, layer, span)
        return self

    def _wrap_function(self, module, attribute, layer, span):
        original = getattr(module, attribute, None)
        if original is None:
            self.missing.append("%s.%s" % (module.__name__, attribute))
            return
        traced = self.wrap(original, layer, span)
        # Rebind every name the function was imported under.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "repro":
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    setattr(other, name, traced)

    def _wrap_method(self, cls, attribute, layer, span):
        raw = vars(cls)[attribute]
        if layer == "engine.run":
            # Engine.run returns the number of events it executed.
            def counted(*args, **kwargs):
                executed = raw(*args, **kwargs)
                self.events += executed
                return executed

            setattr(cls, attribute, self.wrap(counted, layer, span))
            return
        if isinstance(raw, classmethod):
            traced = self.wrap(raw.__func__, layer, span)
            if attribute == "from_stats":
                traced = self._observe_stats(traced)
            setattr(cls, attribute, classmethod(traced))
            return
        setattr(cls, attribute, self.wrap(raw, layer, span))

    def _observe_stats(self, traced):
        """Keep the ``RunStats`` every ``RunRecord.from_stats`` call sees."""
        def observed(cls, workload, design_name, stats):
            self.stats.append(stats_counters(stats))
            return traced(cls, workload, design_name, stats)

        return observed

    # -- calibration ------------------------------------------------------------

    def calibrate(self, calls=20000, rounds=7):
        """Measure what one wrapper adds inside and outside its span."""
        def empty():
            return None

        probe = Tracer()
        traced = probe.wrap(empty, "calibration")
        inner = outer = float("inf")
        for _ in range(rounds):
            probe.agg.clear()
            start = perf_counter()
            for _ in range(calls):
                empty()
            bare = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                traced()
            wrapped = perf_counter() - start
            measured = probe.agg[(ROOT, "calibration")][1] / calls
            inner = min(inner, measured)
            outer = min(outer, max(0.0, (wrapped - bare) / calls - measured))
        self.inner, self.outer = inner, outer
        return inner, outer

    # -- worker processes ---------------------------------------------------

    def reset(self, point):
        """Forget everything recorded so far (a forked worker's copy)."""
        del self.stack[1:]
        self.stack[0][0] = 0.0
        self.agg.clear()
        del self.spans[:]
        self.errors.clear()
        self.events = 0
        del self.stats[:]
        self.point = point

    def dump(self):
        """Everything recorded, as plain JSON-able data."""
        return {
            "agg": [[p, l, *v] for (p, l), v in self.agg.items()],
            "spans": self.spans,
            "errors": self.errors,
            "events": self.events,
            "stats": self.stats,
        }

    def merge(self, data):
        """Add a :meth:`dump` from another process to this tracer."""
        for parent, layer, calls, seconds, child in data["agg"]:
            stat = self.agg.setdefault((parent, layer), [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += seconds
            stat[2] += child
        self.spans.extend(rebase(data["spans"], len(self.spans)))
        add_errors(self.errors, data["errors"])
        self.events += data["events"]
        self.stats.extend(data["stats"])

    # -- results ---------------------------------------------------------------

    def layer_table(self):
        """``{layer: {calls, s, self_s}}`` with wrapper costs removed.

        ``s`` counts only outermost calls of a layer (a recursive call is
        inside its parent's time already).  ``self_s`` subtracts the
        wrapper's own cost: ``inner`` per call of the layer and ``outer``
        per call of each direct child.
        """
        table = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0}
            for name in LAYER_NAMES
        }
        table[ROOT] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for (parent, layer), (calls, seconds, child) in self.agg.items():
            row = table.setdefault(
                layer, {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            row["calls"] += calls
            if parent != layer:
                row["s"] += seconds
            row["self_s"] += seconds - child - calls * self.inner
            table.setdefault(
                parent, {"calls": 0, "s": 0.0, "self_s": 0.0}
            )["self_s"] -= calls * self.outer
        return table

    def wrapper_overhead(self):
        """Estimated seconds the wrappers added to the traced run."""
        calls = sum(stat[0] for stat in self.agg.values())
        return calls * (self.inner + self.outer)


def hook_pool_points(around):
    """Run every sweep point a pool worker simulates through ``around``.

    ``around(simulate, spec, obs)`` replaces the runner's per-point worker
    function in forked pool workers and must return ``simulate(spec,
    obs)``'s record; points this process simulates itself are untouched.
    """
    runner = importlib.import_module("repro.experiments.runner")
    original = runner._simulate_spec
    parent = os.getpid()

    def simulate_spec(spec, obs=None):
        if os.getpid() == parent:
            return original(spec, obs)
        return around(original, spec, obs)

    # Pickled by reference into the pool: resolve to this wrapper.
    simulate_spec.__module__ = original.__module__
    simulate_spec.__qualname__ = original.__qualname__
    runner._simulate_spec = simulate_spec


def install_worker_hook(tracer, directory):
    """Trace each sweep point inside the pool worker that runs it.

    Workers are forked with the wrappers already installed; this hook
    clears a worker's inherited copy of the tracer at each point and
    writes what the point recorded to ``directory`` when it ends.
    """
    def traced_point(simulate, spec, obs):
        tracer.reset(spec.cache_key())
        try:
            return tracer.span("experiments.simulate_spec", simulate, spec, obs)
        finally:
            name = "%d-%s.json" % (os.getpid(), uuid.uuid4().hex[:8])
            write_json(os.path.join(directory, name), tracer.dump())

    hook_pool_points(traced_point)


def summarize(tracer, workers, wall, plain_wall):
    """Per-layer metrics, reconciliation and bypass flags of a traced run.

    ``tracer`` recorded the process that ran the points (for the sweep,
    the parent, whose points ran in ``workers``); ``wall`` is the traced
    pass's host seconds and ``plain_wall`` the untraced pass's.
    """
    table = tracer.layer_table()
    busy = _self_sum(table)
    reconcile = {
        "traced_wall_s": wall,
        "layer_self_s": busy,
        "unattributed_s": wall - busy,
        "wrapper_overhead_s": tracer.wrapper_overhead(),
    }
    stats = list(tracer.stats)
    events = tracer.events
    errors = {}
    add_errors(errors, tracer.errors)
    spans = list(tracer.spans)
    if workers is not None:
        worker_table = workers.layer_table()
        points = worker_table["experiments.simulate_spec"]["s"]
        worker_busy = _self_sum(worker_table)
        reconcile["workers"] = {
            "point_s": points,
            "layer_self_s": worker_busy,
            "unattributed_s": points - worker_busy,
            "wrapper_overhead_s": workers.wrapper_overhead(),
        }
        for name, row in worker_table.items():
            mine = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in ("calls", "s", "self_s"):
                mine[field] += row[field]
        stats += workers.stats
        events += workers.events
        add_errors(errors, workers.errors)
        spans += rebase(workers.spans, len(spans))

    totals = {}
    for point in stats:
        for name, value in point.items():
            totals[name] = totals.get(name, 0) + value

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("engine.events", events, "count")
    for layer in LAYER_NAMES:
        row = table[layer]
        if layer == "engine.run":
            put("engine.run.calls", row["calls"], "count")
            put("engine.run.s", row["s"], "s")
            put("sim.dispatch.self_s", row["self_s"], "s")
            continue
        if layer in BENCH_LAYERS:
            continue
        put(layer + ".calls", row["calls"], "count")
        put(layer + ".s", row["s"], "s")
        put(layer + ".self_s", row["self_s"], "s")
    put("obs.store_lock_failures",
        errors.get("obs.store_open", {}).get("OperationalError", 0), "count")
    put("sim.l1_tlb_hit_rate", _ratio(
        totals.get("l1_tlb_hits", 0),
        totals.get("l1_tlb_hits", 0) + totals.get("l1_tlb_misses", 0)),
        "ratio")
    put("sim.l1_cache_hits", totals.get("l1_cache_hits", 0), "count")
    put("sim.l2_hit_rate", _ratio(totals.get("l2_hits", 0),
                                  totals.get("l2_requests", 0)), "ratio")
    put("sim.walks", totals.get("walks", 0), "count")
    put("vm.mshr_merge_ratio", _ratio(totals.get("mshr_merges", 0),
                                      totals.get("l2_miss_requests", 0)),
        "ratio")
    put("mem.data_remote_fraction", _ratio(
        totals.get("data_remote", 0),
        totals.get("data_local", 0) + totals.get("data_remote", 0)), "ratio")
    put("arch.translation_hops", totals.get("translation_hops", 0), "count")
    put("core.balance_switches", totals.get("balance_switches", 0), "count")
    put("trace.wall_s", wall, "s")
    put("trace.untraced_wall_s", plain_wall, "s")
    put("trace_overhead", wall / plain_wall, "x")
    put("trace.unattributed_s", reconcile["unattributed_s"], "s")
    put("trace.wrapper_overhead_s", reconcile["wrapper_overhead_s"], "s")

    flags = ["layer function not found: %s" % name for name in tracer.missing]
    flags += _bypass_flags(table, totals, len(stats))
    put("trace.flags", len(flags), "count")
    return {"metrics": metrics, "reconcile": reconcile, "flags": flags,
            "layers": table, "errors": errors, "spans": spans,
            "calibration": {"inner_s": tracer.inner,
                            "outer_s": tracer.outer}}


def _bypass_flags(table, totals, points):
    """Layers whose wrapped calls fall short of what ``RunStats`` implies.

    Each expectation is a lower bound on the public-function calls the
    counted work needs; fewer calls means the layer's state was updated
    without going through its public function, so its time is charged
    to the caller instead.
    """
    expected = {
        # One L1 lookup per access, one slice lookup per L2 request.
        "vm.tlb_lookup": totals.get("l1_tlb_hits", 0)
        + totals.get("l1_tlb_misses", 0) + totals.get("l2_requests", 0),
        # One L1 access per memory access, one L2 access per memory-
        # system access.
        "mem.cache_access": totals.get("mem_accesses", 0)
        + table["mem.memory_access"]["calls"],
        "sim.translation_request": totals.get("routed", 0),
        "sim.walker_walk": totals.get("walks", 0),
        "stats.from_stats": points,
    }
    flags = []
    for layer, want in sorted(expected.items()):
        have = table[layer]["calls"]
        if have < want:
            flags.append(
                "%s: %d calls, RunStats implies at least %d; %d bypass the "
                "public function and are timed as their caller"
                % (layer, have, want, want - have)
            )
    return flags


def add_errors(into, errors):
    """Add ``{layer: {exception type: count}}`` counts to ``into``."""
    for layer, counts in errors.items():
        mine = into.setdefault(layer, {})
        for name, count in counts.items():
            mine[name] = mine.get(name, 0) + count


def rebase(spans, base):
    """``spans`` with their ids moved past ``base`` (-1: no parent)."""
    return [
        (span_id + base, parent + base if parent >= 0 else -1, *rest)
        for span_id, parent, *rest in spans
    ]


def _self_sum(table):
    return sum(
        row["self_s"] for name, row in table.items()
        if name != ROOT and name not in BENCH_LAYERS
    )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def stats_counters(stats):
    """The ``RunStats`` counters the per-layer metrics are built from."""
    return {
        "mem_accesses": stats.mem_accesses,
        "l1_tlb_hits": stats.l1_tlb_hits,
        "l1_tlb_misses": stats.l1_tlb_misses,
        "l1_cache_hits": stats.l1_cache_hits,
        "l2_hits": stats.l2_hits_local + stats.l2_hits_remote,
        "l2_requests": stats.l2_requests,
        "l2_miss_requests": stats.l2_miss_requests,
        "mshr_merges": stats.mshr_merges,
        "walks": stats.walks,
        "routed": stats.routed_local + stats.routed_remote,
        "data_local": stats.data_accesses_local,
        "data_remote": stats.data_accesses_remote,
        "translation_hops": stats.translation_hops,
        "balance_switches": len(stats.balance_switches),
    }


def _delayed(fn, seconds):
    """``fn`` followed by a busy-wait of ``seconds`` (the self-test)."""
    def delayed(*args, **kwargs):
        result = fn(*args, **kwargs)
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return result

    return delayed


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
