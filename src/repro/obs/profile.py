"""Host-side self-profiler: where does the *wall clock* go?

The tracer and metrics recorder observe simulated time;
:class:`HostProfiler` observes host time.  It plugs into
:meth:`repro.engine.event_queue.Engine.run_profiled`, which times every
dispatched ``fn(arg)`` event and reports ``(fn, seconds)`` pairs.  The
profiler aggregates them per **event kind** (the function's qualified
name — ``_WavefrontSlot._issue``, ``WalkerPool._fetch_level``,
``L2TLBSlice._lookup_done``, ``ComputeUnit._translated``, ...) grouped
under a friendly **component** derived from the defining module
(``compute-unit``, ``l2-slice``, ``walker``, ``memory``, ...).  Because
the simulator schedules named functions, never closures, each event is
billed to the method that does the work.

Attribution is keyed by the function's *code object*, so the hot path is
one dict lookup + two float adds per event, and every bound method of
every instance of a class shares one bucket.

Exports:

* :meth:`report` / :meth:`format_report` — top-N text table
  (component, event kind, calls, seconds, share, us/event);
* :meth:`write_speedscope` — a https://www.speedscope.app sampled
  profile (one weighted two-frame stack ``component > event`` per
  aggregation bucket), loadable directly in the speedscope UI;
* :meth:`write_collapsed` — Brendan-Gregg collapsed-stack lines
  (``repro;component;event weight_us``) for ``flamegraph.pl`` and
  friends.

Use via ``repro profile WORKLOAD DESIGN`` or programmatically::

    profiler = HostProfiler()
    stats = simulate(kernel, params, design("mgvm"), profiler=profiler)
    print(profiler.format_report())
    profiler.write_speedscope("profile.speedscope.json")
"""

import json

#: Module (prefix) -> friendly component label.  Longest prefix wins.
COMPONENT_MAP = {
    "repro.sim.cu": "compute-unit",
    "repro.sim.slice": "l2-slice",
    "repro.sim.translation": "translation",
    "repro.sim.walkers": "walker",
    "repro.sim.simulator": "simulator",
    "repro.engine.resources": "resources",
    "repro.engine": "engine",
    "repro.mem": "memory",
    "repro.core.balance": "balance",
    "repro.core": "core",
    "repro.driver": "driver",
    "repro.vm": "vm",
}


def _component_for(module):
    """Friendly component label for a defining module name."""
    if module:
        prefix = module
        while prefix:
            label = COMPONENT_MAP.get(prefix)
            if label is not None:
                return label
            if "." not in prefix:
                break
            prefix = prefix.rsplit(".", 1)[0]
    return module or "<unknown>"


class HostProfiler:
    """Aggregates host wall-clock per component/event-kind."""

    def __init__(self):
        # code object -> [seconds, calls]; identity of the *code* makes
        # every bound method of every instance share one bucket.
        self._acc = {}
        # code object -> (module, qualname), resolved lazily at first
        # sight so the record() hot path never touches __module__.
        self._names = {}
        self.total_seconds = 0.0
        self.total_events = 0

    # -- hot path -----------------------------------------------------------

    def record(self, fn, seconds):
        """Account one dispatched event (called by ``run_profiled``)."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        key = code if code is not None else fn
        entry = self._acc.get(key)
        if entry is None:
            self._acc[key] = entry = [0.0, 0]
            self._names[key] = (
                getattr(func, "__module__", None),
                getattr(func, "__qualname__", repr(fn)),
            )
        entry[0] += seconds
        entry[1] += 1
        self.total_seconds += seconds
        self.total_events += 1

    # -- aggregation --------------------------------------------------------

    def rows(self):
        """Aggregated buckets: ``(component, event, seconds, calls)``,
        sorted by descending wall-clock."""
        out = []
        for key, (seconds, calls) in self._acc.items():
            module, qualname = self._names[key]
            out.append((_component_for(module), qualname, seconds, calls))
        out.sort(key=lambda row: -row[2])
        return out

    def by_component(self):
        """``{component: seconds}`` rollup."""
        rollup = {}
        for component, _event, seconds, _calls in self.rows():
            rollup[component] = rollup.get(component, 0.0) + seconds
        return rollup

    def report(self, top=15):
        """The top-``top`` buckets as dicts (JSON/table-friendly)."""
        total = self.total_seconds or 1.0
        out = []
        for component, event, seconds, calls in self.rows()[:top]:
            out.append(
                {
                    "component": component,
                    "event": event,
                    "calls": calls,
                    "seconds": seconds,
                    "share": seconds / total,
                    "us_per_event": seconds / calls * 1e6 if calls else 0.0,
                }
            )
        return out

    def format_report(self, top=15):
        """Aligned text table of the top-``top`` buckets."""
        from repro.stats.report import format_table

        rows = [
            [
                entry["component"],
                entry["event"],
                entry["calls"],
                "%.4f" % entry["seconds"],
                "%.1f%%" % (entry["share"] * 100.0),
                "%.2f" % entry["us_per_event"],
            ]
            for entry in self.report(top=top)
        ]
        table = format_table(
            ["component", "event", "calls", "seconds", "share", "us/event"],
            rows,
        )
        return "%s\ntotal: %d events, %.4fs host wall-clock" % (
            table,
            self.total_events,
            self.total_seconds,
        )

    # -- exporters ----------------------------------------------------------

    def speedscope(self, name="repro profile"):
        """The profile as a speedscope file-format dict.

        One *sampled* profile: each aggregation bucket becomes one
        weighted sample whose stack is ``[component, event]``, so the
        flamegraph's first level splits host time by component and the
        second by event kind.  Weights are microseconds.
        """
        frames = []
        frame_index = {}

        def frame(label):
            index = frame_index.get(label)
            if index is None:
                index = frame_index[label] = len(frames)
                frames.append({"name": label})
            return index

        samples = []
        weights = []
        for component, event, seconds, _calls in self.rows():
            samples.append([frame(component), frame("%s" % event)])
            weights.append(seconds * 1e6)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro profile",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "microseconds",
                    "startValue": 0,
                    "endValue": self.total_seconds * 1e6,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def write_speedscope(self, path, name="repro profile"):
        """Write a speedscope-loadable JSON file."""
        with open(path, "w") as handle:
            json.dump(self.speedscope(name=name), handle)

    def write_collapsed(self, path):
        """Write collapsed-stack lines (``flamegraph.pl`` input).

        Weights are integer microseconds; buckets rounding to zero are
        kept at weight 1 so no observed call site disappears.
        """
        with open(path, "w") as handle:
            for component, event, seconds, _calls in self.rows():
                weight = max(1, int(round(seconds * 1e6)))
                handle.write("repro;%s;%s %d\n" % (component, event, weight))

    def summary(self):
        out = {
            "events": self.total_events,
            "seconds": round(self.total_seconds, 6),
            "buckets": len(self._acc),
            "by_component": {
                component: round(seconds, 6)
                for component, seconds in sorted(
                    self.by_component().items(), key=lambda kv: -kv[1]
                )
            },
        }
        return out
