"""Tests for the host self-profiler (:mod:`repro.obs.profile`) and
:meth:`Engine.run_profiled`."""

import json

import pytest

from repro.arch.params import scaled_params
from repro.core.config import design
from repro.engine.event_queue import Engine
from repro.obs import HostProfiler
from repro.obs.profile import _component_for
from repro.sim.simulator import simulate
from repro.workloads.registry import build_kernel


# -- engine integration -------------------------------------------------------


def test_run_profiled_matches_run_semantics():
    """Same event order/times as run(); every dispatch is recorded."""
    plain, profiled = [], []

    def build(log):
        engine = Engine()

        def emit(tag):
            log.append((tag, engine.now))

        engine.at(5.0, emit, "b")
        engine.at(1.0, emit, "a")
        engine.at(5.0, emit, "c")  # FIFO among ties
        return engine

    build(plain).run()

    engine = build(profiled)
    records = []
    executed = engine.run_profiled(
        lambda callback, seconds: records.append((callback, seconds))
    )
    assert executed == 3
    assert profiled == plain == [("a", 1.0), ("b", 5.0), ("c", 5.0)]
    assert len(records) == 3
    assert all(seconds >= 0.0 for _fn, seconds in records)
    # ``record`` receives the event's function, not a wrapper around it.
    assert {fn.__name__ for fn, _seconds in records} == {"emit"}


def _noop(_arg):
    pass


def test_run_profiled_honours_until_and_max_events():
    def build():
        engine = Engine()
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.at(t, _noop, None)
        return engine

    engine = build()
    assert engine.run_profiled(lambda c, s: None, until=2.5) == 2
    assert engine.now == 2.0
    engine = build()
    assert engine.run_profiled(lambda c, s: None, max_events=3) == 3
    assert len(engine.events) == 1


# -- aggregation --------------------------------------------------------------


def test_component_mapping():
    assert _component_for("repro.sim.cu") == "compute-unit"
    assert _component_for("repro.sim.slice") == "l2-slice"
    assert _component_for("repro.engine.event_queue") == "engine"
    assert _component_for("some.other.module") == "some.other.module"
    assert _component_for(None) == "<unknown>"


def test_record_aggregates_by_code_object():
    profiler = HostProfiler()

    class Slot:
        def hop(self):
            pass

    # Two instances, one code object -> one bucket.
    profiler.record(Slot().hop, 0.25)
    profiler.record(Slot().hop, 0.75)
    rows = profiler.rows()
    assert len(rows) == 1
    component, event, seconds, calls = rows[0]
    assert event.endswith("Slot.hop")
    assert seconds == pytest.approx(1.0)
    assert calls == 2
    assert profiler.total_events == 2
    report = profiler.report(top=5)
    assert report[0]["share"] == pytest.approx(1.0)
    assert report[0]["us_per_event"] == pytest.approx(0.5e6)


# -- end-to-end ---------------------------------------------------------------


@pytest.fixture(scope="module")
def profiled_run():
    kernel = build_kernel("GUPS", scale="smoke")
    params = scaled_params("smoke")
    profiler = HostProfiler()
    stats = simulate(kernel, params, design("mgvm"), profiler=profiler)
    return profiler, stats


def test_profiled_simulation_results_are_identical(profiled_run):
    _profiler, stats = profiled_run
    kernel = build_kernel("GUPS", scale="smoke")
    params = scaled_params("smoke")
    baseline = simulate(kernel, params, design("mgvm"))
    assert stats.cycles == baseline.cycles
    assert stats.walks == baseline.walks
    assert stats.throughput == baseline.throughput


def test_profile_attributes_known_components(profiled_run):
    profiler, stats = profiled_run
    assert profiler.total_events > 0
    assert profiler.total_seconds > 0.0
    components = set(profiler.by_component())
    assert "compute-unit" in components
    assert "l2-slice" in components
    assert components  # every bucket grouped somewhere
    # The shares sum to ~1 over all buckets.
    total_share = sum(
        entry["share"] for entry in profiler.report(top=10**6)
    )
    assert total_share == pytest.approx(1.0)
    text = profiler.format_report(top=5)
    assert "us/event" in text
    assert "host wall-clock" in text


def test_translation_path_events_are_named_methods():
    """Every event kind is a named function: no closure is scheduled, so
    no bucket is a ``<lambda>`` or a ``<locals>`` function, and the
    translation response is billed to the CU that consumes it."""
    kernel = build_kernel("SYRK", scale="smoke")
    params = scaled_params("smoke")
    profiler = HostProfiler()
    simulate(kernel, params, design("mgvm"), profiler=profiler)
    rows = profiler.rows()
    events = {event for _component, event, _s, _calls in rows}
    assert not [e for e in events if "<lambda>" in e or "<locals>" in e]
    translated = [
        (component, calls)
        for component, event, _s, calls in rows
        if event == "ComputeUnit._translated"
    ]
    assert len(translated) == 1
    component, calls = translated[0]
    assert component == "compute-unit"
    assert calls > 0
    for name in ("L2TLBSlice._lookup_done", "WalkerPool._fetch_level",
                 "_WavefrontSlot._issue"):
        assert name in events


def test_speedscope_export_is_loadable(profiled_run, tmp_path):
    profiler, _stats = profiled_run
    path = tmp_path / "profile.speedscope.json"
    profiler.write_speedscope(str(path), name="test profile")
    with open(str(path)) as handle:
        payload = json.load(handle)
    assert payload["$schema"] == (
        "https://www.speedscope.app/file-format-schema.json"
    )
    frames = payload["shared"]["frames"]
    assert frames and all("name" in frame for frame in frames)
    (profile,) = payload["profiles"]
    assert profile["type"] == "sampled"
    assert profile["unit"] == "microseconds"
    assert len(profile["samples"]) == len(profile["weights"])
    assert profile["samples"], "no samples exported"
    for sample in profile["samples"]:
        assert len(sample) == 2  # component > event stacks
        assert all(0 <= index < len(frames) for index in sample)
    assert sum(profile["weights"]) == pytest.approx(
        profiler.total_seconds * 1e6
    )


def test_collapsed_export_format(profiled_run, tmp_path):
    profiler, _stats = profiled_run
    path = tmp_path / "profile.collapsed"
    profiler.write_collapsed(str(path))
    lines = open(str(path)).read().splitlines()
    assert lines
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack.startswith("repro;")
        assert len(stack.split(";")) == 3
        assert int(weight) >= 1
