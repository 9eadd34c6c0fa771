"""Regenerate ``perfbench/reference.json``, the expected point counters.

Every point of every workload, at each of ``REFERENCE_SEEDS``, is run
under the heap-queue oracle engine (``ENGINE_MODES["heap-oracle"]``) and
under the default engine; the two must agree counter for counter, and
the oracle's counters are written out.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Regenerate only when a change is meant to move simulated results.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _under_engine(engine_spec, fn):
    """Call ``fn()`` with ``engine_spec``'s engine variables applied."""
    env = {k: v for k, v in engine_spec.env().items() if v is not None}
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        return fn()
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def _counters(spec, smoke):
    record, stats = workloads.run_point(spec)
    if smoke:
        return workloads.record_counters(record)
    return workloads.point_counters(record, stats)


def main():
    from repro.core.spec import ENGINE_MODES
    from repro.sim.simulator import clear_trace_cache

    oracle = ENGINE_MODES["heap-oracle"]
    points = {}
    for seed in workloads.REFERENCE_SEEDS:
        specs = [
            (spec, False)
            for name in ("l1-stream", "translate")
            for spec in workloads.point_specs(name, seed)
        ]
        specs += [
            (spec, True)
            for spec in workloads.sweep_spec(seed).points()
        ]
        for spec, smoke in specs:
            clear_trace_cache()
            expected = _under_engine(oracle, lambda: _counters(spec, smoke))
            clear_trace_cache()
            actual = _counters(spec, smoke)
            if expected != actual:
                diff = sorted(
                    k for k in expected if expected[k] != actual.get(k)
                )
                sys.exit(
                    "default engine disagrees with the heap oracle on %s: %s"
                    % (spec.cache_key(), diff)
                )
            points[spec.cache_key()] = expected
            print("ok", spec.cache_key(), flush=True)
    payload = {
        "engine": "heap-oracle (checked equal to the default engine)",
        "seeds": list(workloads.REFERENCE_SEEDS),
        "points": points,
    }
    with open(OUT, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d points to %s" % (len(points), OUT))


if __name__ == "__main__":
    main()
