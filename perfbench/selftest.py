"""Self-test of the traced run: an injected delay must land in its layer.

    python3 perfbench/selftest.py

Runs a traced pass of one translate point (GUPS/shared on the 8-chiplet
ring) and of two l1-stream points (FW under private and mgvm), each
twice in a fresh interpreter: once plain, once with a busy-wait of
``DELAY_S`` added to every ``WalkerPool.walk`` call by the benchmark's
own wrapper.  It passes when, on both workloads,

* ``sim.walker_walk`` self time rises by the injected total (calls x
  delay, within 10%/+25%), and
* every other layer keeps its share of the remaining self time to
  within ``SHARE_TOLERANCE``.

Exits 0 on pass, 1 on failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

DELAY_S = 1e-3
SHARE_TOLERANCE = 0.03
CASES = {
    "translate": (("GUPS", "shared"),),
    "l1-stream": (("FW", "private"), ("FW", "mgvm")),
}
TARGET = "sim.walker_walk"


def child(workload, inject):
    """Run one traced pass here; print its layer table as JSON."""
    import run

    sys.path.insert(0, os.path.abspath("src"))
    outcome = run.Outcome()
    summary = run.traced(
        workload, 0, outcome, run.load_reference(),
        delay={TARGET: DELAY_S} if inject else None,
        only=set(CASES[workload]),
    )
    if summary is None or outcome.failed:
        sys.exit("traced pass failed: %s" % outcome.failed_by_type)
    print(json.dumps(summary["layers"]))


def traced_layers(workload, inject):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload,
         "1" if inject else "0"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=600,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def shares(table):
    """Self-time share of every layer but :data:`TARGET`."""
    import layers

    names = [
        name for name in table
        if name not in (TARGET, layers.ROOT) and name not in layers.BENCH_LAYERS
    ]
    total = sum(table[name]["self_s"] for name in names)
    return {name: table[name]["self_s"] / total for name in names}


def check(workload):
    plain = traced_layers(workload, False)
    injected = traced_layers(workload, True)
    failures = []
    calls = injected[TARGET]["calls"]
    expected = calls * DELAY_S
    rise = injected[TARGET]["self_s"] - plain[TARGET]["self_s"]
    print("%s: %s self time +%.3f s over %d calls, injected %.3f s" % (
        workload, TARGET, rise, calls, expected))
    if not expected * 0.9 <= rise <= expected * 1.25:
        failures.append("%s: %s rose %.3f s, injected %.3f s"
                        % (workload, TARGET, rise, expected))
    before, after = shares(plain), shares(injected)
    for name in sorted(before):
        moved = after[name] - before[name]
        if abs(moved) > SHARE_TOLERANCE:
            failures.append("%s: share of %s moved %+.3f" % (
                workload, name, moved))
    worst = max(before, key=lambda name: abs(after[name] - before[name]))
    print("%s: largest share move elsewhere %s %+.4f" % (
        workload, worst, after[worst] - before[worst]))
    return failures


def main():
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3] == "1")
        return 0
    failures = []
    for workload in CASES:
        failures += check(workload)
    for failure in failures:
        print("FAIL:", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
