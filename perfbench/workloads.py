"""The benchmark's workloads: which simulation points each one runs.

Every point goes through the public entry points a user's ``repro run``
takes: ``ExperimentSpec`` -> ``launch_kernel`` -> ``Simulator`` ->
``RunRecord.from_stats``.  The sweep workload goes through
``ExperimentRunner.run_sweep`` instead.

``--seed`` picks the simulation seed from :data:`REFERENCE_SEEDS`, the
seeds the reference counters cover.  The points always run in the same
order: the order changes which point pays for trace generation and how
warm the allocator is, which would make the seed move host time.
"""

#: Seed 0 plus one held-out seed.  ``reference.json`` holds the expected
#: counters of every point at both, so every run can be checked.
REFERENCE_SEEDS = (0, 7)

NAMES = ("l1-stream", "translate", "sweep")

#: L1-resident streaming and stencil kernels: time goes to CU issue, the
#: engine queue, the caches and the L1 TLB; the translation path idles.
L1_STREAM = tuple(
    (workload, design, None)
    for workload in ("J1D", "J2D", "C2D", "KM", "FW")
    for design in ("private", "mgvm")
)

#: L1-TLB-missing kernels: time goes to L2 TLB slices, MSHRs, walkers,
#: the page-walk cache, the routed interconnect and dHSL balancing.
TRANSLATE = (
    ("SYRK", "mgvm", None),
    ("SPMV", "shared", None),
    ("GUPS", "shared", (8, "ring")),
)


def simulation_seed(seed):
    """The simulator seed benchmark seed ``seed`` runs with."""
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def point_specs(workload, seed):
    """The ``ExperimentSpec`` points of a default-scale workload."""
    from repro.core.spec import ExperimentSpec, GeometrySpec

    table = {"l1-stream": L1_STREAM, "translate": TRANSLATE}[workload]
    specs = []
    for name, design, geometry in table:
        if geometry is None:
            geometry = GeometrySpec()
        else:
            geometry = GeometrySpec(chiplets=geometry[0], topology=geometry[1])
        specs.append(
            ExperimentSpec(
                workload=name,
                design=design,
                geometry=geometry,
                seed=simulation_seed(seed),
            )
        )
    return specs


def sweep_spec(seed):
    """The smoke-scale ``SweepSpec`` of the sweep workload."""
    from repro.core.spec import DESIGN_GROUPS, REPRESENTATIVE_WORKLOADS, SweepSpec

    return SweepSpec(
        name="perfbench-sweep",
        workloads=REPRESENTATIVE_WORKLOADS,
        designs=DESIGN_GROUPS["main"],
        scale="smoke",
        seed=simulation_seed(seed),
    )


def build_specs(workload, seed):
    """Everything a workload needs before its first point starts."""
    if workload == "sweep":
        spec = sweep_spec(seed)
        return spec, spec.points()
    specs = point_specs(workload, seed)
    return None, specs


#: ``RunStats`` counters checked on top of the ``RunRecord`` counters.
STATS_COUNTERS = (
    "instructions",
    "mem_accesses",
    "l1_tlb_hits",
    "l1_tlb_misses",
    "l1_cache_hits",
    "l2_miss_requests",
    "mshr_merges",
    "mshr_stalls",
    "reroutes",
    "routed_local",
    "routed_remote",
    "data_accesses_local",
    "data_accesses_remote",
)


def run_point(spec):
    """Simulate one point; returns its ``(RunRecord, RunStats)``."""
    from repro.driver.kernel_launch import launch_kernel
    from repro.experiments.runner import RunRecord
    from repro.sim.simulator import Simulator

    params = spec.params()
    launch = launch_kernel(spec.kernel(), params, spec.vm_design())
    simulator = Simulator(launch, params, seed=spec.seed)
    stats = simulator.run()
    record = RunRecord.from_stats(spec.workload, spec.design, stats)
    return record, stats


def record_counters(record):
    """The numeric counters of a ``RunRecord`` (the diff-gate schema)."""
    from repro.stats.diff import flatten_counters

    return flatten_counters(record.to_dict())


def point_counters(record, stats):
    """Record counters plus :data:`STATS_COUNTERS` of one point."""
    counters = record_counters(record)
    for name in STATS_COUNTERS:
        counters[name] = getattr(stats, name)
    return counters
