"""White-box tests of the translation path: slices, walkers, routing.

These build a tiny custom kernel so the expected homes/latencies can be
computed by hand, then drive requests through the TranslationSystem.
"""

import pytest

from repro.arch.params import scaled_params
from repro.core.config import design
from repro.driver.kernel_launch import launch_kernel
from repro.sim.simulator import Simulator
from repro.vm.address import KB, MB
from repro.workloads.base import AllocationSpec, KernelSpec, streaming


def tiny_kernel(trace_fn, allocations=None, num_ctas=4, lasp_class="NL"):
    return KernelSpec(
        name="tiny",
        lasp_class=lasp_class,
        allocations=allocations or [AllocationSpec("a", 1 * MB)],
        num_ctas=num_ctas,
        trace=trace_fn,
        compute_gap=1,
        cta_partition="blocked",
    )


def build(design_name, trace_fn, **kernel_kwargs):
    params = scaled_params("smoke")
    kernel = tiny_kernel(trace_fn, **kernel_kwargs)
    launch = launch_kernel(kernel, params, design(design_name))
    return Simulator(launch, params), params


class TestRouting:
    def test_private_requests_never_enter_other_slices(self):
        def trace(cta, ctx):
            start = (cta * 17 * 4096) % (1 * MB - 4096)
            return streaming(ctx.base("a"), start, 16, 4096)

        sim, _ = build("private", trace)
        stats = sim.run()
        assert stats.routed_remote == 0
        # No slice ever received a request from another chiplet.
        assert all(count == 0 for count in stats.per_chiplet_incoming)

    def test_shared_homes_follow_page_interleave(self):
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 8, 4096)

        sim, params = build("shared", trace)
        hsl = sim.launch.hsl
        base = sim.launch.bases["a"]
        homes = [hsl.home(base + i * 4096) for i in range(8)]
        assert homes == [(base // 4096 + i) % 4 for i in range(8)]

    def test_walks_happen_on_home_chiplet(self):
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 64, 4096)

        sim, _ = build("shared", trace)
        sim.run()
        started = [pool.walks_started for pool in sim.translation.walkers]
        # Page-interleave spreads misses across all four walker pools.
        assert all(count > 0 for count in started)

    def test_private_walks_only_on_requester_chiplets(self):
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 64, 4096)

        sim, _ = build("private", trace, num_ctas=1)
        sim.run()
        started = [pool.walks_started for pool in sim.translation.walkers]
        assert started[0] > 0
        assert started[1] == started[2] == started[3] == 0


class TestMSHRBehaviour:
    def test_concurrent_same_page_misses_merge(self):
        # All CTAs touch the same page at the same time: one walk, many
        # merged waiters.
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 4, 64)

        sim, _ = build("shared", trace, num_ctas=16)
        stats = sim.run()
        vpn_count = 1
        assert stats.walks == vpn_count
        assert stats.mshr_merges > 0

    def test_mshr_pressure_parks_requests(self):
        def trace(cta, ctx):
            start = (cta * 97 * 4096) % (1 * MB // 2)
            return streaming(ctx.base("a"), start, 64, 4096)

        params = scaled_params("smoke", l2_tlb_mshrs=1)
        kernel = tiny_kernel(trace, num_ctas=32)
        launch = launch_kernel(kernel, params, design("shared"))
        sim = Simulator(launch, params)
        stats = sim.run()
        assert stats.mshr_stalls > 0
        # Back-pressure may delay but never lose requests.
        assert stats.instructions == stats.mem_accesses * 2


class TestRemoteCaching:
    def test_remote_entries_get_cached_locally(self):
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 32, 4096)

        sim, _ = build("remote-caching", trace, num_ctas=8)
        sim.run()
        # The same VPNs should appear in more than one slice (duplication),
        # which is exactly the capacity cost of Figure 16.
        vpns_per_slice = [
            {entry.vpn for entry in s.tlb.iter_entries()}
            for s in sim.translation.slices
        ]
        total = sum(len(v) for v in vpns_per_slice)
        distinct = len(set().union(*vpns_per_slice))
        assert total > distinct

    def test_plain_shared_never_duplicates(self):
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 32, 4096)

        sim, _ = build("shared", trace, num_ctas=8)
        sim.run()
        vpns_per_slice = [
            {entry.vpn for entry in s.tlb.iter_entries()}
            for s in sim.translation.slices
        ]
        total = sum(len(v) for v in vpns_per_slice)
        distinct = len(set().union(*vpns_per_slice))
        assert total == distinct


class TestWalkLatency:
    def test_walk_latency_includes_queueing(self):
        def trace(cta, ctx):
            start = (cta * 31 * 4096) % (1 * MB - 64 * 4096)
            return streaming(ctx.base("a"), start, 64, 4096)

        few_params = scaled_params("smoke", num_walkers=1)
        many_params = scaled_params("smoke", num_walkers=16)
        kernel = tiny_kernel(trace, num_ctas=32)
        slow = Simulator(
            launch_kernel(kernel, few_params, design("private")), few_params
        ).run()
        fast = Simulator(
            launch_kernel(kernel, many_params, design("private")), many_params
        ).run()
        assert slow.avg_walk_latency > fast.avg_walk_latency

    def test_pwc_limits_walk_accesses(self):
        def trace(cta, ctx):
            return streaming(ctx.base("a"), 0, 128, 4096)

        sim, _ = build("private", trace, num_ctas=1)
        stats = sim.run()
        # Streaming within one leaf region: after the first full walk the
        # PWC supplies the leaf pointer, so most walks are single-access.
        assert stats.pw_accesses < 2 * stats.walks


class TestDynamicRerouting:
    def test_requests_survive_a_forced_mid_run_switch(self):
        def trace(cta, ctx):
            start = (cta * 13 * 4096) % (1 * MB - 32 * 4096)
            return streaming(ctx.base("a"), start, 32, 4096)

        sim, _ = build("mgvm", trace, num_ctas=16)
        # Force an asynchronous switch shortly after start, regardless of
        # what the monitors would decide.
        hsl = sim.launch.hsl

        def force_switch(mode):
            hsl.command(mode)
            for component in hsl.components():
                sim.engine.after(
                    32.0 * (1 + hash(component) % 3),
                    lambda c: hsl.apply(c, mode),
                    component,
                )

        sim.engine.at(50.0, force_switch, "fine")
        stats = sim.run()
        # Every access still completes despite in-flight re-routing.
        assert stats.instructions == stats.mem_accesses * 2
        assert stats.cycles > 0
