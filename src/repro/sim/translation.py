"""The GPU-wide translation service: HSL routing plus all L2 slices.

This is the component an L1 TLB miss enters.  It applies the active HSL
(using the requesting chiplet's own copy when the HSL is dynamic), counts
RTU traffic for the balance controller, and delivers the request to the
home slice across the interconnect.
"""

from repro.core.hsl import DynamicHSL
from repro.obs.probe import NULL_PROBE
from repro.sim.request import TranslationRequest
from repro.sim.slice import L2TLBSlice
from repro.sim.walkers import WalkerPool


class TranslationSystem:
    """All L2 TLB slices, walker pools and the HSL routing logic."""

    def __init__(
        self,
        engine,
        launch,
        params,
        memory_system,
        interconnect,
        stats,
        balance=None,
        probe=NULL_PROBE,
    ):
        self.engine = engine
        self.launch = launch
        self.geometry = launch.geometry
        self.page_table = launch.page_table
        self.hsl = launch.hsl
        self.dynamic_hsl = self.hsl if isinstance(self.hsl, DynamicHSL) else None
        self.remote_caching = launch.design.remote_tlb_caching
        self.memory_system = memory_system
        self.interconnect = interconnect
        self.stats = stats
        self.balance = balance
        self.fault_handler = launch.fault_handler
        self.fault_latency = params.fault_latency
        # Hot-path hoists: request() runs once per L1 TLB miss (the
        # dominant event class for low-locality workloads), so the
        # attribute chains are resolved once here.
        self._page_size = launch.geometry.page_size
        # Observability hooks (pre-bound no-ops when probes are off).
        self.probe = probe
        self._probe_start = probe.translation_start
        self._probe_route = probe.route
        self.slices = [
            L2TLBSlice(self, chiplet, params)
            for chiplet in range(params.num_chiplets)
        ]
        self.walkers = [
            WalkerPool(
                engine,
                chiplet,
                launch.page_table,
                launch.geometry,
                memory_system,
                num_walkers=params.num_walkers,
                pwc_entries=params.pwc_entries,
                pwc_latency=params.pwc_latency,
                probe=probe,
            )
            for chiplet in range(params.num_chiplets)
        ]

    def coarse_home(self, va):
        """dHSL-coarse home of ``va`` (None for non-dynamic HSLs)."""
        if self.dynamic_hsl is None:
            return None
        return self.dynamic_hsl.coarse_home(va)

    def request(self, cu, vpn, t, callback):
        """Route an L1 TLB miss from ``cu`` detected at time ``t``.

        ``callback(req)`` runs when the response reaches the CU, with the
        translation in ``req.entry``.
        """
        va = vpn * self._page_size
        origin = cu.chiplet
        req = TranslationRequest(vpn, va, origin, cu, t, callback)
        self._probe_start(req)

        if self.dynamic_hsl is not None:
            home = self.dynamic_hsl.home(va, origin, component=(origin, "cu"))
        else:
            home = self.hsl.home(va, origin)

        target = home
        if self.remote_caching and home != origin:
            # Figure 16: probe the local slice first; forward on miss.
            req.forward_home = home
            target = origin

        if target == origin:
            self.stats.routed_local += 1
        else:
            self.stats.routed_remote += 1
        if self.balance is not None:
            self.balance.note_routed(origin, target)

        interconnect = self.interconnect
        arrive = interconnect.traverse(origin, target, t, "translation")
        self._probe_route(
            req, origin, target, t, arrive, interconnect.hop_count(origin, target)
        )
        self.engine.at(arrive, self.slices[target].receive, req)

    def forward(self, req, src, dst):
        """Move a request between slices (re-route or caching forward)."""
        if self.balance is not None:
            self.balance.note_routed(src, dst)
        interconnect = self.interconnect
        now = self.engine.now
        arrive = interconnect.traverse(src, dst, now, "translation")
        self._probe_route(
            req, src, dst, now, arrive, interconnect.hop_count(src, dst)
        )
        self.engine.at(arrive, self.slices[dst].receive, req)
