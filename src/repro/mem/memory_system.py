"""The memory side of the MCM GPU: per-chiplet L2 caches + DRAM + links.

An access names the requesting chiplet and the home chiplet of the line.
Remote accesses cross the in-package interconnect there and back; on the
paper's all-to-all fabric that adds ``2 * link_latency`` (the ~32 ns
one-way cost), and on a routed topology (ring, mesh, dual-package) each
direction charges the per-hop latency of its routed path — the RMA
request and its response travel through the same
:class:`~repro.arch.interconnect.Interconnect` as translation traffic,
so per-link contention (when enabled) and per-link crossing statistics
cover data and PTE messages too.  The home chiplet's L2 cache is looked
up first (banked, 12-cycle); a miss goes to that chiplet's DRAM
(100 ns).

Constructed without an interconnect (unit tests, standalone use) the
memory system falls back to the flat all-to-all model: one
``link_latency`` each way for any remote pair.

Page-table entries use the same path (``kind="pte"``), so PTE reads are
cached in the L2 caches alongside data, exactly as the baseline design
in Section II of the paper.
"""

from repro.engine.resources import Timeline
from repro.mem.cache import Cache
from repro.mem.dram import DRAMTiming


class MemoryAccessStats:
    """Counts of local/remote accesses per request kind."""

    def __init__(self):
        self.local = {"data": 0, "pte": 0}
        self.remote = {"data": 0, "pte": 0}
        self.local_cycles = {"data": 0.0, "pte": 0.0}
        self.remote_cycles = {"data": 0.0, "pte": 0.0}

    def total(self, kind):
        return self.local[kind] + self.remote[kind]

    def remote_fraction(self, kind):
        total = self.total(kind)
        return self.remote[kind] / total if total else 0.0


class MemorySystem:
    """All chiplets' L2 caches and DRAM stacks, plus the interconnect."""

    def __init__(
        self,
        num_chiplets,
        link_latency=32.0,
        l2_size=4 * 1024 * 1024,
        l2_assoc=16,
        l2_latency=12.0,
        l2_banks=16,
        dram_latency=100.0,
        interconnect=None,
    ):
        self.num_chiplets = num_chiplets
        self.link_latency = float(link_latency)
        self.l2_latency = float(l2_latency)
        # When a routed fabric is supplied, remote memory messages
        # traverse it (per-hop latency, optional per-link contention,
        # per-link accounting); otherwise the flat all-to-all fallback
        # charges link_latency each way.
        self.interconnect = interconnect
        self.l2_caches = [
            Cache(l2_size, l2_assoc, name="l2c%d" % index)
            for index in range(num_chiplets)
        ]
        self.l2_banks = [
            [Timeline(1.0) for _ in range(l2_banks)] for _ in range(num_chiplets)
        ]
        self.drams = [
            DRAMTiming(latency=dram_latency) for _ in range(num_chiplets)
        ]
        self.stats = MemoryAccessStats()

    def access(self, requester, home, pa, at, kind="data"):
        """Simulate a line read; return ``(done_time, was_remote)``.

        ``done_time`` is when the response reaches the requester chiplet.
        """
        remote = requester != home
        interconnect = self.interconnect
        if remote and interconnect is not None:
            arrive = interconnect.traverse(requester, home, at, kind)
        else:
            arrive = at + (self.link_latency if remote else 0.0)
        banks = self.l2_banks[home]
        bank = banks[(pa // 64) % len(banks)]
        start = bank.reserve(arrive)
        cache = self.l2_caches[home]
        if cache.access(pa):
            done = start + self.l2_latency
        else:
            done = self.drams[home].access_done_at(pa, start + self.l2_latency)
        if remote:
            if interconnect is not None:
                done = interconnect.traverse(home, requester, done, kind)
            else:
                done += self.link_latency
        stats = self.stats
        if remote:
            stats.remote[kind] += 1
            stats.remote_cycles[kind] += done - at
        else:
            stats.local[kind] += 1
            stats.local_cycles[kind] += done - at
        return done, remote

    def latency_preview(self, requester, home, cached):
        """Best-case latency, ignoring contention (for reasoning/tests)."""
        base = self.l2_latency if cached else self.l2_latency + self.drams[home].latency
        if requester != home:
            if self.interconnect is not None:
                base += self.interconnect.round_trip(requester, home)
            else:
                base += 2 * self.link_latency
        return base
