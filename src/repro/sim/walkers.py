"""Per-chiplet page-walker pools.

A pool owns ``num_walkers`` walker contexts and one page walk cache.  A
walk consults the PWC to find the first page-table level it must fetch,
then performs one memory access per remaining level — each access going
to the chiplet that hosts that PT page (local for a replicated page
table), through the regular memory system so PTE reads hit or miss the
L2 data caches and cross the interconnect when remote.
"""

from repro.engine.resources import TokenPool
from repro.obs.probe import NULL_PROBE
from repro.sim.request import WalkRecord
from repro.vm.walk_cache import PageWalkCache


class WalkerPool:
    """Page table walkers + PWC of one chiplet."""

    __slots__ = (
        "engine",
        "chiplet",
        "page_table",
        "geometry",
        "memory_system",
        "tokens",
        "pwc",
        "pwc_latency",
        "walks_started",
        "walks_completed",
        "_probe_walk_start",
        "_probe_walk_level",
        "_probe_walk_done",
    )

    def __init__(
        self,
        engine,
        chiplet,
        page_table,
        geometry,
        memory_system,
        num_walkers=16,
        pwc_entries=32,
        pwc_latency=10.0,
        probe=NULL_PROBE,
    ):
        self.engine = engine
        self.chiplet = chiplet
        self.page_table = page_table
        self.geometry = geometry
        self.memory_system = memory_system
        self.tokens = TokenPool(engine, num_walkers, name="walkers%d" % chiplet)
        self.pwc = PageWalkCache(pwc_entries, name="pwc%d" % chiplet)
        self.pwc_latency = pwc_latency
        self.walks_started = 0
        self.walks_completed = 0
        # Observability hooks (pre-bound no-ops when probes are off).
        self._probe_walk_start = probe.walk_start
        self._probe_walk_level = probe.walk_level
        self._probe_walk_done = probe.walk_done

    def walk(self, vpn, on_done):
        """Queue a walk; ``on_done(record)`` fires when it completes."""
        record = WalkRecord(vpn, self.engine.now, on_done)
        self.tokens.acquire(self._granted, record)

    def _granted(self, record):
        record.t_start = self.engine.now
        self.walks_started += 1
        self._probe_walk_start(record, self.chiplet)
        record.start_level = record.level = self.pwc.first_level_to_fetch(
            self.geometry, record.vpn
        )
        self.engine.after(self.pwc_latency, self._fetch_level, record)

    def _fetch_level(self, record):
        level = record.level
        node = self.page_table.node_for(record.vpn, level)
        if node is None:
            raise RuntimeError(
                "page walk reached unmapped node (vpn %#x level %d)"
                % (record.vpn, level)
            )
        # A replicated page table (node.home is None) is local everywhere.
        home = node.home if node.home is not None else self.chiplet
        line = self.page_table.pte_line_address(node, record.vpn)
        done, remote = self.memory_system.access(
            self.chiplet, home, line, self.engine.now, "pte"
        )
        record.add_access(remote, done - self.engine.now)
        self._probe_walk_level(
            record, self.chiplet, level, remote, self.engine.now, done
        )
        if level > 1:
            record.level = level - 1
            self.engine.at(done, self._fetch_level, record)
        else:
            self.engine.at(done, self._finish, record)

    def _finish(self, record):
        record.t_done = self.engine.now
        self.pwc.fill(self.geometry, record.vpn, record.start_level)
        self.walks_completed += 1
        self._probe_walk_done(record, self.chiplet)
        self.tokens.release()
        record.on_done(record)
