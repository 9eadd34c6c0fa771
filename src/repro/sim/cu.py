"""Compute-unit model: closed-loop replay of CTA access streams.

Each CU owns a private L1 TLB and L1 vector cache and a fixed number of
wavefront slots.  A slot executes one CTA at a time: it spends
``compute_gap`` cycles of compute, issues the CTA's next coalesced memory
access, waits for it to complete (address translation + data access), and
repeats.  Translation latency therefore directly throttles instruction
throughput, which is the back-pressure mechanism behind every result in
the paper.

Performance notes — the slot state machine is the hottest callback chain
in the simulator:

* **Vectorized trace precomputation**: :meth:`ComputeUnit.add_cta`
  derives each CTA's ``vpn`` (``trace >> page_shift``) and page-offset
  (``trace & (page_size - 1)``) numpy arrays once, and
  :meth:`_WavefrontSlot.pick_cta` converts them to plain Python-int
  lists, so the per-access path indexes a list instead of calling
  ``int(trace[i])`` plus two geometry methods.

* **Closure-free events**: the slot keeps its in-flight state
  (``index``, ``entry``) in ``__slots__`` attributes and schedules its
  steps as ``(_WavefrontSlot._issue, slot)`` — the plain class function
  with the slot as the event argument — so the steady state allocates
  no callables at all.  A translation response arrives as
  ``(cu._translated, req)`` with the entry on the request.
"""

from collections import deque

from repro.mem.cache import Cache
from repro.vm.tlb import TLB


class _WavefrontSlot:
    """One wavefront slot: the per-access state machine of a CU.

    The slot advances through ``advance -> _issue -> _data_access ->
    _complete`` for every element of its CTA trace, then picks the next
    CTA from the CU's queue.  Every engine event is a class function
    with the slot as its argument; no per-access closures.
    """

    __slots__ = (
        "cu",
        "engine",
        "vpns",
        "offs",
        "length",
        "index",
        "entry",
    )

    def __init__(self, cu):
        self.cu = cu
        self.engine = cu.engine
        self.vpns = None
        self.offs = None
        self.length = 0
        self.index = 0
        self.entry = None

    # -- state machine -----------------------------------------------------

    def pick_cta(self):
        cu = self.cu
        if not cu.cta_queue:
            self.vpns = None
            self.offs = None
            cu._active_slots -= 1
            cu.sim.note_slot_retired()
            return
        vpns, offs = cu.cta_queue.popleft()
        # Plain Python ints: every later index is one list load instead
        # of a numpy scalar extraction + int() conversion.
        self.vpns = vpns.tolist()
        self.offs = offs.tolist()
        self.length = len(self.vpns)
        self.index = 0
        self.advance()

    def advance(self):
        if self.index >= self.length:
            self.pick_cta()
            return
        # compute_gap instructions of compute, then the memory access.
        self.engine.after(self.cu._gap_f, _WavefrontSlot._issue, self)

    def _issue(self):
        cu = self.cu
        vpn = self.vpns[self.index]
        entry = cu.l1_tlb.lookup(vpn)
        t_after_l1 = self.engine.now + cu.l1_tlb_latency
        if entry is not None:
            cu.stats.l1_tlb_hits += 1
            self.entry = entry
            self.engine.at(t_after_l1, _WavefrontSlot._data_access, self)
            return

        cu.stats.l1_tlb_misses += 1
        waiters = cu._pending_translations.get(vpn)
        if waiters is not None:
            # Another wavefront on this CU already misses on the same
            # page; coalesce instead of issuing a duplicate request.
            waiters.append(self)
            cu._probe_l1_coalesced(cu, vpn)
            return
        cu._pending_translations[vpn] = [self]
        cu._probe_l1_miss(cu, vpn)
        cu.sim.translation.request(cu, vpn, t_after_l1, cu._translated_cb)

    def _data_access(self):
        cu = self.cu
        entry = self.entry
        pa = (entry.ppn << cu.page_shift) | self.offs[self.index]
        if cu.l1_cache.access(pa):
            cu.stats.l1_cache_hits += 1
            self.engine.after(
                cu.l1_cache_latency, _WavefrontSlot._complete, self
            )
            return
        done, remote = cu.sim.memory_system.access(
            cu.chiplet,
            entry.data_home,
            pa,
            self.engine.now + cu.l1_cache_latency,
            "data",
        )
        if remote:
            cu.stats.data_accesses_remote += 1
        else:
            cu.stats.data_accesses_local += 1
        self.engine.at(done, _WavefrontSlot._complete, self)

    def _complete(self):
        cu = self.cu
        cu.stats.instructions += cu.compute_gap + 1
        cu.stats.mem_accesses += 1
        self.index += 1
        self.advance()


class ComputeUnit:
    """One CU: L1 TLB + L1 cache + wavefront slots replaying CTAs."""

    __slots__ = (
        "sim",
        "engine",
        "stats",
        "geometry",
        "cu_id",
        "chiplet",
        "l1_tlb",
        "l1_cache",
        "l1_tlb_latency",
        "l1_cache_latency",
        "num_slots",
        "cta_queue",
        "compute_gap",
        "page_shift",
        "_offset_mask",
        "_gap_f",
        "_pending_translations",
        "_active_slots",
        "_translated_cb",
        "_slots",
        "_probe_l1_miss",
        "_probe_l1_coalesced",
    )

    def __init__(self, simulator, cu_id, chiplet, params):
        self.sim = simulator
        self.engine = simulator.engine
        self.stats = simulator.stats
        self.geometry = simulator.geometry
        # Observability: pre-bound hooks (no-ops when probes are off, so
        # the hot path never branches on an "instrumentation enabled"
        # flag; see repro.obs.probe).
        probe = simulator.probe
        self._probe_l1_miss = probe.l1_miss
        self._probe_l1_coalesced = probe.l1_coalesced
        self.cu_id = cu_id
        self.chiplet = chiplet
        self.l1_tlb = TLB(params.l1_tlb_entries, name="l1tlb%d" % cu_id)
        self.l1_cache = Cache(
            params.l1_cache_size, params.l1_cache_assoc, name="l1c%d" % cu_id
        )
        self.l1_tlb_latency = params.l1_tlb_latency
        self.l1_cache_latency = params.l1_cache_latency
        self.num_slots = params.wavefront_slots_per_cu
        self.cta_queue = deque()
        self.compute_gap = 1
        self.page_shift = self.geometry.page_shift
        self._offset_mask = self.geometry.page_size - 1
        self._gap_f = 1.0
        self._pending_translations = {}
        self._active_slots = 0
        self._translated_cb = self._translated
        self._slots = []

    def add_cta(self, trace):
        """Queue one CTA's access stream (numpy int64 array of VAs).

        The per-page decomposition is vectorized here — one shift and
        one mask over the whole trace — instead of per access in the
        issue path.
        """
        if len(trace):
            self.cta_queue.append(
                (trace >> self.page_shift, trace & self._offset_mask)
            )

    def start(self):
        """Activate up to ``num_slots`` wavefront slots."""
        self._gap_f = float(self.compute_gap)
        while self._active_slots < self.num_slots and self.cta_queue:
            self._active_slots += 1
            slot = _WavefrontSlot(self)
            self._slots.append(slot)
            slot.pick_cta()

    def _translated(self, req):
        """Translation response ``req`` arrives back at this CU.

        The L1 fill shares the slice's entry (entries are immutable).
        """
        entry = req.entry
        self.l1_tlb.insert(entry)
        for slot in self._pending_translations.pop(req.vpn):
            slot.entry = entry
            slot._data_access()
