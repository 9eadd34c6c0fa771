"""In-flight request records."""


class TranslationRequest:
    """One L1-TLB miss travelling through the L2 TLB / page-walk system.

    From the moment a request enters :meth:`TranslationSystem.request`
    until its ``callback`` runs, it is represented by at least one
    queued engine event (the interconnect arrival, a slice-port grant, a
    walker step, the response hop, ...).  Each of those events is
    ``(fn, req)``: the request itself carries the state the next step
    needs, down to the ``entry`` the responding slice found.
    """

    __slots__ = (
        "vpn",
        "va",
        "origin",
        "cu",
        "t0",
        "callback",
        "entry",
        "hops",
        "forward_home",
        "cache_locally",
        "span",
        "audit_t",
        "lat_t",
    )

    def __init__(self, vpn, va, origin, cu, t0, callback):
        self.vpn = vpn
        self.va = va
        self.origin = origin  # requesting chiplet
        self.cu = cu
        self.t0 = t0  # time the L1 miss was detected
        self.callback = callback  # callback(req) at response time
        self.entry = None  # the TLBEntry the responding slice found
        self.hops = 0  # re-routing hops during HSL switches
        # Remote-TLB-caching mode (Figure 16): the true home slice to
        # forward to after a local-slice miss, and whether the response
        # should be cached in the origin's slice.
        self.forward_home = None
        self.cache_locally = False
        # Observability: the request-lifecycle span attached by a
        # TraceProbe (None when tracing is off or the request is not
        # sampled); see repro.obs.trace.
        self.span = None
        # Observability: lifecycle timestamp maintained by an AuditProbe
        # (the request's last observed event; back to None once the
        # response is seen).  A slot read/write is what keeps the
        # auditor's hot hooks cheap; see repro.obs.audit.
        self.audit_t = None
        # Observability: latency-anatomy stage cursor maintained by a
        # LatencyProbe (last stage-boundary timestamp; negated-minus-one
        # while the request waits in an MSHR; back to None once the
        # response is seen); see repro.obs.digest.
        self.lat_t = None

    def __repr__(self):
        return "TranslationRequest(vpn=%#x, origin=%d, t0=%.1f)" % (
            self.vpn,
            self.origin,
            self.t0,
        )


class WalkRecord:
    """Timing and locality of one page walk.

    The record is also the walk's event argument: ``level`` is the
    page-table level the next fetch reads, and ``on_done(record)`` runs
    when the walk completes.
    """

    __slots__ = (
        "vpn",
        "on_done",
        "level",
        "t_request",
        "t_start",
        "t_done",
        "start_level",
        "accesses_local",
        "accesses_remote",
        "cycles_local",
        "cycles_remote",
        "hops",
    )

    def __init__(self, vpn, t_request, on_done):
        self.vpn = vpn
        self.on_done = on_done
        self.level = None  # level of the next fetch
        self.t_request = t_request  # L2 miss detected / walk queued
        self.t_start = None  # walker granted
        self.t_done = None  # translation available
        self.start_level = None
        self.accesses_local = 0
        self.accesses_remote = 0
        self.cycles_local = 0.0
        self.cycles_remote = 0.0
        # Observability: per-level hop tuples attached by a TraceProbe
        # (None when tracing is off); see repro.obs.trace.
        self.hops = None

    def add_access(self, remote, cycles):
        if remote:
            self.accesses_remote += 1
            self.cycles_remote += cycles
        else:
            self.accesses_local += 1
            self.cycles_local += cycles

    @property
    def latency(self):
        return self.t_done - self.t_request

    @property
    def remote_cycle_fraction(self):
        total = self.cycles_local + self.cycles_remote
        return self.cycles_remote / total if total else 0.0
