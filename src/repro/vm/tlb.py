"""Set-associative TLB with true-LRU replacement.

Used for the per-CU L1 TLBs (fully associative, 32 entries) and for the
per-chiplet L2 TLB slices (512 entries, 8-way).  Each entry can carry a
``coarse_home`` tag — the chiplet the VPN would map to under dHSL-coarse —
which MGvm's switch-back logic reads (Section V of the paper).
"""

from collections import OrderedDict

# Fibonacci-hash the set index: a slice behind an interleaving HSL only
# ever sees VPNs with a fixed residue modulo the chiplet count, and a
# plain ``vpn % num_sets`` would then use only a fraction of the sets.
# Real L2 TLB slices index with bits above the slice-selection bits; a
# multiplicative hash is the order-free equivalent.  The hot
# ``lookup``/``insert`` compute it inline; the rest go through
# ``_set_for``.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


class TLBEntry:
    """One cached translation.

    Entries are immutable once built: no code assigns their fields.  The
    L2 slice that walks a page builds the entry, and the L1 TLB fill (and
    the Figure 16 install in the requester's slice) shares that same
    object instead of copying it.
    """

    __slots__ = ("vpn", "ppn", "data_home", "coarse_home")

    def __init__(self, vpn, ppn, data_home, coarse_home=None):
        self.vpn = vpn
        self.ppn = ppn
        self.data_home = data_home
        self.coarse_home = coarse_home

    def __repr__(self):
        return "TLBEntry(vpn=%#x, ppn=%#x, data_home=%d)" % (
            self.vpn,
            self.ppn,
            self.data_home,
        )


class TLB:
    """A set-associative, LRU TLB.

    ``assoc=None`` (or ``assoc == entries``) makes it fully associative.
    """

    __slots__ = (
        "entries",
        "assoc",
        "num_sets",
        "name",
        "_sets",
        "hits",
        "misses",
        "insertions",
        "evictions",
    )

    def __init__(self, entries, assoc=None, name="tlb"):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if assoc is None:
            assoc = entries
        if assoc < 1 or entries % assoc != 0:
            raise ValueError(
                "entries (%d) must be a positive multiple of assoc (%d)"
                % (entries, assoc)
            )
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.name = name
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def _set_for(self, vpn):
        hashed = ((vpn * _HASH_MULT) & _HASH_MASK) >> 40
        return self._sets[hashed % self.num_sets]

    def lookup(self, vpn):
        """Return the entry for ``vpn`` (refreshing LRU) or ``None``."""
        hashed = ((vpn * _HASH_MULT) & _HASH_MASK) >> 40
        line = self._sets[hashed % self.num_sets]
        entry = line.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        line.move_to_end(vpn)
        self.hits += 1
        return entry

    def probe(self, vpn):
        """Check presence without touching LRU state or counters."""
        return self._set_for(vpn).get(vpn)

    def insert(self, entry):
        """Insert ``entry``; return the evicted entry if any."""
        vpn = entry.vpn
        hashed = ((vpn * _HASH_MULT) & _HASH_MASK) >> 40
        line = self._sets[hashed % self.num_sets]
        evicted = None
        if vpn in line:
            line.move_to_end(vpn)
        elif len(line) >= self.assoc:
            _vpn, evicted = line.popitem(last=False)
            self.evictions += 1
        line[vpn] = entry
        self.insertions += 1
        return evicted

    def invalidate(self, vpn):
        """Drop ``vpn`` if present; return True if it was there."""
        line = self._set_for(vpn)
        return line.pop(vpn, None) is not None

    def flush(self):
        """Drop every entry (e.g. between kernels)."""
        for line in self._sets:
            line.clear()

    def occupancy(self):
        return sum(len(line) for line in self._sets)

    def __contains__(self, vpn):
        return vpn in self._set_for(vpn)

    def iter_entries(self):
        for line in self._sets:
            for entry in line.values():
                yield entry

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        total = self.accesses
        return self.hits / total if total else 0.0
