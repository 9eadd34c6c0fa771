"""Set-associative cache model (tags only, LRU).

Used for the per-chiplet L2 data caches (4 MB, 16-way) and the per-CU L1
vector caches (64 KB).  The model tracks presence, not contents: a lookup
either hits (latency charged by the memory system) or misses and fills.
"""

from collections import OrderedDict

LINE_SIZE = 64


class Cache:
    """LRU set-associative cache over 64-byte lines."""

    __slots__ = (
        "size_bytes",
        "line_size",
        "assoc",
        "num_sets",
        "name",
        "_sets",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, size_bytes, assoc, name="cache", line_size=LINE_SIZE):
        if size_bytes < line_size:
            raise ValueError("cache smaller than one line")
        num_lines = size_bytes // line_size
        if assoc < 1 or num_lines % assoc != 0:
            raise ValueError(
                "lines (%d) must be a positive multiple of assoc (%d)"
                % (num_lines, assoc)
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.name = name
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, addr):
        """Look up ``addr``; fill on miss.  Returns True on hit."""
        line = addr // self.line_size
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.assoc:
            entries.popitem(last=False)
            self.evictions += 1
        entries[line] = True
        return False

    def probe(self, addr):
        """Presence check with no side effects."""
        line = addr // self.line_size
        return line in self._sets[line % self.num_sets]

    def flush(self):
        for entries in self._sets:
            entries.clear()

    def occupancy(self):
        return sum(len(entries) for entries in self._sets)

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        total = self.accesses
        return self.hits / total if total else 0.0
