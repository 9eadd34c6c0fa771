"""Reusable contention primitives for the event-driven model.

Two patterns cover every shared resource in the simulated GPU:

* :class:`Timeline` — a pipelined port that accepts one request every
  ``interval`` cycles (L2 TLB ports, DRAM channels).  Requests presented
  while the port is busy are implicitly queued by pushing their start time
  back; the caller learns the granted start time synchronously.

* :class:`TokenPool` — a counted resource with a FIFO of waiters (page
  walkers, MSHR-style admission).  Grants are delivered through the engine
  so that causality is preserved even when a release and an acquire happen
  at the same timestamp.
"""

from collections import deque


class Timeline:
    """A resource that admits one request per ``interval`` cycles.

    ``reserve(at)`` returns the cycle at which a request arriving at
    ``at`` is actually granted the resource, and books the slot.
    """

    __slots__ = ("interval", "next_free", "total_reservations", "total_wait")

    def __init__(self, interval=1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self.next_free = 0.0
        self.total_reservations = 0
        self.total_wait = 0.0

    def reserve(self, at):
        """Book the next free slot at or after ``at``; return its time."""
        start = at if at > self.next_free else self.next_free
        self.next_free = start + self.interval
        self.total_reservations += 1
        self.total_wait += start - at
        return start

    def reset(self):
        self.next_free = 0.0
        self.total_reservations = 0
        self.total_wait = 0.0


class TokenPool:
    """A pool of ``capacity`` tokens with FIFO waiters.

    ``acquire(fn, arg)`` grants a token immediately (``fn(arg)`` is
    scheduled at the current time) or enqueues the pair until a token is
    released.  The grant time is the engine's ``now`` when ``fn`` runs.
    """

    __slots__ = ("engine", "capacity", "free", "name", "_waiters", "total_grants")

    def __init__(self, engine, capacity, name=""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.free = capacity
        self.name = name
        self._waiters = deque()
        self.total_grants = 0

    @property
    def in_use(self):
        return self.capacity - self.free

    @property
    def queue_length(self):
        return len(self._waiters)

    def acquire(self, fn, arg):
        """Request a token; ``fn(arg)`` runs when it is granted."""
        if self.free > 0:
            self.free -= 1
            self.total_grants += 1
            self.engine.after(0.0, fn, arg)
        else:
            self._waiters.append((fn, arg))

    def try_acquire(self):
        """Take a token without waiting; return True on success."""
        if self.free > 0:
            self.free -= 1
            self.total_grants += 1
            return True
        return False

    def release(self):
        """Return a token, handing it to the oldest waiter if any."""
        if self._waiters:
            fn, arg = self._waiters.popleft()
            self.total_grants += 1
            self.engine.after(0.0, fn, arg)
        else:
            if self.free >= self.capacity:
                raise RuntimeError(
                    "TokenPool %r released more tokens than acquired" % self.name
                )
            self.free += 1
