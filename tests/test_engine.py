"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.event_queue import (
    CalendarEventQueue,
    Engine,
    EventQueue,
    HeapEventQueue,
)
from repro.engine.resources import Timeline, TokenPool


class TestEventQueue:
    def test_starts_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert q.peek_time() is None

    def test_push_pop_single(self):
        q = EventQueue()
        q.push(5.0, "fn", "arg")
        assert len(q) == 1
        assert q.peek_time() == 5.0
        time, fn, arg = q.pop()
        assert time == 5.0 and fn == "fn" and arg == "arg"

    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, None, "c")
        q.push(1.0, None, "a")
        q.push(2.0, None, "b")
        assert [q.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        for name in "abc":
            q.push(1.0, None, name)
        assert [q.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=50))
    def test_pops_in_nondecreasing_time_order(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, None, None)
        popped = [q.pop()[0] for _ in range(len(times))]
        assert popped == sorted(popped)

    @pytest.mark.parametrize(
        "value, cls",
        [
            (None, CalendarEventQueue),
            ("", CalendarEventQueue),
            ("calendar", CalendarEventQueue),
            ("heap", HeapEventQueue),
            (" HEAP ", HeapEventQueue),
        ],
    )
    def test_env_selects_discipline(self, monkeypatch, value, cls):
        if value is None:
            monkeypatch.delenv("REPRO_ENGINE_QUEUE", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE_QUEUE", value)
        assert type(EventQueue()) is cls

    def test_unknown_env_queue_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_QUEUE", "hepa")
        with pytest.raises(ValueError, match="hepa"):
            EventQueue()


class TestEngine:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_at_advances_clock(self):
        e = Engine()
        seen = []
        e.at(10.0, lambda engine: seen.append(engine.now), e)
        e.run()
        assert seen == [10.0]
        assert e.now == 10.0

    def test_after_is_relative(self):
        e = Engine()
        order = []
        def note_now(_):
            order.append(e.now)

        e.at(5.0, lambda delay: e.after(delay, note_now, None), 3.0)
        e.run()
        assert order == [8.0]

    def test_rejects_scheduling_in_the_past(self):
        e = Engine()
        e.at(10.0, _noop, None)
        e.run()
        with pytest.raises(ValueError):
            e.at(5.0, _noop, None)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Engine().after(-1.0, _noop, None)

    def test_run_until_stops_before_later_events(self):
        e = Engine()
        seen = []
        e.at(1.0, seen.append, 1)
        e.at(10.0, seen.append, 10)
        e.run(until=5.0)
        assert seen == [1]
        e.run()
        assert seen == [1, 10]

    def test_run_max_events(self):
        e = Engine()
        seen = []
        for i in range(5):
            e.at(float(i), seen.append, i)
        executed = e.run(max_events=3)
        assert executed == 3
        assert seen == [0, 1, 2]

    def test_events_executed_counter(self):
        e = Engine()
        for i in range(4):
            e.at(float(i), _noop, None)
        e.run()
        assert e.events_executed == 4

    def test_cascading_events_run_in_order(self):
        e = Engine()
        order = []

        def cascade(depth):
            order.append((e.now, depth))
            if depth < 3:
                e.after(1.0, cascade, depth + 1)

        e.at(0.0, cascade, 0)
        e.run()
        assert order == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_same_timestamp_events_run_in_scheduling_order(self):
        """Regression for the same-timestamp drain loop in Engine.run."""
        e = Engine()
        order = []
        for i in range(8):
            e.at(5.0, order.append, i)
        e.run()
        assert order == list(range(8))

    def test_same_timestamp_drain_picks_up_events_pushed_mid_drain(self):
        """A zero-delay event scheduled by a same-time callback runs in
        this drain batch, after already-queued peers (FIFO among ties)."""
        e = Engine()
        order = []
        def first(label):
            order.append(label)
            e.after(0.0, order.append, "c")

        e.at(1.0, first, "a")
        e.at(1.0, order.append, "b")
        e.run()
        assert order == ["a", "b", "c"]
        assert e.now == 1.0

    def test_until_with_same_timestamp_batch(self):
        """The general path drains full same-time batches under `until`."""
        e = Engine()
        order = []
        for i in range(3):
            e.at(2.0, order.append, i)
        e.at(7.0, order.append, "late")
        executed = e.run(until=2.0)
        assert executed == 3
        assert order == [0, 1, 2]
        e.run()
        assert order == [0, 1, 2, "late"]

    def test_max_events_stops_mid_batch(self):
        e = Engine()
        order = []
        for i in range(5):
            e.at(1.0, order.append, i)
        executed = e.run(until=10.0, max_events=2)
        assert executed == 2
        assert order == [0, 1]
        e.run()
        assert order == [0, 1, 2, 3, 4]

    def test_determinism(self):
        def build_and_run():
            e = Engine()
            log = []
            for i in range(10):
                e.at(i % 3, log.append, i)
            e.run()
            return log

        assert build_and_run() == build_and_run()


def _noop(_arg):
    pass


def _engine_with(queue):
    engine = Engine()
    engine.events = queue
    return engine


# Time strategies exercising every calendar regime: the live run
# (tick 0), near-future wheel buckets, the wheel horizon boundary, and
# far-future overflow (>= _WHEEL_SIZE ticks away), plus fractional
# timestamps that stress the descending-run/staging logic.
_near_times = st.integers(0, 40).map(float)
_fractional_times = st.floats(
    0, 40, allow_nan=False, allow_infinity=False
)
_far_times = st.integers(900, 40_000).map(float)
_any_time = st.one_of(_near_times, _fractional_times, _far_times)


class TestQueueDisciplineEquivalence:
    """The calendar queue must be observationally identical to the heap:
    same pop order — exact ``(time, seq)`` ascending, FIFO among ties —
    and the same stopping-rule behaviour.  The heap is the oracle."""

    @given(st.lists(_any_time, min_size=1, max_size=120))
    def test_static_schedule_pops_identically(self, times):
        heap_q, cal_q = HeapEventQueue(), CalendarEventQueue()
        for i, t in enumerate(times):
            heap_q.push(t, _noop, i)
            cal_q.push(t, _noop, i)
        heap_order = [heap_q.pop() for _ in range(len(times))]
        cal_order = [cal_q.pop() for _ in range(len(times))]
        assert heap_order == cal_order

    def test_dense_ties_with_far_future_outliers(self):
        heap_q, cal_q = HeapEventQueue(), CalendarEventQueue()
        schedule = (
            [(5.0, i) for i in range(50)]  # dense tie block
            + [(30_000.0, 100 + i) for i in range(3)]  # overflow outliers
            + [(5.0, 200 + i) for i in range(50)]  # more ties, later seqs
            + [(5.5, 300), (4.0, 301)]  # fractional + earlier
        )
        for t, label in schedule:
            heap_q.push(t, _noop, label)
            cal_q.push(t, _noop, label)
        n = len(schedule)
        assert [heap_q.pop() for _ in range(n)] == [
            cal_q.pop() for _ in range(n)
        ]

    @given(
        st.lists(
            st.tuples(
                _any_time,
                st.lists(
                    st.one_of(
                        st.just(0.0),
                        st.floats(0, 5, allow_nan=False),
                        st.integers(1, 3000).map(float),
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(deadline=None)
    def test_reentrant_pushes_dispatch_identically(self, program):
        """Callbacks that push new events mid-drain (including zero-delay
        same-tick re-entrant pushes, the simulator's dominant pattern)
        must interleave identically on both disciplines."""

        def run(queue):
            engine = _engine_with(queue)
            log = []
            counter = [0]

            def fire(event):
                label, delays = event
                log.append((engine.now, label))
                for d in delays:
                    child = counter[0]
                    counter[0] += 1
                    engine.after(d, fire, (child, ()))

            for i, (t, delays) in enumerate(program):
                engine.at(t, fire, (("root", i), delays))
            engine.run()
            return log

        assert run(HeapEventQueue()) == run(CalendarEventQueue())

    @given(
        st.lists(_any_time, min_size=1, max_size=60),
        st.floats(0, 45_000, allow_nan=False),
        st.integers(0, 70),
    )
    @settings(deadline=None)
    def test_until_and_max_events_stop_identically(
        self, times, until, max_events
    ):
        """``run(until=..., max_events=...)`` must execute the same count
        and the same events on both disciplines, and resuming afterwards
        must drain the same remainder."""

        def run(queue):
            engine = _engine_with(queue)
            log = []
            for i, t in enumerate(times):
                engine.at(t, lambda i: log.append((engine.now, i)), i)
            first = engine.run(until=until, max_events=max_events)
            marker = len(log)
            rest = engine.run()
            return first, marker, rest, log

        assert run(HeapEventQueue()) == run(CalendarEventQueue())

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 3.0, 1500.0]), _any_time),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(deadline=None)
    def test_fn_arg_entries_pop_and_dispatch_identically(self, schedule):
        """Entries are ``(time, seq, fn, arg)``: both disciplines pop the
        same ``(time, fn, arg)`` triples in ``(time, seq)`` order — FIFO
        among ties, whichever ``fn`` the entry holds — and ``drain``
        dispatches each as ``fn(arg)`` in that order."""
        log = []
        fns = [
            lambda arg: log.append(("a", arg)),
            lambda arg: log.append(("b", arg)),
            lambda arg: log.append(("c", arg)),
        ]
        heap_q, cal_q = HeapEventQueue(), CalendarEventQueue()
        for i, (t, which) in enumerate(schedule):
            heap_q.push(t, fns[which], i)
            cal_q.push(t, fns[which], i)
        n = len(schedule)
        heap_order = [heap_q.pop() for _ in range(n)]
        assert heap_order == [cal_q.pop() for _ in range(n)]
        expected = sorted(
            (t, i, fns[which]) for i, (t, which) in enumerate(schedule)
        )
        assert heap_order == [(t, fn, i) for t, i, fn in expected]

        dispatched = []
        for queue in (HeapEventQueue(), CalendarEventQueue()):
            engine = _engine_with(queue)
            del log[:]
            for i, (t, which) in enumerate(schedule):
                engine.at(t, fns[which], i)
            assert engine.run() == n
            dispatched.append(list(log))
        assert dispatched[0] == dispatched[1]
        assert dispatched[0] == [
            ("abc"[schedule[i][1]], i) for _t, i, _fn in expected
        ]

    @given(st.lists(_any_time, min_size=1, max_size=60))
    def test_len_and_peek_agree(self, times):
        heap_q, cal_q = HeapEventQueue(), CalendarEventQueue()
        for i, t in enumerate(times):
            heap_q.push(t, _noop, i)
            cal_q.push(t, _noop, i)
            assert len(heap_q) == len(cal_q)
            assert heap_q.peek_time() == cal_q.peek_time()
        while len(heap_q):
            assert heap_q.peek_time() == cal_q.peek_time()
            assert heap_q.pop() == cal_q.pop()
        assert cal_q.peek_time() is None


class TestStoppingRulesPerDiscipline:
    """`run(until=...)` / `run(max_events=...)` semantics pinned down on
    each discipline directly (not just by cross-equivalence)."""

    @pytest.fixture(params=[HeapEventQueue, CalendarEventQueue])
    def engine(self, request):
        return _engine_with(request.param())

    def test_until_is_inclusive(self, engine):
        seen = []
        engine.at(5.0, seen.append, "at")
        engine.at(5.5, seen.append, "after")
        engine.run(until=5.0)
        assert seen == ["at"]

    def test_max_events_counts_reentrant_pushes(self, engine):
        seen = []

        def chain(i):
            seen.append(i)
            engine.after(0.0, chain, i + 1)

        engine.at(0.0, chain, 0)
        executed = engine.run(max_events=4)
        assert executed == 4
        assert seen == [0, 1, 2, 3]

    def test_far_future_event_after_long_idle_gap(self, engine):
        seen = []
        engine.at(1.0, lambda _: engine.at(50_000.0, seen.append, 1), None)
        engine.run()
        assert seen == [1]
        assert engine.now == 50_000.0

    def test_run_on_empty_queue_returns_zero(self, engine):
        assert engine.run() == 0
        assert engine.run(until=10.0) == 0

    def test_at_before_now_raises(self, engine):
        engine.at(10.0, _noop, None)
        engine.run()
        with pytest.raises(ValueError, match="past"):
            engine.at(engine.now - 1, _noop, None)
        assert len(engine.events) == 0

    def test_negative_after_raises(self, engine):
        engine.at(10.0, _noop, None)
        engine.run()
        with pytest.raises(ValueError, match="negative delay"):
            engine.after(-1, _noop, None)
        assert len(engine.events) == 0


class TestTimeline:
    def test_free_resource_grants_immediately(self):
        t = Timeline(1.0)
        assert t.reserve(5.0) == 5.0

    def test_busy_resource_queues(self):
        t = Timeline(2.0)
        assert t.reserve(0.0) == 0.0
        assert t.reserve(0.0) == 2.0
        assert t.reserve(0.0) == 4.0

    def test_idle_gap_resets(self):
        t = Timeline(1.0)
        t.reserve(0.0)
        assert t.reserve(100.0) == 100.0

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Timeline(0)

    def test_wait_accounting(self):
        t = Timeline(10.0)
        t.reserve(0.0)
        t.reserve(0.0)
        assert t.total_reservations == 2
        assert t.total_wait == 10.0

    def test_reset(self):
        t = Timeline(1.0)
        t.reserve(0.0)
        t.reset()
        assert t.next_free == 0.0
        assert t.total_reservations == 0

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=30))
    def test_grants_never_overlap(self, arrivals):
        t = Timeline(1.0)
        grants = [t.reserve(a) for a in sorted(arrivals)]
        for first, second in zip(grants, grants[1:]):
            assert second >= first + 1.0


class TestTokenPool:
    def test_grants_up_to_capacity(self):
        e = Engine()
        pool = TokenPool(e, 2)
        granted = []
        for i in range(3):
            pool.acquire(granted.append, i)
        e.run()
        assert granted == [0, 1]
        assert pool.queue_length == 1

    def test_release_unblocks_fifo(self):
        e = Engine()
        pool = TokenPool(e, 1)
        granted = []
        for i in range(3):
            pool.acquire(granted.append, i)
        e.run()
        pool.release()
        e.run()
        pool.release()
        e.run()
        assert granted == [0, 1, 2]

    def test_try_acquire(self):
        e = Engine()
        pool = TokenPool(e, 1)
        assert pool.try_acquire()
        assert not pool.try_acquire()
        pool.release()
        assert pool.try_acquire()

    def test_over_release_raises(self):
        pool = TokenPool(Engine(), 1)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TokenPool(Engine(), 0)

    def test_in_use_tracking(self):
        e = Engine()
        pool = TokenPool(e, 3)
        pool.acquire(_noop, None)
        pool.acquire(_noop, None)
        assert pool.in_use == 2
        pool.release()
        assert pool.in_use == 1

    @given(st.integers(1, 8), st.integers(1, 40))
    def test_all_waiters_eventually_granted(self, capacity, requests):
        e = Engine()
        pool = TokenPool(e, capacity)
        granted = []

        def work(i):
            granted.append(i)
            e.after(1.0, lambda _: pool.release(), None)

        for i in range(requests):
            pool.acquire(work, i)
        e.run()
        assert granted == list(range(requests))
