"""Differential tests: the calendar queue against the heap oracle.

Two layers:

* queue level — random push/cancel mixes drained through the run-loop
  contract (``near`` + ``advance``) must pop in identical order on the
  production calendar queue and the binary-heap oracle
  (``tests/sim/oracles.py``), including exact ties, bucket-edge times,
  and far-future overflow timers;
* simulator level — random command tapes (schedule / schedule_at /
  cancel / recurring / run-in-segments) replayed on a heap-backed and a
  calendar-backed :class:`~repro.sim.engine.Simulator` must produce
  identical firing logs, clocks, and counter quadruples.

These are the proofs-by-adversary behind the calendar queue: any
schedule it and the oracle disagree on is a shrunken counterexample,
not a flaky fleet run.
"""

import math
from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.eventq import DEFAULT_BUCKET_WIDTH_S, CalendarEventQueue
from tests.sim.oracles import HeapEventQueue

_INF = float("inf")

#: Times that live exactly on calendar-queue seams: bucket edges, the
#: first window, one rotation out, and far-future overflow territory.
_SEAM_TIMES = [
    0.0,
    DEFAULT_BUCKET_WIDTH_S,
    DEFAULT_BUCKET_WIDTH_S * 0.999999,
    DEFAULT_BUCKET_WIDTH_S * 255,
    DEFAULT_BUCKET_WIDTH_S * 256,
    DEFAULT_BUCKET_WIDTH_S * 257,
    math.nextafter(DEFAULT_BUCKET_WIDTH_S * 256, 0.0),
    1_000.0,
    86_400.0,
]

_time_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    st.sampled_from(_SEAM_TIMES),
    # DTIM-periodic mix: multiples of the beacon interval.
    st.integers(min_value=0, max_value=600).map(lambda k: k * 0.1024),
)


def _drain(queue, records):
    """Pop every live record through the run-loop contract."""
    for record in records:
        queue.push(record)
    order = []
    near = queue.near
    while True:
        while near:
            record = heappop(near)
            if record[4]:
                continue
            order.append(tuple(record[:3]))
        if queue.advance(_INF) is None:
            return order


class TestQueueDifferential:
    @given(
        st.lists(
            st.tuples(
                _time_strategy,
                st.integers(min_value=-2, max_value=2),
                st.booleans(),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=120)
    def test_pop_order_identical(self, entries):
        def build(cancelled_flags_shared):
            return [
                [time, priority, seq, None, cancelled, None]
                for seq, (time, priority, cancelled) in enumerate(entries)
            ]

        heap_order = _drain(HeapEventQueue(), build(entries))
        calendar_order = _drain(CalendarEventQueue(), build(entries))
        assert heap_order == calendar_order
        live = sum(1 for _, _, cancelled in entries if not cancelled)
        assert len(heap_order) == live
        times = [time for time, _, _ in heap_order]
        assert times == sorted(times)

    @given(
        st.lists(_time_strategy, max_size=60),
        st.integers(min_value=2, max_value=32),
        st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_tuned_calendar_matches_heap(self, times, buckets, width):
        records = [[t, 0, seq, None, False, None] for seq, t in enumerate(times)]
        clones = [list(r) for r in records]
        heap_order = _drain(HeapEventQueue(), records)
        tuned = CalendarEventQueue(bucket_width_s=width, num_buckets=buckets)
        assert _drain(tuned, clones) == heap_order

    def test_depth_counts_tombstones(self):
        for queue in (HeapEventQueue(), CalendarEventQueue()):
            queue.push([0.5, 0, 0, None, False, None])
            queue.push([990.0, 0, 1, None, True, None])
            assert queue.depth() == 2

    def test_non_finite_times_rejected(self):
        for queue in (HeapEventQueue(), CalendarEventQueue()):
            for bad in (_INF, float("nan")):
                with pytest.raises(SimulationError):
                    queue.push([bad, 0, 0, None, False, None])

    def test_simulator_queue_seam(self):
        assert Simulator().queue_kind == "calendar"
        tuned = CalendarEventQueue(num_buckets=8)
        assert Simulator(queue=tuned)._queue is tuned
        assert Simulator(queue=HeapEventQueue()).queue_kind == "heap"


# Simulator-level command tapes. Each command is interpreted the same
# way on both simulators; handles are tracked by index so cancels hit
# the same event on each side.
_command_strategy = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        st.integers(min_value=-2, max_value=2),
    ),
    st.tuples(st.just("schedule_seam"), st.sampled_from(_SEAM_TIMES), st.just(0)),
    st.tuples(
        st.just("every"),
        st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        st.integers(min_value=-1, max_value=1),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200), st.just(0)),
    st.tuples(
        st.just("run_until"),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        st.just(0),
    ),
)


def _replay(queue, commands):
    sim = Simulator(queue=queue)
    fired = []
    handles = []

    def make_callback(tag):
        def callback():
            fired.append((tag, sim.now))

        return callback

    horizon = 0.0
    for index, (op, value, priority) in enumerate(commands):
        if op == "schedule":
            handles.append(sim.schedule(value, make_callback(index), priority))
        elif op == "schedule_seam":
            target = sim.now + value
            handles.append(sim.schedule_at(target, make_callback(index), priority))
        elif op == "every":
            handles.append(sim.every(value, make_callback(index), priority))
        elif op == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif op == "run_until":
            horizon += value
            sim.run(until=horizon, max_events=50_000)
    sim.run(until=horizon + 40.0, max_events=50_000)
    for handle in handles:
        handle.cancel()
    sim.run(until=horizon + 41.0, max_events=50_000)
    return fired, (
        sim.now,
        sim.events_processed,
        sim.events_cancelled,
        sim.pending_events,
        sim.queue_depth,
    )


class TestSimulatorDifferential:
    @given(st.lists(_command_strategy, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_command_tapes_equivalent(self, commands):
        heap_fired, heap_state = _replay(HeapEventQueue(), commands)
        calendar_fired, calendar_state = _replay(CalendarEventQueue(), commands)
        assert heap_fired == calendar_fired
        assert heap_state == calendar_state

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_dtim_periodic_mix(self, dtim_period, timers):
        """Beacon/DTIM periodic timers plus far-future TTLs, segmented."""

        def replay(queue):
            sim = Simulator(queue=queue)
            fired = []
            for k in range(timers):
                sim.every(
                    0.1024 * (1 + k % dtim_period),
                    lambda k=k: fired.append((k, sim.now)),
                    first_delay_s=0.0512 * k,
                )
            for k in range(timers):
                sim.post(3600.0 + k, lambda k=k: fired.append(("ttl", k)))
            for segment in range(1, 5):
                sim.run(until=segment * 1.5)
            return fired, sim.pending_events, sim.queue_depth

        assert replay(HeapEventQueue()) == replay(CalendarEventQueue())
