"""The event loop: a monotonic clock over the calendar event queue.

The queue contract and the calendar queue live in
:mod:`repro.sim.eventq`; this module owns event semantics — total
order, cancellation, recurring timers, observer probes — and the fused
run loop that pops records without a method call per event.

Events at equal times fire in (priority, insertion) order.  An event
record is a 6-slot list ``[time, priority, sequence, callback,
cancelled, interval_or_None]`` (see ``eventq``); every scheduling API
consumes exactly one sequence number per queued record, so the live
count is the arithmetic identity ``sequence - cancelled - processed``
instead of a per-event counter update.

Counter visibility: ``now`` is exact at all times.  ``events_processed``
(and therefore ``pending_events``) is kept in a run-loop local for speed
and synced to the instance at every probe boundary, at ``step()``
granularity, and on ``run()`` exit — i.e. it is exact everywhere
telemetry reads it, and may lag only inside a single uninterrupted burst
of event callbacks.
"""

from __future__ import annotations

import math
import time as _time
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.eventq import CalendarEventQueue

_INF = float("inf")

# Record field indices, for readers of the loops below.
_TIME, _PRIORITY, _SEQ, _CALLBACK, _CANCELLED, _INTERVAL = range(6)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancel().

    Cancellation is lazy: the queue entry stays but is skipped when
    popped, which keeps cancel O(1). The simulator is notified so its
    live-event count stays exact without scanning the queue.
    """

    __slots__ = ("_record", "_simulator")

    def __init__(self, record: list, simulator: "Simulator") -> None:
        self._record = record
        self._simulator = simulator

    @property
    def time(self) -> float:
        return self._record[0]

    @property
    def cancelled(self) -> bool:
        return self._record[4]

    def cancel(self) -> None:
        self._simulator._cancel(self._record)


class RecurringHandle:
    """Handle for :meth:`Simulator.every`; cancel() stops future firings."""

    __slots__ = ("_record", "_simulator", "_cancelled")

    def __init__(self, record: list, simulator: "Simulator") -> None:
        self._record = record
        self._simulator = simulator
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._simulator._cancel(self._record)


class ProbeHandle:
    """Handle for :meth:`Simulator.add_probe`; cancel() stops sampling.

    A probe is an *observer*, not an event: it lives outside the event
    queue, never counts toward ``events_processed``, and must not mutate
    simulation state — only read it. That separation is what lets a
    telemetry flush run every window without perturbing determinism
    fingerprints.
    """

    __slots__ = ("interval_s", "next_due", "callback", "cancelled")

    def __init__(
        self, interval_s: float, next_due: float, callback: Callable[[], None]
    ) -> None:
        self.interval_s = interval_s
        self.next_due = next_due
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event simulator.

    Events at equal times fire in (priority, insertion order). Lower
    priority values fire first; the default priority is 0.

    ``queue`` is a pre-built queue object honouring the
    :mod:`repro.sim.eventq` contract; the default is a
    :class:`~repro.sim.eventq.CalendarEventQueue`.  It is the seam the
    differential tests use to run the same schedule on a binary-heap
    oracle.
    """

    def __init__(self, queue: Optional[Any] = None) -> None:
        self._now = 0.0
        self._queue = CalendarEventQueue() if queue is None else queue
        self._push = self._queue.push
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._run_wall_time = 0.0
        self._running = False
        self._probes: List[ProbeHandle] = []
        self._probes_fired = 0
        self._next_probe_due = _INF
        self._profiler: Optional[Any] = None
        self._sync_hooks: List[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def queue_kind(self) -> str:
        """The active event queue's ``kind`` (``calendar`` in production)."""
        return self._queue.kind

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Events cancelled before they could fire."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled events — O(1).

        Every queued record consumes one sequence number, so the live
        count is ``scheduled - cancelled - processed`` — no scanning,
        no per-event bookkeeping.
        """
        return self._sequence - self._events_cancelled - self._events_processed

    @property
    def queue_depth(self) -> int:
        """Queue entries including cancelled tombstones awaiting pop."""
        return self._queue.depth()

    @property
    def heap_depth(self) -> int:
        """Backward-compatible alias for :attr:`queue_depth`."""
        return self._queue.depth()

    @property
    def run_wall_time_s(self) -> float:
        """Wall-clock seconds spent inside :meth:`run` so far."""
        return self._run_wall_time

    @property
    def probes_fired(self) -> int:
        """Observer-probe firings (never counted as events)."""
        return self._probes_fired

    @property
    def profiler(self) -> Optional[Any]:
        """The attached attribution profiler, if any."""
        return self._profiler

    def attach_profiler(self, profiler: Any) -> Any:
        """Route event execution through ``profiler`` (attribution).

        The profiler is an *observer of the host clock only*: it wraps
        callback invocation with wall timing but adds, removes, and
        reorders nothing, so same-seed fingerprints are identical with
        or without it.  Detached, the run loop pays one ``is None`` test
        per event for it.
        """
        if self._running:
            raise SimulationError("cannot attach a profiler mid-run")
        if self._profiler is not None:
            raise SimulationError("a profiler is already attached")
        self._profiler = profiler
        return profiler

    def detach_profiler(self) -> None:
        if self._running:
            raise SimulationError("cannot detach a profiler mid-run")
        self._profiler = None

    def _cancel(self, record: list) -> None:
        if not record[4]:
            record[4] = True
            self._events_cancelled += 1

    def post(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        _heappush: Callable[[list, list], None] = heappush,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is allocated.

        The hot-path scheduling call for events that are never
        cancelled (frame deliveries, trace replay, benchmarks).  The
        near-window push is inlined here — one compare against the
        queue's ``near_end`` skips the ``push`` method call for the
        overwhelmingly common due-soon case.  ``not delay >= 0`` rejects
        negatives and NaN in one compare; a non-finite resulting time
        can only reach the queue's cold overflow path, which rejects it.
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        time = self._now + delay
        record = [time, priority, sequence, callback, False, None]
        queue = self._queue
        if time < queue.near_end:
            _heappush(queue.near, record)
        else:
            queue.push(record)

    def post_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle is allocated."""
        if not self._now <= time < _INF:
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite: {time}")
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        record = [time, priority, sequence, callback, False, None]
        queue = self._queue
        if time < queue.near_end:
            heappush(queue.near, record)
        else:
            queue.push(record)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite: {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        record = [time, priority, sequence, callback, False, None]
        self._push(record)
        return EventHandle(record, self)

    def every(
        self,
        interval_s: float,
        callback: Callable[[], None],
        priority: int = 0,
        first_delay_s: Optional[float] = None,
    ) -> RecurringHandle:
        """Run ``callback`` every ``interval_s`` seconds until cancelled.

        The first firing is after ``first_delay_s`` (default: one
        interval). Used by periodic machinery — invariant sweeps,
        keep-alive refreshes — that must not die with a single event.

        Recurring timers are native to the run loop: the popped record
        is re-armed in place (new time, fresh sequence number) after the
        callback returns, so steady-state periodic work allocates
        nothing per firing.
        """
        if interval_s <= 0:
            raise SimulationError(
                f"recurring interval must be positive: {interval_s}"
            )
        initial = interval_s if first_delay_s is None else first_delay_s
        if initial < 0:
            raise SimulationError(f"cannot schedule into the past: delay={initial}")
        first_time = self._now + initial
        if not math.isfinite(first_time):
            raise SimulationError(f"event time must be finite: {first_time}")
        sequence = self._sequence
        self._sequence = sequence + 1
        record = [first_time, priority, sequence, callback, False, interval_s]
        self._push(record)
        return RecurringHandle(record, self)

    def add_probe(
        self,
        interval_s: float,
        callback: Callable[[], None],
        first_at_s: Optional[float] = None,
    ) -> ProbeHandle:
        """Sample ``callback`` every ``interval_s`` simulated seconds.

        Probes are read-only observers that fire *between* events: a
        probe due at time ``t`` runs after every event strictly before
        ``t`` and before any event at or after ``t`` (the clock is
        advanced to ``t`` for the callback). They bypass the event queue
        entirely, so enabling one changes no event count, no schedule
        order, and no entity behaviour — the telemetry flush hook.
        """
        if interval_s <= 0:
            raise SimulationError(f"probe interval must be positive: {interval_s}")
        first = self._now + interval_s if first_at_s is None else first_at_s
        if first < self._now:
            raise SimulationError(
                f"cannot probe in the past: t={first} < now={self._now}"
            )
        probe = ProbeHandle(interval_s, first, callback)
        self._probes.append(probe)
        if first < self._next_probe_due:
            self._next_probe_due = first
        return probe

    def add_sync_hook(self, hook: Callable[[], None]) -> None:
        """Register a flush to run at the ``_events_processed`` sync points.

        Hooks fire immediately before any probe batch (so probes — and
        everything downstream of them: timeseries windows, live
        telemetry samples — observe fully settled state), at the end of
        every :meth:`step`, and when :meth:`run` returns.  Subsystems
        that defer per-event work into batched updates (the medium's
        deferred energy accrual) register here so the deferral
        is invisible at every externally observable boundary.
        """
        self._sync_hooks.append(hook)

    def _fire_probes_until(self, time_limit: float) -> None:
        """Fire every live probe due at or before ``time_limit``.

        Multiple due probes fire in due-time order (registration order
        breaks ties), each seeing the clock at its own due time.  Also
        recomputes the cached next-due time the run loop plans around.
        """
        for hook in self._sync_hooks:
            hook()
        probes = self._probes
        if probes:
            while True:
                chosen: Optional[ProbeHandle] = None
                for probe in probes:
                    if probe.cancelled or probe.next_due > time_limit:
                        continue
                    if chosen is None or probe.next_due < chosen.next_due:
                        chosen = probe
                if chosen is None:
                    break
                if chosen.next_due > self._now:
                    self._now = chosen.next_due
                chosen.next_due += chosen.interval_s
                self._probes_fired += 1
                chosen.callback()
            if any(p.cancelled for p in probes):
                self._probes = probes = [p for p in probes if not p.cancelled]
        self._next_probe_due = min(
            (p.next_due for p in probes), default=_INF
        )

    def _peek_next_time(self) -> Optional[float]:
        """Earliest live event time, draining tombstones on the way."""
        near = self._queue.near
        advance = self._queue.advance
        while True:
            while near:
                record = near[0]
                if record[4]:
                    heappop(near)
                    continue
                return record[0]
            if advance(_INF) is None:
                return None

    def step(self) -> bool:
        """Run the next pending event. Returns False if none remain."""
        next_time = self._peek_next_time()
        if next_time is None:
            return False
        self._fire_probes_until(next_time)
        record = heappop(self._queue.near)
        if record[0] < self._now:
            raise SimulationError("event queue yielded a past event")
        self._now = record[0]
        self._events_processed += 1
        if self._profiler is None:
            record[3]()
        else:
            self._profiler.profiled_call(record)
        interval = record[5]
        if interval is not None and not record[4]:
            record[0] += interval
            sequence = self._sequence
            self._sequence = sequence + 1
            record[2] = sequence
            self._push(record)
        for hook in self._sync_hooks:
            hook()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        measures normalized by elapsed time are well-defined.

        With a profiler attached, the loop times callbacks inline: every
        ``stride``-th event (every event in exact mode, whose stride is
        1) is wrapped in ``perf_counter`` and charged to its site.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        prof = self._profiler
        if prof is not None:
            stride = prof.stride
            skip = prof._skip
            resolve = prof._resolve
            prof_events0 = prof.events_seen - self._events_processed
            prof_wall0 = prof.run_wall_s
        perf = _time.perf_counter
        self._running = True
        wall_start = perf()
        queue = self._queue
        near = queue.near
        advance = queue.advance
        push = queue.push
        pop = heappop
        hpush = heappush
        limit = _INF if until is None else until
        processed = self._events_processed
        processed_limit = processed + max_events
        try:
            while True:
                # Inner limit: the probe boundary expressed as a single
                # float compare. An event at exactly the probe's due
                # time must yield to the probe, so the boundary is the
                # largest float strictly below it.
                probe_due = self._next_probe_due
                if probe_due <= limit:
                    inner_limit = math.nextafter(probe_due, -_INF)
                else:
                    inner_limit = limit
                blocked_at: Optional[float] = None
                while near:
                    record = near[0]
                    event_time = record[0]
                    if event_time > inner_limit:
                        blocked_at = event_time
                        break
                    pop(near)
                    if record[4]:
                        continue
                    self._now = event_time
                    processed += 1
                    if prof is None:
                        record[3]()
                    else:
                        skip -= 1
                        if skip <= 0:
                            callback = record[3]
                            t0 = perf()
                            callback()
                            elapsed = perf() - t0
                            stats = resolve(callback, record[5])
                            stats[3] += 1
                            stats[4] += 1
                            stats[5] += elapsed
                            skip = stride
                        else:
                            record[3]()
                    interval = record[5]
                    if interval is not None and not record[4]:
                        next_time = event_time + interval
                        record[0] = next_time
                        sequence = self._sequence
                        self._sequence = sequence + 1
                        record[2] = sequence
                        if next_time < queue.near_end:
                            hpush(near, record)
                        else:
                            push(record)
                    if processed > processed_limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; runaway schedule?"
                        )
                if blocked_at is None:
                    if advance(limit) is not None:
                        continue  # fresh events merged into `near`
                    if until is None:
                        return  # drained; the exit sync is in `finally`
                # Sync the counters before every probe batch, so probes
                # (and a live ``/profile`` scrape) see exact counts.
                self._events_processed = processed
                if prof is not None:
                    prof.events_seen = prof_events0 + processed
                    prof.run_wall_s = prof_wall0 + (perf() - wall_start)
                if blocked_at is None or blocked_at > limit:
                    # Horizon: nothing left at or before ``until``. Fire
                    # trailing probes and leave later events queued.
                    self._fire_probes_until(limit)
                    if until > self._now:
                        self._now = until
                    return
                # Probe boundary: fire everything due through the
                # blocking event's timestamp, then resume the fast loop.
                self._fire_probes_until(blocked_at)
        finally:
            self._events_processed = processed
            for hook in self._sync_hooks:
                hook()
            elapsed_wall = perf() - wall_start
            self._run_wall_time += elapsed_wall
            if prof is not None:
                prof._skip = skip
                prof.events_seen = prof_events0 + processed
                prof.run_wall_s = prof_wall0 + elapsed_wall
            self._running = False
