"""The DES kernel's event queue: a bucketed calendar queue.

The simulator's hot loop consumes the queue through a deliberately tiny
contract:

``near``
    A plain-list binary heap of *event records* that are due soon.  The
    run loop pops it directly with :func:`heapq.heappop` — no method
    call per event.
``near_end``
    Every record with ``time < near_end`` belongs in ``near``, so the
    simulator can inline the common due-soon push as one compare plus a
    :func:`heapq.heappush`.
``push(record)``
    Insert a record in amortized O(1).
``advance(limit)``
    Called only when ``near`` has drained.  Move the next batch of
    records into ``near`` and return the earliest known event time if it
    is ``<= limit``, else ``None`` (nothing left to run this call).
``depth()``
    Structural entry count, *including* cancelled tombstones — the
    ``repro_sim_queue_depth`` gauge.

An event record is a plain 6-slot list — not an object — so the heap
orders records with C-speed lexicographic list comparison and the hot
loop indexes fields without attribute lookups::

    [time, priority, sequence, callback, cancelled, interval_or_None]

``sequence`` is unique per record, so comparison never reaches the
callback field.  ``interval_or_None`` makes recurring timers a run-loop
re-arm (reuse the popped record) instead of a closure per firing.

Cancellation is lazy: cancelling flips ``record[4]`` and the record is
skipped when popped, keeping cancel O(1) with no queue search.

:class:`CalendarEventQueue` is the classic bucketed calendar queue /
timer wheel (R. Brown, CACM 1988) shaped for this workload: a *near*
heap holds only the events inside the current bucket window, so its
depth stays tiny no matter how many far-future timers exist — the exact
case (thousands of keep-alive/TTL timers per fleet) where a single
binary heap degrades to deep-sift O(log n) with a large constant.
Pushes beyond the window are plain list appends into a wheel bucket; a
bucket is merged into the near heap wholesale (``extend`` + ``heapify``,
both C) only when the cursor reaches it.  A single binary heap holding
everything is kept in ``tests/sim/oracles.py`` as the differential
oracle the calendar queue is checked against.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional

from repro.errors import SimulationError

_INF = float("inf")

#: Default bucket width: half a beacon interval (102.4 ms / 2), so the
#: DTIM/BTIM event mix lands one-or-two buckets ahead of the cursor.
DEFAULT_BUCKET_WIDTH_S = 0.0512

#: Default wheel size: 256 buckets x 51.2 ms ~= 13.1 s of horizon, which
#: covers beacon schedules, retransmission timers, and keep-alive
#: refreshes; anything further (port-table TTLs, crash plans) overflows
#: into a small auxiliary heap that refills the wheel per rotation.
DEFAULT_NUM_BUCKETS = 256


class CalendarEventQueue:
    """A bucketed calendar queue with a near-heap for the active window.

    Invariants (the differential suite in
    ``tests/property/test_eventq_equivalence.py`` exercises all of
    them against the binary-heap oracle):

    * every record with ``time < near_end`` lives in ``near``;
    * wheel buckets hold only records of the *current* rotation
      (``rotation_start <= time < rotation_start + span``) at bucket
      index ``> cursor``;
    * records at or beyond the rotation horizon wait in the ``overflow``
      heap and are dealt into buckets when the wheel rotates;
    * merging a bucket into ``near`` preserves global order because the
      bucket-index function is monotone in time: everything in bucket
      ``i`` precedes everything in bucket ``i+1``, and ties inside one
      bucket are resolved by the near-heap's record comparison.

    The ``index <= cursor`` guard in :meth:`push` closes the one
    floating-point hazard: a time within rounding error of the current
    window edge whose computed bucket has already been swept goes into
    ``near`` (always safe) instead of a dead bucket.
    """

    kind = "calendar"

    __slots__ = (
        "near",
        "near_end",
        "_width",
        "_inv_width",
        "_num_buckets",
        "_span",
        "_buckets",
        "_cursor",
        "_rotation_start",
        "_overflow",
        "_wheel_count",
    )

    def __init__(
        self,
        bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        if bucket_width_s <= 0:
            raise SimulationError(
                f"bucket width must be positive: {bucket_width_s}"
            )
        if num_buckets < 2:
            raise SimulationError(f"need at least 2 buckets: {num_buckets}")
        self.near: List[list] = []
        self._width = bucket_width_s
        self._inv_width = 1.0 / bucket_width_s
        self._num_buckets = num_buckets
        self._span = bucket_width_s * num_buckets
        self._buckets: List[List[list]] = [[] for _ in range(num_buckets)]
        self._cursor = 0
        self._rotation_start = 0.0
        self.near_end = bucket_width_s
        self._overflow: List[list] = []
        self._wheel_count = 0

    def push(self, record: list) -> None:
        time = record[0]
        if time < self.near_end:
            heappush(self.near, record)
            return
        offset = time - self._rotation_start
        if offset < self._span:
            index = int(offset * self._inv_width)
            if index <= self._cursor:
                # Rounding landed on/behind the swept edge: the near
                # heap is always correct, a swept bucket never is.
                heappush(self.near, record)
            else:
                if index >= self._num_buckets:
                    index = self._num_buckets - 1
                self._buckets[index].append(record)
                self._wheel_count += 1
        else:
            if not offset < _INF:  # rejects +inf and NaN times
                raise SimulationError(f"event time must be finite: {time}")
            heappush(self._overflow, record)

    def _refill(self) -> None:
        """Deal overflow records that now fall inside the rotation."""
        overflow = self._overflow
        rotation_start = self._rotation_start
        span = self._span
        inv_width = self._inv_width
        buckets = self._buckets
        last = self._num_buckets - 1
        moved = 0
        while overflow and overflow[0][0] - rotation_start < span:
            record = heappop(overflow)
            index = int((record[0] - rotation_start) * inv_width)
            buckets[index if index < last else last].append(record)
            moved += 1
        self._wheel_count += moved

    def advance(self, limit: float) -> Optional[float]:
        """Merge buckets into ``near`` until an event ``<= limit`` shows.

        Precondition: the caller drained ``near`` (or its head is known
        to be past ``limit``).  Returns the earliest merged event time
        when it is ``<= limit``; ``None`` when nothing at or before
        ``limit`` remains anywhere in the queue.
        """
        near = self.near
        while True:
            if self._wheel_count:
                cursor = self._cursor + 1
                if cursor >= self._num_buckets:
                    self._cursor = 0
                    self._rotation_start += self._span
                    self.near_end = self._rotation_start + self._width
                    self._refill()
                    bucket = self._buckets[0]
                else:
                    self._cursor = cursor
                    self.near_end += self._width
                    bucket = self._buckets[cursor]
                if bucket:
                    self._wheel_count -= len(bucket)
                    near.extend(bucket)
                    heapify(near)
                    del bucket[:]
                    head = near[0][0]
                    return head if head <= limit else None
                if self.near_end > limit and not near:
                    return None
            elif self._overflow:
                earliest = self._overflow[0][0]
                if earliest > limit:
                    return None
                # Jump the wheel to the overflow's era instead of
                # rotating through empty span after empty span.
                self._rotation_start = earliest - (earliest % self._width)
                self._cursor = 0
                self.near_end = self._rotation_start + self._width
                self._refill()
                bucket = self._buckets[0]
                if not bucket:
                    # Rounding dealt the earliest record past bucket 0;
                    # let the wheel branch sweep forward to it.
                    continue
                self._wheel_count -= len(bucket)
                near.extend(bucket)
                heapify(near)
                del bucket[:]
                head = near[0][0]
                return head if head <= limit else None
            else:
                return None

    def depth(self) -> int:
        return len(self.near) + self._wheel_count + len(self._overflow)
