"""Reference implementations the DES hot paths are checked against.

Production runs one event queue (:class:`~repro.sim.eventq.CalendarEventQueue`)
and one delivery lane (the slot-routed fast lane in
:class:`~repro.sim.medium.Medium`).  The simplest correct version of
each lives here, as a test-only oracle:

* :class:`HeapEventQueue` — one binary heap holds every record;
* :class:`ReferenceMedium` — every frame goes to every attached entity
  but its sender, and clients accrue energy per frame (no radio slots).

Differential suites run the same schedule or scenario on both and
require identical results.  :func:`oracle_lanes` swaps the oracles into
the full-DES harness (``repro.experiments.des_run``) by patching the
names it builds its simulator and medium from; a sweep forked inside
the ``with`` block inherits the patch in every worker.
"""

from __future__ import annotations

import contextlib
from heapq import heappop, heappush
from typing import Callable, Iterator, List, Optional
from unittest import mock

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.medium import Medium, Transmission, _is_beacon


class HeapEventQueue:
    """The event-queue oracle: one binary heap holds everything.

    ``near`` *is* the queue, so ``advance`` is always a no-op returning
    ``None`` — by the time the run loop calls it, the heap has drained.
    """

    kind = "heap"

    #: The near window never closes: every record belongs in ``near``.
    #: A class attribute so the simulator's inlined
    #: ``time < queue.near_end`` fast path works unchanged.
    near_end = float("inf")

    __slots__ = ("near",)

    def __init__(self) -> None:
        self.near: List[list] = []

    def push(self, record: list) -> None:
        if not record[0] < self.near_end:  # rejects +inf and NaN
            raise SimulationError(f"event time must be finite: {record[0]}")
        heappush(self.near, record)

    def advance(self, limit: float) -> Optional[float]:
        return None

    def depth(self) -> int:
        return len(self.near)


def heap_simulator() -> Simulator:
    """A simulator running on the heap oracle."""
    return Simulator(queue=HeapEventQueue())


class ReferenceMedium(Medium):
    """The delivery-lane oracle: every frame to every attached entity.

    No client is bound to a radio slot, so each one accrues energy in
    its own ``on_receive`` per frame, and the deferred-accrual sync is a
    no-op.  Pop order, loss draws, observers and ``on_complete`` are
    the production medium's, so only the recipient computation differs.
    """

    def __init__(self, simulator: Simulator, **kwargs) -> None:
        super().__init__(simulator, **kwargs)
        self._radios = None

    def attach(self, entity: Entity) -> None:
        if entity in self._entities:
            raise SimulationError(f"{entity!r} already attached to medium")
        self._entities.append(entity)
        self._targets = tuple(self._entities)
        if not entity.is_attached:
            entity.attach(self._simulator)

    def detach(self, entity: Entity) -> None:
        try:
            self._entities.remove(entity)
        except ValueError:
            raise SimulationError(f"{entity!r} is not attached to medium")
        self._targets = tuple(self._entities)

    def sync_accounting(self) -> None:
        """Nothing is deferred: accrual already happened per frame."""

    def _deliver(
        self,
        transmission: Transmission,
        on_complete: Optional[Callable[[Transmission], None]],
    ) -> None:
        frame = transmission.frame
        sender = transmission.sender
        self._transmissions_completed += 1
        dropped = False
        if self._fault_injector is not None:
            dropped = self._fault_injector.should_drop(frame)
        elif self._loss_probability > 0.0 and not _is_beacon(frame):
            dropped = self._loss_rng.random() < self._loss_probability
        if dropped:
            self._frames_dropped += 1
        else:
            for entity in self._targets:
                if entity is not sender:
                    entity.on_receive(transmission)
        for observer in self._delivery_observers:
            observer(transmission, dropped)
        if dropped:
            return  # frame corrupted on air: nobody decodes it
        if on_complete is not None:
            on_complete(transmission)


@contextlib.contextmanager
def oracle_lanes(heap: bool = False, reference: bool = False) -> Iterator[None]:
    """Run ``repro.experiments.des_run`` on the chosen oracles.

    ``heap`` swaps in :class:`HeapEventQueue`, ``reference`` swaps in
    :class:`ReferenceMedium`; with neither, the production path runs.
    """
    with contextlib.ExitStack() as stack:
        if heap:
            stack.enter_context(
                mock.patch("repro.experiments.des_run.Simulator", heap_simulator)
            )
        if reference:
            stack.enter_context(
                mock.patch("repro.experiments.des_run.Medium", ReferenceMedium)
            )
        yield
