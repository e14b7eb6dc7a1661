"""Frame-lifecycle ledger: per-frame delay spans, per-client energy.

The paper's whole argument is a tradeoff curve — energy saved by hiding
broadcast frames versus the delivery delay added by deferring them to
later DTIMs (Section V reports a 2.3 % delay overhead at 1/f = 10 s).
The aggregate counters and timeseries can't show that curve: they know
*how many* frames moved, not *how long each one waited*. The ledger
closes that gap by following every broadcast frame through its causal
span:

    AP enqueue -> Algorithm 1 decision (flagged/hidden) -> DTIM drain
    -> on-air delivery (or fault drop)

and accruing two delays into :class:`~repro.obs.hdr.HdrHistogram`
buckets — ``buffer_delay_s`` (enqueue to DTIM drain: the HIDE deferral
cost) and ``delivery_delay_s`` per decision class (enqueue to the
delivery event, including airtime, channel queueing, and any injected
clock jitter). At run end, :meth:`finalize` attributes per-client wake
energy (everything except mandatory beacon listening) from the settled
energy models, so one document carries both sides of the tradeoff.

Determinism rules, mirroring the tracer and profiler:

* Every recorded value is **simulation time** read through the clock
  the wiring supplies, never wall clock — so the production delivery
  lane and event queue produce ledgers bit-identical to the test
  oracles' (delivery events pop in (time, seq) order, which every lane
  shares).
* The ledger only *reads* simulator/AP/table state. It must never bump
  a fingerprinted counter: port classification goes through
  :meth:`~repro.ap.port_table.ClientUdpPortTable.has_subscribers`,
  which — unlike ``clients_for_port`` — does not count as a lookup in
  the table's (collected, fingerprinted) op stats.
* Detached is the default and costs one ``is None`` check per frame on
  the AP plus an empty observer list on the Medium — the same
  zero-cost contract as ``NULL_TRACER`` and the profiler.

Frame identity across the drain: ``BroadcastBuffer.drain()`` re-creates
frames (to flip the more-data bit) in FIFO order, so enqueue timestamps
are tracked positionally in a deque and matched back at drain time; the
drained frame object is the exact one the Medium delivers, so the
in-flight map keys on ``id(frame)`` (the frame stays referenced by the
inflight heap until its delivery event, keeping the id stable).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.hdr import HdrHistogram, flatten_hdr

__all__ = [
    "FrameLedger",
    "LEDGER_SCHEMA",
    "flatten_ledger_document",
    "render_ledger",
    "write_ledger_json",
]

LEDGER_SCHEMA = "repro-ledger/v1"

#: Decision classes a drained frame can land in. ``flagged`` means
#: Algorithm 1 found at least one subscriber for the frame's UDP port
#: (some client will wake for it); ``hidden`` means no subscriber (every
#: HIDE client sleeps through it), including frames the AP cannot
#: classify as UDP; ``immediate`` frames skipped the buffer entirely
#: because no client was in power-save.
DECISION_CLASSES: Tuple[str, ...] = ("flagged", "hidden", "immediate")


class FrameLedger:
    """Accrues per-frame delay spans and per-client energy attribution.

    Wiring (done by ``prepare_trace_des`` when ``config.ledger``):

    * ``access_point.ledger = ledger`` — the AP reports enqueue,
      buffer-capacity drops, immediate sends, and DTIM drains.
    * ``medium.add_delivery_observer(ledger.on_delivery)`` — the Medium
      reports every delivery event (observers fire once per frame,
      after recipient fan-out).
    * ``ledger.finalize(clients, profile, duration_s)`` after the run.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        # Enqueue sim-times for frames currently in the broadcast
        # buffer, FIFO — positionally matched to drain order.
        self._pending_enqueues: Deque[float] = deque()
        # id(frame) -> (origin sim-time, decision class) for frames on
        # the air awaiting their delivery event.
        self._inflight: Dict[int, Tuple[float, str]] = {}
        # The default geometry (1e-6 to 1e4) spans 1 µs airtime-only
        # sends through multi-DTIM deferrals (~3 hours), and 1 µJ up to
        # a client's wake energy over any run length this harness makes.
        self.buffer_delay_s = HdrHistogram()
        self.delivery_delay_s: Dict[str, HdrHistogram] = {
            cls: HdrHistogram() for cls in DECISION_CLASSES
        }
        self.client_energy_j = HdrHistogram()
        self.client_wake_energy_j = HdrHistogram()
        # Span counters (all monotone; conservation asserts on them).
        self.frames_enqueued = 0
        self.frames_buffer_dropped = 0
        self.frames_drained = 0
        self.frames_immediate = 0
        self.frames_flagged = 0
        self.frames_hidden = 0
        self.frames_delivered = 0
        self.frames_dropped_on_air = 0
        self.clients_metered = 0
        self._finalized_duration_s: Optional[float] = None

    # -- AP-side span points ------------------------------------------

    def frame_enqueued(self) -> None:
        """A broadcast frame entered the PS buffer (enqueue accepted)."""
        self._pending_enqueues.append(self._clock())
        self.frames_enqueued += 1

    def frame_buffer_dropped(self) -> None:
        """The PS buffer was full; the frame was dropped at enqueue."""
        self.frames_buffer_dropped += 1

    def frame_immediate(self, frame: object) -> None:
        """No client in PS: the frame went straight to the air."""
        self._inflight[id(frame)] = (self._clock(), "immediate")
        self.frames_immediate += 1

    def frame_drained(self, frame: object, port_table) -> None:
        """A buffered frame left the buffer at a DTIM drain.

        Called in FIFO drain order. Records the buffering delay and the
        Algorithm-1 decision class — the table state here is exactly
        what ``compute_broadcast_flags`` saw this DTIM (TTL expiry and
        the flag pass both ran in ``_transmit_beacon`` just before).
        """
        now = self._clock()
        enqueued_at = self._pending_enqueues.popleft()
        self.buffer_delay_s.record(now - enqueued_at)
        self.frames_drained += 1
        try:
            port = frame.udp_dst_port()  # type: ignore[attr-defined]
        except AttributeError:
            port = None
        if port is not None and port_table.has_subscribers(port):
            decision = "flagged"
            self.frames_flagged += 1
        else:
            decision = "hidden"
            self.frames_hidden += 1
        self._inflight[id(frame)] = (enqueued_at, decision)

    # -- Medium-side span point ---------------------------------------

    def on_delivery(self, transmission, dropped: bool) -> None:
        """Delivery observer: a transmission's delivery event fired.

        Fires for *every* frame kind (beacons, ACKs, port reports, ...);
        anything the ledger is not tracking misses the in-flight map and
        returns after one dict probe.
        """
        entry = self._inflight.pop(id(transmission.frame), None)
        if entry is None:
            return
        origin, decision = entry
        if dropped:
            self.frames_dropped_on_air += 1
            return
        self.frames_delivered += 1
        self.delivery_delay_s[decision].record(self._clock() - origin)

    # -- run end -------------------------------------------------------

    def finalize(self, clients: Iterable, profile, duration_s: float) -> None:
        """Attribute per-client energy from the settled energy models.

        Runs after the simulator returns (deferred RadioArray accrual
        has flushed at the final sync hook by then, so both delivery
        lanes meter identical counters). ``client_energy_j`` is each
        client's total modeled energy; ``client_wake_energy_j`` strips
        mandatory beacon listening, leaving the broadcast-driven wake
        cost HIDE exists to reduce.
        """
        from repro.energy.meter import ClientEnergyMeter

        for client in clients:
            if client.power is None or client.wakelock is None:
                continue  # never attached to the sim
            metered = ClientEnergyMeter(client, profile).measure(duration_s)
            breakdown = metered.breakdown
            self.client_energy_j.record(breakdown.total_j)
            self.client_wake_energy_j.record(
                breakdown.total_j - breakdown.beacon_j
            )
            self.clients_metered += 1
        self._finalized_duration_s = duration_s

    # -- reading -------------------------------------------------------

    @property
    def frames_outstanding(self) -> int:
        """Frames seen by the ledger but not yet resolved.

        Still buffered (awaiting a DTIM) or still on the air (awaiting
        the delivery event). At any instant the conservation law
        ``enqueued + immediate == delivered + dropped_on_air +
        outstanding`` holds exactly (``buffer_dropped`` frames were
        refused at enqueue and never enter the count).
        """
        return len(self._pending_enqueues) + len(self._inflight)

    def merged_delivery_delay(self) -> HdrHistogram:
        """All decision classes folded into one delivery-delay view."""
        return HdrHistogram.merged(self.delivery_delay_s.values())

    def to_document(self) -> Dict[str, object]:
        """The ``repro-ledger/v1`` artifact ``--ledger-out`` writes."""
        counts = {
            "frames_enqueued": self.frames_enqueued,
            "frames_buffer_dropped": self.frames_buffer_dropped,
            "frames_drained": self.frames_drained,
            "frames_immediate": self.frames_immediate,
            "frames_flagged": self.frames_flagged,
            "frames_hidden": self.frames_hidden,
            "frames_delivered": self.frames_delivered,
            "frames_dropped_on_air": self.frames_dropped_on_air,
            "frames_outstanding": self.frames_outstanding,
            "clients_metered": self.clients_metered,
        }
        histograms: Dict[str, object] = {
            "buffer_delay_s": self.buffer_delay_s.to_dict(),
            "delivery_delay_s": self.merged_delivery_delay().to_dict(),
            "client_energy_j": self.client_energy_j.to_dict(),
            "client_wake_energy_j": self.client_wake_energy_j.to_dict(),
        }
        for decision in DECISION_CLASSES:
            histograms[f"delivery_delay_{decision}_s"] = self.delivery_delay_s[
                decision
            ].to_dict()
        return {
            "schema": LEDGER_SCHEMA,
            "duration_s": self._finalized_duration_s,
            "counts": counts,
            "histograms": histograms,
        }


def flatten_ledger_document(document: Dict[str, object]) -> Dict[str, float]:
    """Flatten a ``repro-ledger/v1`` document to diffable series keys.

    Counts become ``ledger_<counter>``; every histogram flattens through
    :func:`~repro.obs.hdr.flatten_hdr` under the ``ledger_<name>``
    prefix (stats, summary quantiles, cumulative ``_bucket{le=...}``
    counts) — so ``repro obs diff`` compares ledgers quantile-by-quantile
    *and* bucket-by-bucket under the ordinary abs/rel tolerances, and
    ``repro obs slo`` objectives can reference any of these keys.
    """
    flat: Dict[str, float] = {}
    for name, value in document.get("counts", {}).items():  # type: ignore[union-attr]
        flat[f"ledger_{name}"] = float(value)
    for name, payload in document.get("histograms", {}).items():  # type: ignore[union-attr]
        flat.update(flatten_hdr(f"ledger_{name}", payload))
    return flat


#: (document histogram name, table row label, value formatter) for the
#: human-facing summary table.
_RENDER_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("buffer_delay_s", "buffer delay (s)", "{:.4f}"),
    ("delivery_delay_s", "delivery delay (s)", "{:.4f}"),
    ("delivery_delay_flagged_s", "  flagged (s)", "{:.4f}"),
    ("delivery_delay_hidden_s", "  hidden (s)", "{:.4f}"),
    ("delivery_delay_immediate_s", "  immediate (s)", "{:.4f}"),
    ("client_energy_j", "client energy (J)", "{:.4f}"),
    ("client_wake_energy_j", "client wake energy (J)", "{:.4f}"),
)


def render_ledger(document: Dict[str, object]) -> str:
    """The quantile table ``repro sim run`` prints for an attached ledger."""
    from repro.reporting import render_table

    counts: Dict[str, object] = document.get("counts", {})  # type: ignore[assignment]
    histograms: Dict[str, object] = document.get("histograms", {})  # type: ignore[assignment]
    rows = []
    for name, label, fmt in _RENDER_ROWS:
        payload = histograms.get(name)
        if not payload:
            continue
        quantiles = payload.get("quantiles") or {}  # type: ignore[union-attr]
        count = int(payload.get("count") or 0)  # type: ignore[union-attr]
        if count == 0:
            continue
        rows.append(
            [label, str(count)]
            + [
                fmt.format(float(quantiles.get(q, 0.0)))
                for q in ("p50", "p90", "p99", "p999", "max")
            ]
        )
    title = (
        f"frame ledger: {counts.get('frames_enqueued', 0)} buffered + "
        f"{counts.get('frames_immediate', 0)} immediate -> "
        f"{counts.get('frames_flagged', 0)} flagged / "
        f"{counts.get('frames_hidden', 0)} hidden, "
        f"{counts.get('frames_delivered', 0)} delivered, "
        f"{counts.get('frames_dropped_on_air', 0)} dropped on air, "
        f"{counts.get('frames_outstanding', 0)} outstanding"
    )
    return render_table(
        ["span", "count", "p50", "p90", "p99", "p99.9", "max"],
        rows,
        title=title,
    )


def write_ledger_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
