"""The broadcast-frame feed driving per-DTIM flag computation.

The live service has real clients but no real broadcast senders, so the
feed replays a scenario trace (the same MMPP catalog the sim and the
energy model consume) as the stream of UDP-padded broadcast frames the
AP would be buffering between DTIMs. Frames are pre-built once into
real :class:`~repro.dot11.data.DataFrame` objects — Algorithm 1 then
runs its genuine byte-parsing path (LLC/SNAP → IPv4 → UDP) against
them, exactly as in the sim.

The feed is deterministic: frame batches follow the trace's own
inter-DTIM spacing, cycling when the trace runs out, so two runs with
the same scenario and seed see identical per-DTIM workloads.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.errors import ConfigurationError
from repro.net.packet import zero_padded_broadcast_packet
from repro.traces import generate_trace, scenario_by_name
from repro.traces.generators import FRAME_OVERHEAD_BYTES
from repro.traces.trace import BroadcastTrace

_BSSID = MacAddress.from_string("02:aa:00:00:00:01")
_SENDER = MacAddress.from_string("02:bb:00:00:00:99")

#: Largest zero-filled UDP payload a fed frame carries.
_MAX_PAYLOAD_BYTES = 1400


class BroadcastFrameFeed:
    """Cycled per-DTIM batches of pre-built broadcast data frames."""

    def __init__(
        self,
        trace: BroadcastTrace,
        dtim_interval_s: float,
        max_pool: int = 2048,
    ) -> None:
        if dtim_interval_s <= 0:
            raise ConfigurationError(
                f"DTIM interval must be positive: {dtim_interval_s}"
            )
        records = list(trace)[:max_pool]
        if not records:
            raise ConfigurationError(f"trace {trace.name!r} has no frames")
        self.name = trace.name
        self.dtim_interval_s = dtim_interval_s
        self._frames: List[DataFrame] = []
        for record in records:
            # The record's length is the whole frame on the air; the
            # fed frame carries what is left after 802.11 + LLC + IP +
            # UDP framing, so the two lengths agree up to the cap.
            payload = max(1, record.length_bytes - FRAME_OVERHEAD_BYTES)
            self._frames.append(
                DataFrame.broadcast_udp(
                    bssid=_BSSID,
                    source=_SENDER,
                    ip_packet=zero_padded_broadcast_packet(
                        record.udp_port, min(payload, _MAX_PAYLOAD_BYTES)
                    ),
                )
            )
        # Frames per DTIM follows the trace's own arrival density: each
        # record keeps its time relative to the pool start, and batches
        # slide a DTIM-wide window over that span, wrapping cyclically.
        start = records[0].time
        self._rel_times = [record.time - start for record in records]
        self._span_s = max(self._rel_times[-1] + dtim_interval_s, dtim_interval_s)
        self._cursor = 0
        self._window_start = 0.0
        self.batches_served = 0
        self.frames_served = 0

    @classmethod
    def from_scenario(
        cls,
        scenario: str,
        dtim_interval_s: float,
        seed: Optional[int] = None,
        max_pool: int = 2048,
    ) -> "BroadcastFrameFeed":
        trace = generate_trace(scenario_by_name(scenario), seed=seed)
        return cls(trace, dtim_interval_s, max_pool=max_pool)

    def __len__(self) -> int:
        return len(self._frames)

    def next_batch(self) -> Sequence[DataFrame]:
        """Frames whose trace time falls inside the next DTIM window.

        The window slides forward one DTIM interval per call and wraps
        around the pooled span, so quiet trace stretches yield empty
        batches and bursts yield dense ones — the same per-DTIM load
        shape the sim AP sees.
        """
        end = self._window_start + self.dtim_interval_s
        batch: List[DataFrame] = []
        total = len(self._frames)
        while (
            self._cursor < total
            and self._rel_times[self._cursor] < end
        ):
            if self._rel_times[self._cursor] >= self._window_start:
                batch.append(self._frames[self._cursor])
            self._cursor += 1
        self._window_start = end
        if self._window_start >= self._span_s:
            self._window_start = 0.0
            self._cursor = 0
        self.batches_served += 1
        self.frames_served += len(batch)
        return batch
