"""DTIM release: reshape offered arrivals into over-the-air bursts.

Real broadcast traces are captured over the air next to an AP with PS
clients associated, so frames appear in back-to-back bursts right after
DTIM beacons — not at their wired-side arrival times. This pass applies
the standard buffering rule: a frame offered during DTIM period k airs
in the burst after DTIM k+1's beacon, serialized at its own data rate,
with the more-data bit set on every burst frame except the last.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.medium import PHY_OVERHEAD_S, SIFS_S
from repro.traces.frame_record import BroadcastFrameRecord
from repro.units import BEACON_INTERVAL_S


def apply_dtim_release(
    offered: Sequence[Tuple[float, int, int, float]],
    duration_s: float,
    beacon_interval_s: float = BEACON_INTERVAL_S,
    dtim_period: int = 1,
    beacon_airtime_s: float = 0.9e-3,
) -> List[BroadcastFrameRecord]:
    """Turn ``(offered_time, port, length_bytes, rate_bps)`` tuples into
    time-sorted on-air records.

    ``beacon_airtime_s`` is the head-of-burst offset: the DTIM beacon
    itself must finish before the first broadcast frame starts (a 65-byte
    beacon at 1 Mb/s plus preamble is ≈0.7 ms; the default adds a DIFS's
    worth of slack). Bursts too large for one beacon interval spill into
    the next — matching AP behaviour under overload.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if beacon_interval_s <= 0 or dtim_period < 1:
        raise ConfigurationError("bad beacon schedule")
    dtim_interval = beacon_interval_s * dtim_period
    ordered = sorted(offered, key=itemgetter(0))
    records: List[BroadcastFrameRecord] = []
    append = records.append
    record = BroadcastFrameRecord
    total = len(ordered)

    index = 0
    boundary = dtim_interval  # first DTIM at one interval in
    transmit_cursor = 0.0
    while index < total and boundary <= duration_s + dtim_interval:
        # The burst is everything offered before this DTIM boundary.
        end = index
        while end < total and ordered[end][0] < boundary:
            end += 1
        if end > index:
            head = boundary + beacon_airtime_s
            if head > transmit_cursor:
                transmit_cursor = head
            last = end - 1
            for position in range(index, end):
                offered_time, port, length, rate = ordered[position]
                start = transmit_cursor
                airtime = PHY_OVERHEAD_S + length * 8 / rate
                transmit_cursor = start + airtime + SIFS_S
                if start >= duration_s:
                    break
                append(record(start, port, length, rate, position < last, offered_time))
            index = end
        boundary += dtim_interval
    return records
