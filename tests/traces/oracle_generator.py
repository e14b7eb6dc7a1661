"""Test-only oracle: the stdlib-call trace generator and release pass.

This is the generator as first written, drawing through
``random.Random.expovariate``/``choices``/``triangular`` and building
records in a plain loop. :mod:`repro.traces.generators` inlines those
draw formulas for speed; the differential suite
(``test_generator_equivalence.py``) checks that both produce equal
records, so any drift in the inlined arithmetic or the RNG stream order
fails there rather than silently changing every downstream fingerprint.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.sim.medium import PHY_OVERHEAD_S, SIFS_S
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.generators import FRAME_OVERHEAD_BYTES
from repro.traces.scenarios import ScenarioSpec
from repro.traces.trace import BroadcastTrace
from repro.units import BEACON_INTERVAL_S, mbps

_RATE_CHOICES = (mbps(1), mbps(2), mbps(5.5))
_RATE_WEIGHTS = (0.70, 0.22, 0.08)


def oracle_dtim_release(
    offered: Sequence[Tuple[float, int, int, float]],
    duration_s: float,
    beacon_interval_s: float = BEACON_INTERVAL_S,
    dtim_period: int = 1,
    beacon_airtime_s: float = 0.9e-3,
) -> List[BroadcastFrameRecord]:
    dtim_interval = beacon_interval_s * dtim_period
    ordered = sorted(offered, key=lambda item: item[0])
    records: List[BroadcastFrameRecord] = []

    index = 0
    boundary = dtim_interval
    transmit_cursor = 0.0
    while index < len(ordered) and boundary <= duration_s + dtim_interval:
        burst: List[Tuple[float, int, int, float]] = []
        while index < len(ordered) and ordered[index][0] < boundary:
            burst.append(ordered[index])
            index += 1
        if burst:
            transmit_cursor = max(transmit_cursor, boundary + beacon_airtime_s)
            for position, (offered_time, port, length, rate) in enumerate(burst):
                start = transmit_cursor
                airtime = PHY_OVERHEAD_S + length * 8 / rate
                transmit_cursor = start + airtime + SIFS_S
                if start >= duration_s:
                    break
                records.append(
                    BroadcastFrameRecord(
                        time=start,
                        udp_port=port,
                        length_bytes=length,
                        rate_bps=rate,
                        more_data=position < len(burst) - 1,
                        offered_time=offered_time,
                    )
                )
        boundary += dtim_interval
    return records


class OracleTraceGenerator:
    """Two-state MMPP + port mix + DTIM release, via stdlib draw calls."""

    def __init__(
        self,
        spec: ScenarioSpec,
        beacon_interval_s: float = BEACON_INTERVAL_S,
        dtim_period: int = 1,
    ) -> None:
        self.spec = spec
        self.beacon_interval_s = beacon_interval_s
        self.dtim_period = dtim_period
        overrides: Dict[int, float] = dict(spec.port_weight_overrides)
        self._ports: List[int] = []
        self._weights: List[float] = []
        for port, service in sorted(WELL_KNOWN_BROADCAST_SERVICES.items()):
            self._ports.append(port)
            self._weights.append(service.traffic_weight * overrides.get(port, 1.0))

    def _offered_arrivals(self, rng: random.Random) -> List[float]:
        spec = self.spec
        times: List[float] = []
        now = 0.0
        in_burst = False
        state_end = rng.expovariate(1.0 / spec.quiet_dwell_s)
        while now < spec.duration_s:
            rate = spec.burst_rate_fps if in_burst else spec.quiet_rate_fps
            if rate <= 0:
                now = state_end
            else:
                gap = rng.expovariate(rate)
                if now + gap < state_end:
                    now += gap
                    if now < spec.duration_s:
                        times.append(now)
                    continue
                now = state_end
            in_burst = not in_burst
            dwell = spec.burst_dwell_s if in_burst else spec.quiet_dwell_s
            state_end = now + rng.expovariate(1.0 / dwell)
        return times

    def _frame_for(self, rng: random.Random) -> Tuple[int, int, float]:
        port = rng.choices(self._ports, weights=self._weights, k=1)[0]
        service = WELL_KNOWN_BROADCAST_SERVICES[port]
        payload = max(
            8,
            int(
                rng.triangular(
                    service.typical_payload_bytes * 0.75,
                    service.typical_payload_bytes * 1.25,
                    service.typical_payload_bytes,
                )
            ),
        )
        rate = rng.choices(_RATE_CHOICES, weights=_RATE_WEIGHTS, k=1)[0]
        return port, FRAME_OVERHEAD_BYTES + payload, rate

    def generate(self, seed: Optional[int] = None) -> BroadcastTrace:
        rng = random.Random(self.spec.seed if seed is None else seed)
        offered = [
            (time,) + self._frame_for(rng) for time in self._offered_arrivals(rng)
        ]
        records = oracle_dtim_release(
            offered,
            duration_s=self.spec.duration_s,
            beacon_interval_s=self.beacon_interval_s,
            dtim_period=self.dtim_period,
        )
        return BroadcastTrace(
            name=self.spec.name,
            duration_s=self.spec.duration_s,
            records=tuple(records),
        )
