"""Synthetic broadcast-trace generation (the Figure 6 stand-ins).

Every scenario run starts by synthesizing a 30-60 minute trace, so the
generator is written as one tight pass over a bound ``Random.random``.
It inlines the stdlib draw formulas it needs (CPython 3.9-3.12):

* ``expovariate(lambd)``  is ``-log(1.0 - random()) / lambd``;
* ``choices(pop, weights=w, k=1)[0]`` is
  ``pop[bisect_right(cum, random() * total, 0, n - 1)]`` with ``cum``
  the running sums of ``w`` and ``total = cum[-1] + 0.0``;
* ``triangular(low, high, mode)`` draws ``u = random()``, sets
  ``c = (mode - low) / (high - low)`` and returns
  ``low + (high - low) * sqrt(u * c)``, or the mirrored form with
  ``1 - u``, ``1 - c`` and the bounds swapped when ``u > c``.

The cumulative weights and the per-port triangular constants are
computed once per generator instead of once per frame. The RNG stream
and every float match the stdlib calls exactly;
``tests/traces/test_generator_equivalence.py`` checks that against the
stdlib-call generator that ``tests/traces/oracle_generator.py`` keeps.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import log, sqrt
from random import Random
from typing import Dict, List, Optional, Tuple, Union

from repro.dot11.llc import LLC_SNAP_BYTES
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.traces.release import apply_dtim_release
from repro.traces.scenarios import ScenarioSpec, scenario_by_name
from repro.traces.trace import BroadcastTrace
from repro.units import BEACON_INTERVAL_S, mbps

#: Fixed per-frame header bytes around the UDP payload on the air:
#: 802.11 MAC header + LLC/SNAP + IPv4 + UDP + FCS.
FRAME_OVERHEAD_BYTES = MAC_HEADER_BYTES + LLC_SNAP_BYTES + 20 + 8 + FCS_BYTES

#: Broadcast frames ride the basic rates; most APs send them at 1-2 Mb/s.
_RATE_CHOICES = (mbps(1), mbps(2), mbps(5.5))
_RATE_WEIGHTS = (0.70, 0.22, 0.08)
_RATE_CUM = list(accumulate(_RATE_WEIGHTS))
_RATE_TOTAL = _RATE_CUM[-1] + 0.0


class TraceGenerator:
    """Two-state MMPP offered traffic + service-port mix + DTIM release."""

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
        ports: List[int] = []
        weights: List[float] = []
        # Payload jitter: real discovery payloads vary with host names,
        # record counts, etc. ±25 % triangular around the typical size.
        # Per port: triangular (low, high, c).
        shapes: List[Tuple[float, float, float]] = []
        for port, service in sorted(WELL_KNOWN_BROADCAST_SERVICES.items()):
            ports.append(port)
            weights.append(service.traffic_weight * overrides.get(port, 1.0))
            typical = service.typical_payload_bytes
            low, high = typical * 0.75, typical * 1.25
            shapes.append((low, high, (typical - low) / (high - low)))
        self._ports = ports
        self._shapes = shapes
        self._port_cum = list(accumulate(weights))
        self._port_total = self._port_cum[-1] + 0.0

    def _offered_arrivals(self, random) -> List[float]:
        """MMPP arrival times over the scenario duration."""
        spec = self.spec
        duration = spec.duration_s
        quiet_rate, burst_rate = spec.quiet_rate_fps, spec.burst_rate_fps
        quiet_lambd = 1.0 / spec.quiet_dwell_s
        burst_lambd = 1.0 / spec.burst_dwell_s
        times: List[float] = []
        append = times.append
        now = 0.0
        in_burst = False
        state_end = -log(1.0 - random()) / quiet_lambd
        while now < duration:
            rate = burst_rate if in_burst else quiet_rate
            if rate <= 0:
                now = state_end
            else:
                gap = -log(1.0 - random()) / rate
                if now + gap < state_end:
                    now += gap
                    if now < duration:
                        append(now)
                    continue
                now = state_end
            in_burst = not in_burst
            lambd = burst_lambd if in_burst else quiet_lambd
            state_end = now + -log(1.0 - random()) / lambd
        return times

    def generate(self, seed: Optional[int] = None) -> BroadcastTrace:
        spec = self.spec
        random = Random(spec.seed if seed is None else seed).random
        # Every arrival time is drawn before any frame attribute: the
        # stream order the records (and so every fingerprint) depend on.
        times = self._offered_arrivals(random)
        ports, shapes = self._ports, self._shapes
        port_cum, port_total = self._port_cum, self._port_total
        port_hi = len(ports) - 1
        rate_cum, rate_total = _RATE_CUM, _RATE_TOTAL
        rate_hi = len(_RATE_CHOICES) - 1
        offered = []
        append = offered.append
        for time in times:
            index = bisect_right(port_cum, random() * port_total, 0, port_hi)
            low, high, c = shapes[index]
            u = random()
            if u > c:
                payload = int(high + (low - high) * sqrt((1.0 - u) * (1.0 - c)))
            else:
                payload = int(low + (high - low) * sqrt(u * c))
            rate = _RATE_CHOICES[
                bisect_right(rate_cum, random() * rate_total, 0, rate_hi)
            ]
            append((time, ports[index], FRAME_OVERHEAD_BYTES + max(8, payload), rate))
        records = apply_dtim_release(
            offered,
            duration_s=spec.duration_s,
            beacon_interval_s=self.beacon_interval_s,
            dtim_period=self.dtim_period,
        )
        return BroadcastTrace(
            name=spec.name,
            duration_s=spec.duration_s,
            records=tuple(records),
        )


def generate_trace(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    beacon_interval_s: float = BEACON_INTERVAL_S,
    dtim_period: int = 1,
) -> BroadcastTrace:
    """Generate one scenario trace (by name or spec)."""
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    return TraceGenerator(
        spec, beacon_interval_s=beacon_interval_s, dtim_period=dtim_period
    ).generate(seed=seed)
