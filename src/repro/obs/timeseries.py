"""Ring-buffered, windowed time series over a metrics registry.

The registry answers "what are the totals *now*"; this module answers
"how did they move *over time*". A :class:`TimeseriesRecorder` samples a
registry at fixed simulation-time boundaries — either a wall of fixed
width in sim seconds or one window per DTIM interval (see
:func:`dtim_window_s`) — and keeps the most recent windows in a ring
buffer, each with the cumulative value *and* the within-window delta of
every series, plus an exponentially weighted moving average of each
series' per-second rate.

Sampling is driven by the simulator's observer-probe hook
(:meth:`repro.sim.engine.Simulator.add_probe` via :meth:`attach`), so a
recorder sees the run *while it happens* without scheduling heap events
— same-seed runs produce identical fingerprints with or without a
recorder attached.

Every series contributes the same ``(key, value)`` samples the
Prometheus exporter renders (a histogram series: its quantile lines
plus ``_sum`` and ``_count``), so a timeseries dump and a ``.prom``
scrape key series identically and :mod:`repro.obs.diff` can compare
either against a snapshot JSONL.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, IO, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

#: Schema tag written into timeseries dumps (and recognized by obs diff).
TIMESERIES_SCHEMA = "repro-timeseries/v1"


def dtim_window_s(beacon_interval_s: float, dtim_period: int) -> float:
    """The sim-time width of one DTIM interval (one window per DTIM)."""
    if beacon_interval_s <= 0:
        raise ConfigurationError(
            f"beacon interval must be positive: {beacon_interval_s}"
        )
    if dtim_period < 1:
        raise ConfigurationError(f"DTIM period must be >= 1: {dtim_period}")
    return beacon_interval_s * dtim_period


@dataclass(frozen=True)
class WindowSample:
    """One closed aggregation window.

    ``values`` holds each series' cumulative value at the window's end;
    ``deltas`` holds the change across the window (for gauges this is
    the signed movement, for counters the amount accrued).
    """

    index: int
    t_start: float
    t_end: float
    values: Dict[str, float]
    deltas: Dict[str, float]

    @property
    def width_s(self) -> float:
        return self.t_end - self.t_start

    def rate(self, key: str) -> float:
        """The series' per-second rate across this window."""
        width = self.width_s
        if width <= 0:
            return 0.0
        return self.deltas.get(key, 0.0) / width

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "values": dict(self.values),
            "deltas": dict(self.deltas),
        }


class TimeseriesRecorder:
    """Windowed registry sampling with a bounded ring buffer.

    ``collect_fn`` (when given) refreshes the registry from the live
    components before each sample — the pull-collector model extended
    to mid-run sampling. The ring keeps the newest ``capacity`` windows;
    older ones are dropped but stay counted in :attr:`samples_taken`,
    and the EWMA rates integrate the whole run regardless of capacity.

    ``values_fn`` is the fast path for per-DTIM sampling: a callable
    returning a flat ``series-key -> value`` mapping read straight off
    the components, bypassing registry collection entirely. Full-fleet
    registry collection costs time proportional to the number of series
    (hundreds at the paper's 25-client operating point), which would
    dwarf the simulator's own per-window work; a hand-rolled reader
    with client counters pre-aggregated stays fixed-size and keeps the
    sampling overhead inside the < 10% contract ``repro bench``
    enforces. When ``values_fn`` is set it wins over
    ``collect_fn``/registry iteration, and ``registry`` may be None.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry],
        window_s: float,
        capacity: int = 512,
        ewma_alpha: float = 0.3,
        collect_fn: Optional[Callable[[], None]] = None,
        values_fn: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window must be positive: {window_s}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1: {capacity}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"EWMA alpha must be in (0, 1]: {ewma_alpha}"
            )
        if registry is None and values_fn is None:
            raise ConfigurationError(
                "recorder needs a registry to iterate or a values_fn"
            )
        self.registry = registry
        self.window_s = float(window_s)
        self.capacity = capacity
        self.ewma_alpha = float(ewma_alpha)
        self._collect_fn = collect_fn
        self._values_fn = values_fn
        self._windows: Deque[WindowSample] = deque(maxlen=capacity)
        self._last_values: Dict[str, float] = {}
        self._last_t = 0.0
        self._ewma: Dict[str, float] = {}
        self.samples_taken = 0

    # -- sampling -----------------------------------------------------

    def _scalar_values(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for metric in self.registry.collect():
            out.update(metric.samples())
        return out

    def sample(self, now: float) -> WindowSample:
        """Close the window ending at sim time ``now``."""
        if self._values_fn is not None:
            values = dict(self._values_fn())
        else:
            if self._collect_fn is not None:
                self._collect_fn()
            values = self._scalar_values()
        deltas = {
            key: value - self._last_values.get(key, 0.0)
            for key, value in values.items()
        }
        span = now - self._last_t
        if span > 0:
            alpha = self.ewma_alpha
            for key, delta in deltas.items():
                rate = delta / span
                previous = self._ewma.get(key)
                self._ewma[key] = (
                    rate if previous is None
                    else alpha * rate + (1.0 - alpha) * previous
                )
        window = WindowSample(self.samples_taken, self._last_t, now, values, deltas)
        self._windows.append(window)
        self.samples_taken += 1
        self._last_values = values
        self._last_t = now
        return window

    def attach(self, simulator, first_at_s: Optional[float] = None):
        """Sample at every window boundary of ``simulator`` (a probe)."""
        return simulator.add_probe(
            self.window_s,
            lambda: self.sample(simulator.now),
            first_at_s=first_at_s,
        )

    def close_partial(self, now: float) -> Optional[WindowSample]:
        """Close the trailing partial window, if any time has passed."""
        if now > self._last_t:
            return self.sample(now)
        return None

    # -- views --------------------------------------------------------

    @property
    def windows(self) -> Tuple[WindowSample, ...]:
        return tuple(self._windows)

    @property
    def dropped_windows(self) -> int:
        """Windows evicted from the ring to respect ``capacity``."""
        return self.samples_taken - len(self._windows)

    @property
    def last_sample_time(self) -> float:
        return self._last_t

    def latest(self) -> Optional[WindowSample]:
        return self._windows[-1] if self._windows else None

    def series_names(self) -> List[str]:
        names = set()
        for window in self._windows:
            names.update(window.values)
        return sorted(names)

    def delta_series(self, key: str) -> List[float]:
        """The per-window deltas of one series, oldest first."""
        return [w.deltas.get(key, 0.0) for w in self._windows]

    def ewma_rates(self) -> Dict[str, float]:
        """EWMA of each series' per-second rate, keyed like the windows."""
        return dict(sorted(self._ewma.items()))

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TIMESERIES_SCHEMA,
            "window_s": self.window_s,
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "dropped_windows": self.dropped_windows,
            "ewma_alpha": self.ewma_alpha,
            "ewma_per_second": self.ewma_rates(),
            "windows": [w.to_dict() for w in self._windows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def write(self, destination: Union[str, IO[str]]) -> None:
        text = self.to_json() + "\n"
        if isinstance(destination, (str, bytes)):
            with open(destination, "w", encoding="utf-8") as stream:
                stream.write(text)
        else:
            destination.write(text)
