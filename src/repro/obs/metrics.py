"""Zero-dependency metrics primitives: counters, gauges, HDR summaries.

A :class:`MetricsRegistry` owns named metric families; each family holds
one series per distinct label set. Experiments that run in parallel (or
tests that must not see each other's numbers) construct their own
registry; everything else shares the process-global default obtained
from :func:`default_registry`.

The simulator's hot paths never talk to a registry directly — entities
keep their existing plain-attribute counters and the
:mod:`repro.obs.collectors` module *pulls* them into a registry on
demand (the Prometheus collector model), so a disabled observability
stack costs the hot path nothing.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.hdr import HdrHistogram

#: Prometheus metric-name grammar (exposition format, version 0.0.4).
METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
#: Prometheus label-name grammar (no leading digit, no colons).
LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value for the exposition format / series keys."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def series_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Canonical ``name{k="v",...}`` identity for one series.

    Labels are sorted and values escaped, so the key matches the line
    the Prometheus exporter emits for the same series — which is what
    lets :mod:`repro.obs.diff` line up ``.prom``, snapshot-JSONL, and
    timeseries files against each other.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class Metric:
    """Base class: a name, optional help text, and a fixed label set.

    Names must match the Prometheus grammar ``[a-zA-Z_:][a-zA-Z0-9_:]*``
    and label names ``[a-zA-Z_][a-zA-Z0-9_]*`` — enforced here, at
    creation time, so the exporters can never emit an unscrapable line.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        if not isinstance(name, str) or METRIC_NAME_RE.fullmatch(name) is None:
            raise ValueError(
                f"invalid metric name {name!r}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
            )
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(_label_key(labels))
        for label_name in self.labels:
            if LABEL_NAME_RE.fullmatch(label_name) is None:
                raise ValueError(
                    f"invalid label name {label_name!r} on metric {name!r}: "
                    "must match [a-zA-Z_][a-zA-Z0-9_]*"
                )
        # Name and labels are fixed for the series' lifetime, so the
        # canonical key is computed once — samplers read it per window.
        self._series_id = series_key(self.name, self.labels)

    @property
    def label_key(self) -> LabelItems:
        return tuple(sorted(self.labels.items()))

    @property
    def series_id(self) -> str:
        """The canonical ``name{labels}`` key for this series."""
        return self._series_id

    def samples(self) -> List[Tuple[str, float]]:
        """``(series key, value)`` for every sample line the series exports.

        The Prometheus exporter and the timeseries recorder both read
        this list, so a scrape and a timeseries window key identically.
        """
        return [(self._series_id, self.value)]  # type: ignore[attr-defined]


class Counter(Metric):
    """A monotonically increasing value (events, frames, joules)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self._value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with an externally accumulated total.

        For pull-collectors that mirror a component's own lifetime
        counter (e.g. ``Simulator.events_processed``); the component
        guarantees monotonicity, so re-collection just refreshes.
        """
        if value < 0:
            raise ValueError(f"counter total must be non-negative: {value}")
        self._value = float(value)

    def reset(self) -> None:
        self._value = 0.0


class Gauge(Metric):
    """A value that can go up and down (queue depth, table size)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    @property
    def value(self) -> float:
        if self._function is not None:
            return float(self._function())
        return self._value

    def set(self, value: float) -> None:
        self._function = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make the gauge live: read ``fn()`` at observation time."""
        self._function = fn

    def reset(self) -> None:
        self._value = 0.0
        self._function = None


class HdrSummary(Metric):
    """A distribution series backed by an :class:`HdrHistogram`.

    Exported as a Prometheus ``summary``: one ``{quantile="..."}`` line
    per summary quantile (p50/p90/p99/p999 plus the exact max, omitted
    while empty) and ``_sum``/``_count`` lines. Other statistics are
    read off :attr:`histogram`.
    """

    kind = "summary"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, labels)
        self.histogram = HdrHistogram()

    @property
    def count(self) -> int:
        return self.histogram.count

    def observe(self, value: float) -> None:
        self.histogram.record(value)

    def quantile(self, q: float) -> float:
        """The q-quantile, q in [0, 1] (0.0 while empty)."""
        return self.histogram.quantile(q)

    def set_histogram(self, histogram: HdrHistogram) -> None:
        """Mirror a component's own histogram, geometry included.

        The pull-collector counterpart of :meth:`Counter.set_total`:
        the series holds a copy, so resetting it never touches the
        source.
        """
        self.histogram = HdrHistogram.merged([histogram])

    def samples(self) -> List[Tuple[str, float]]:
        histogram = self.histogram
        out: List[Tuple[str, float]] = []
        if histogram.count:
            out.extend(
                (series_key(self.name, {**self.labels, "quantile": label}), value)
                for label, value in histogram.quantiles().items()
            )
        out.append((series_key(self.name + "_sum", self.labels), histogram.sum))
        out.append(
            (series_key(self.name + "_count", self.labels), float(histogram.count))
        )
        return out

    def reset(self) -> None:
        histogram = self.histogram
        self.histogram = HdrHistogram(
            histogram.min_value, histogram.max_value, histogram.sub_count
        )


class MetricsRegistry:
    """Named metric families, each holding one series per label set.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    calls with the same name and labels return the same object, so call
    sites never need to cache metric handles. Asking for an existing
    name with a different metric type is an error.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Dict[LabelItems, Metric]] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _get_or_create(self, cls, name: str, help: str, labels) -> Metric:
        kind = cls.kind
        existing_kind = self._kinds.get(name)
        if existing_kind is not None and existing_kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {existing_kind}, "
                f"requested {kind}"
            )
        family = self._families.setdefault(name, {})
        key = _label_key(labels)
        metric = family.get(key)
        if metric is None:
            metric = cls(name, help or self._help.get(name, ""), labels)
            family[key] = metric
            self._kinds[name] = kind
            if help:
                self._help[name] = help
        return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> HdrSummary:
        return self._get_or_create(HdrSummary, name, help, labels)

    def collect(self) -> Iterator[Metric]:
        """All series, grouped by family, label sets in sorted order."""
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family):
                yield family[key]

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[Metric]:
        return self._families.get(name, {}).get(_label_key(labels))

    def __len__(self) -> int:
        return sum(len(family) for family in self._families.values())

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def reset(self) -> None:
        """Zero every series (families and label sets stay registered)."""
        for metric in self.collect():
            metric.reset()  # type: ignore[attr-defined]

    def clear(self) -> None:
        """Forget every family entirely."""
        self._families.clear()
        self._kinds.clear()
        self._help.clear()

    def snapshot(self) -> List[Dict[str, object]]:
        """A JSON-friendly dump of every series' current value."""
        out: List[Dict[str, object]] = []
        for metric in self.collect():
            entry: Dict[str, object] = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, HdrSummary):
                entry.update(metric.histogram.to_dict())
            else:
                entry["value"] = metric.value  # type: ignore[attr-defined]
            out.append(entry)
        return out


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry (one per interpreter)."""
    return _DEFAULT_REGISTRY


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry; returns the previous one.

    Lets parallel experiments (or tests) install an isolated registry
    around a run and restore the old one afterwards.
    """
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
