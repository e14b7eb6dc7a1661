"""Registry semantics: counters, gauges, histograms, isolation."""

import pytest

from repro.obs.hdr import latency_ms_histogram
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
    series_key,
    set_default_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("repro_test_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_set_total_mirrors_external_counter(self):
        c = Counter("repro_test_total")
        c.set_total(41)
        c.set_total(42)
        assert c.value == 42.0
        with pytest.raises(ValueError):
            c.set_total(-1)

    def test_reset(self):
        c = Counter("repro_test_total")
        c.inc(7)
        c.reset()
        assert c.value == 0.0

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("has spaces")
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("repro_depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_function_gauge_reads_live(self):
        box = {"v": 1.0}
        g = Gauge("repro_depth")
        g.set_function(lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 9.0
        assert g.value == 9.0
        g.set(3.0)  # explicit set clears the function
        assert g.value == 3.0


class TestHistogram:
    """The registry's histogram series: a thin wrapper over HdrHistogram."""

    def test_observations_land_in_buckets(self):
        h = MetricsRegistry().histogram("repro_lat_seconds")
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.histogram.sum == pytest.approx(55.55)
        assert h.histogram.min == pytest.approx(0.05)
        assert h.histogram.max == pytest.approx(50.0)
        buckets = h.histogram.to_dict()["buckets"]
        assert len(buckets) == 4
        assert sum(count for _, count in buckets) == 4

    def test_quantile_tail_falls_back_to_max(self):
        h = MetricsRegistry().histogram("repro_lat_seconds")
        h.observe(1e6)  # beyond the default geometry's 1e4 ceiling
        assert h.quantile(0.99) == pytest.approx(1e6)

    def test_quantile_empty_and_range_checks(self):
        h = MetricsRegistry().histogram("repro_lat_seconds")
        assert h.quantile(0.95) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.01)
        with pytest.raises(ValueError):
            h.quantile(-0.01)

    def test_set_histogram_mirrors_a_copy_with_its_geometry(self):
        source = latency_ms_histogram()
        for v in (0.2, 3.0, 40.0):
            source.record(v)
        h = MetricsRegistry().histogram("repro_lat_ms")
        h.set_histogram(source)
        assert h.histogram.to_dict() == source.to_dict()
        assert h.histogram.max_value == source.max_value
        h.reset()
        assert h.count == 0
        assert h.histogram.max_value == source.max_value
        assert source.count == 3  # the mirror is a copy

    def test_samples_are_a_summary(self):
        h = MetricsRegistry().histogram("repro_lat_seconds", labels={"k": "v"})
        assert h.kind == "summary"
        assert h.samples() == [
            ('repro_lat_seconds_sum{k="v"}', 0.0),
            ('repro_lat_seconds_count{k="v"}', 0.0),
        ]
        h.observe(0.5)
        keys = [key for key, _ in h.samples()]
        assert keys == [
            'repro_lat_seconds{k="v",quantile="p50"}',
            'repro_lat_seconds{k="v",quantile="p90"}',
            'repro_lat_seconds{k="v",quantile="p99"}',
            'repro_lat_seconds{k="v",quantile="p999"}',
            'repro_lat_seconds{k="v",quantile="max"}',
            'repro_lat_seconds_sum{k="v"}',
            'repro_lat_seconds_count{k="v"}',
        ]


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_events_total", "help text")
        b = reg.counter("repro_events_total")
        assert a is b
        assert b.help == "help text"

    def test_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_frames_total", labels={"kind": "Beacon"})
        b = reg.counter("repro_frames_total", labels={"kind": "DataFrame"})
        assert a is not b
        a.inc()
        assert b.value == 0.0
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("repro_g", labels={"a": "1", "b": "2"})
        b = reg.gauge("repro_g", labels={"b": "2", "a": "1"})
        assert a is b

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(ValueError):
            reg.gauge("repro_thing")

    def test_collect_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total")
        reg.counter("repro_a_total")
        names = [m.name for m in reg.collect()]
        assert names == sorted(names)

    def test_reset_zeroes_but_keeps_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_c").inc(5)
        reg.histogram("repro_h").observe(1.0)
        reg.reset()
        assert reg.get("repro_c").value == 0.0
        assert reg.get("repro_h").count == 0
        assert len(reg) == 2

    def test_clear_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("repro_c")
        reg.clear()
        assert len(reg) == 0
        # Name is free again, even with a different type.
        reg.gauge("repro_c")

    def test_registries_are_isolated(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_c").inc()
        assert b.get("repro_c") is None

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("repro_c", labels={"x": "1"}).inc(2)
        reg.histogram("repro_h").observe(0.5)
        entries = {e["name"]: e for e in reg.snapshot()}
        assert entries["repro_c"]["value"] == 2.0
        assert entries["repro_c"]["labels"] == {"x": "1"}
        hist = dict(entries["repro_h"])
        assert (hist.pop("name"), hist.pop("kind"), hist.pop("labels")) == (
            "repro_h", "summary", {},
        )
        assert hist == reg.get("repro_h").histogram.to_dict()
        assert hist["count"] == 1
        assert "p99" in hist["quantiles"]


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        isolated = MetricsRegistry()
        previous = set_default_registry(isolated)
        try:
            assert default_registry() is isolated
            default_registry().counter("repro_swap_total").inc()
            assert previous.get("repro_swap_total") is None
        finally:
            assert set_default_registry(previous) is isolated
        assert default_registry() is previous


class TestNameValidation:
    """The exposition-format grammar is enforced at creation time."""

    def test_leading_digit_rejected(self):
        with pytest.raises(ValueError):
            Counter("9lives_total")

    def test_unicode_rejected(self):
        with pytest.raises(ValueError):
            Counter("repro_évents_total")

    def test_colons_allowed_in_metric_names(self):
        assert Counter("repro:events:total").name == "repro:events:total"

    def test_label_name_grammar_enforced(self):
        with pytest.raises(ValueError):
            Counter("repro_x_total", labels={"bad-label": "v"})
        with pytest.raises(ValueError):
            Counter("repro_x_total", labels={"1st": "v"})

    def test_colons_not_allowed_in_label_names(self):
        with pytest.raises(ValueError):
            Counter("repro_x_total", labels={"a:b": "v"})


class TestSeriesKey:
    def test_bare_name_without_labels(self):
        assert series_key("repro_x_total") == "repro_x_total"
        assert series_key("repro_x_total", {}) == "repro_x_total"

    def test_labels_sorted_for_canonical_identity(self):
        assert (
            series_key("m", {"b": "2", "a": "1"})
            == series_key("m", {"a": "1", "b": "2"})
            == 'm{a="1",b="2"}'
        )

    def test_label_values_escaped(self):
        assert series_key("m", {"p": 'a"b\\c\nd'}) == 'm{p="a\\"b\\\\c\\nd"}'

    def test_metric_series_id_matches_series_key(self):
        metric = Counter("repro_x_total", labels={"kind": "Beacon"})
        assert metric.series_id == series_key(
            "repro_x_total", {"kind": "Beacon"}
        )
