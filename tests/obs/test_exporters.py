"""Exporter formats: Prometheus text, JSONL, human table."""

import io
import json

import pytest

from repro.obs.exporters import (
    format_for_path,
    render_metrics_jsonl,
    render_metrics_table,
    render_prometheus,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_events_total", "Events processed").inc(42)
    reg.gauge("repro_depth", "Heap depth").set(7)
    reg.counter(
        "repro_frames_total", "Frames by kind", labels={"kind": "Beacon"}
    ).inc(3)
    hist = reg.histogram("repro_lat_seconds", "Latency")
    hist.observe(0.05)
    hist.observe(0.5)
    return reg


class TestPrometheus:
    def test_help_type_and_values(self):
        text = render_prometheus(_sample_registry())
        assert "# HELP repro_events_total Events processed" in text
        assert "# TYPE repro_events_total counter" in text
        assert "repro_events_total 42" in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 7" in text

    def test_labels_rendered_and_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_c", labels={"path": 'a"b\\c'}).inc()
        text = render_prometheus(reg)
        assert 'repro_c{path="a\\"b\\\\c"} 1' in text

    def test_histogram_exposition(self):
        reg = _sample_registry()
        text = render_prometheus(reg)
        quantiles = reg.get("repro_lat_seconds").histogram.quantiles()
        assert "# TYPE repro_lat_seconds summary" in text
        for label, value in quantiles.items():
            assert f'repro_lat_seconds{{quantile="{label}"}} {value!r}' in text
        assert 'repro_lat_seconds{quantile="max"} 0.5' in text
        assert "repro_lat_seconds_sum 0.55" in text
        assert "repro_lat_seconds_count 2" in text
        assert "_bucket" not in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_ends_with_newline(self):
        assert render_prometheus(_sample_registry()).endswith("\n")


class TestJsonl:
    def test_one_object_per_series(self):
        text = render_metrics_jsonl(_sample_registry())
        entries = [json.loads(line) for line in text.strip().splitlines()]
        by_name = {(e["name"], tuple(sorted(e["labels"].items()))): e for e in entries}
        assert by_name[("repro_events_total", ())]["value"] == 42.0
        assert by_name[("repro_frames_total", (("kind", "Beacon"),))]["value"] == 3.0
        hist = by_name[("repro_lat_seconds", ())]
        assert hist["count"] == 2


class TestTable:
    def test_table_lists_every_series(self):
        text = render_metrics_table(_sample_registry())
        assert "repro_events_total" in text
        assert "kind=Beacon" in text
        assert "n=2" in text  # histogram summary cell

    def test_empty_registry_message(self):
        assert "no metrics recorded" in render_metrics_table(MetricsRegistry())


class TestWriteMetrics:
    def test_writes_path_with_explicit_format(self, tmp_path):
        path = tmp_path / "out.prom"
        write_metrics(_sample_registry(), str(path), format="prometheus")
        assert "repro_events_total 42" in path.read_text()

    def test_writes_stream(self):
        buffer = io.StringIO()
        write_metrics(_sample_registry(), buffer, format="jsonl")
        assert json.loads(buffer.getvalue().splitlines()[0])

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            write_metrics(MetricsRegistry(), io.StringIO(), format="xml")

    def test_format_for_path(self):
        assert format_for_path("a.prom") == "prometheus"
        assert format_for_path("a.txt") == "prometheus"
        assert format_for_path("a.jsonl") == "jsonl"
        assert format_for_path("a.JSON") == "jsonl"
        assert format_for_path("a.tbl") == "table"


class TestExporterEdgeCases:
    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_c", help="line one\nline two \\ backslash")
        text = render_prometheus(reg)
        assert "# HELP repro_c line one\\nline two \\\\ backslash" in text
        assert "\nline two" not in text  # no raw newline inside HELP

    def test_zero_observation_histogram_exposes_zero_series(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat_seconds", "Latency")
        text = render_prometheus(reg)
        assert "quantile=" not in text  # no quantile lines while empty
        assert "repro_lat_seconds_count 0" in text
        assert "repro_lat_seconds_sum 0" in text

    def test_zero_observation_histogram_jsonl(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat_seconds")
        entry = json.loads(render_metrics_jsonl(reg).strip())
        assert entry["count"] == 0
        assert entry["sum"] == 0.0
        assert entry["quantiles"]["p50"] == 0.0
        assert entry["buckets"] == []

    def test_empty_registry_jsonl_is_empty(self):
        assert render_metrics_jsonl(MetricsRegistry()) == ""
