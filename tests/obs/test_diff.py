"""Run-diff tooling: artifact parsing, tolerances, verdict rendering."""

import json

import pytest

from repro.obs.diff import (
    diff_files,
    diff_metrics,
    filter_ignored,
    load_metrics_file,
    parse_metrics_text,
    render_diff,
)
from repro.obs.exporters import render_metrics_jsonl, render_prometheus
from repro.obs.hdr import latency_ms_histogram
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_events_total", "Events").set_total(42)
    reg.counter(
        "repro_frames_total", labels={"kind": "Beacon"}
    ).set_total(3)
    hist = reg.histogram("repro_lat_seconds")
    hist.observe(0.05)
    return reg


class TestParsing:
    def test_prometheus_text(self):
        metrics = parse_metrics_text(
            "# HELP repro_x_total X\n"
            "# TYPE repro_x_total counter\n"
            "repro_x_total 5\n"
            'repro_y_total{kind="a"} 2.5\n'
        )
        assert metrics == {
            "repro_x_total": 5.0,
            'repro_y_total{kind="a"}': 2.5,
        }

    def test_prometheus_inf_and_nan(self):
        metrics = parse_metrics_text(
            "repro_a 12\nrepro_b +Inf\nrepro_c NaN\n"
        )
        assert metrics["repro_b"] == float("inf")
        assert "repro_c" not in metrics  # NaN never equals itself

    def test_snapshot_jsonl(self):
        text = render_metrics_jsonl(_sample_registry())
        metrics = parse_metrics_text(text)
        assert metrics["repro_events_total"] == 42.0
        assert metrics['repro_frames_total{kind="Beacon"}'] == 3.0
        assert metrics["repro_lat_seconds_count"] == 1.0

    def test_exported_prometheus_and_jsonl_key_identically(self):
        reg = _sample_registry()
        prom = parse_metrics_text(render_prometheus(reg))
        jsonl = parse_metrics_text(render_metrics_jsonl(reg))
        # Scalars share keys across formats; histograms expose _count
        # and _sum in both.
        for key in ("repro_events_total", 'repro_frames_total{kind="Beacon"}',
                    "repro_lat_seconds_count", "repro_lat_seconds_sum"):
            assert prom[key] == jsonl[key]

    def test_bench_document(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "repro-bench/v1",
            "benchmarks": {"engine_events_per_second": {"value": 5e5}},
        }))
        assert load_metrics_file(str(path)) == {
            "engine_events_per_second": 5e5
        }

    def test_profile_document(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({
            "schema": "repro-profile/v1",
            "events_total": 100,
            "run_wall_s": 0.5,
            "attributed_wall_s": 0.4,
            "scheduler_overhead_s": 0.1,
            "sites": [
                {"owner": "AP", "method": "tick", "kind": "event",
                 "events": 100, "wall_s": 0.4},
            ],
        }))
        loaded = load_metrics_file(str(path))
        assert loaded["repro_profile_events_total"] == 100.0
        assert loaded["repro_profile_run_wall_s"] == 0.5
        assert (
            loaded[
                'repro_profile_site_wall_seconds_total'
                '{kind="event",site="AP.tick"}'
            ]
            == 0.4
        )

    def test_timeseries_document_uses_final_window(self, tmp_path):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps({
            "schema": "repro-timeseries/v1",
            "windows": [
                {"values": {"repro_x_total": 1.0}},
                {"values": {"repro_x_total": 9.0}},
            ],
        }))
        assert load_metrics_file(str(path)) == {"repro_x_total": 9.0}

    def test_bare_fingerprint(self):
        fp = "ab" * 32
        assert parse_metrics_text(fp) == {"deterministic_fingerprint": fp}

    def test_plain_mapping(self):
        assert parse_metrics_text('{"a": 1, "b": 2.5}') == {"a": 1.0, "b": 2.5}

    def test_empty_text(self):
        assert parse_metrics_text("") == {}

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_metrics_text("not! a! metric! line!")


class TestTolerances:
    def test_exact_match_passes_at_zero_tolerance(self):
        result = diff_metrics({"a": 1.0}, {"a": 1.0})
        assert result.ok()
        assert result.deltas[0].status == "ok"

    def test_any_change_fails_at_zero_tolerance(self):
        result = diff_metrics({"a": 1.0}, {"a": 1.0001})
        assert not result.ok()
        assert result.regressions[0].key == "a"

    def test_abs_tolerance_admits_small_drift(self):
        assert diff_metrics({"a": 1.0}, {"a": 1.2}, abs_tol=0.25).ok()

    def test_rel_tolerance_admits_proportional_drift(self):
        assert diff_metrics({"a": 1000.0}, {"a": 1400.0}, rel_tol=0.5).ok()
        assert not diff_metrics({"a": 1000.0}, {"a": 1600.0}, rel_tol=0.5).ok()

    def test_either_tolerance_suffices(self):
        # 0 -> 0.1: infinite relative delta, but inside abs_tol.
        assert diff_metrics({"a": 0.0}, {"a": 0.1}, abs_tol=0.2).ok()

    def test_zero_baseline_change_is_infinite_relative(self):
        result = diff_metrics({"a": 0.0}, {"a": 5.0})
        assert result.deltas[0].rel_delta == float("inf")

    def test_string_values_compared_for_equality(self):
        same = diff_metrics({"f": "ab" * 32}, {"f": "ab" * 32})
        assert same.ok()
        other = diff_metrics({"f": "ab" * 32}, {"f": "cd" * 32})
        assert not other.ok()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_metrics({}, {}, rel_tol=-1)


class TestMissingSeries:
    def test_added_and_removed_classified(self):
        result = diff_metrics({"gone": 1.0}, {"new": 2.0})
        assert {d.status for d in result.deltas} == {"added", "removed"}

    def test_missing_passes_unless_fail_on_missing(self):
        result = diff_metrics({"gone": 1.0}, {"new": 2.0})
        assert result.ok()
        assert not result.ok(fail_on_missing=True)


class TestIgnore:
    def test_filter_ignored_drops_matching_keys(self):
        metrics = {"repro_sim_run_wall_seconds_total": 1.0, "repro_x": 2.0}
        assert filter_ignored(metrics, ("wall",)) == {"repro_x": 2.0}

    def test_diff_files_ignore_makes_wall_noise_invisible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"repro_wall_seconds": 1.0, "repro_x": 2.0}')
        b.write_text('{"repro_wall_seconds": 9.0, "repro_x": 2.0}')
        assert not diff_files(str(a), str(b)).ok()
        assert diff_files(str(a), str(b), ignore=("wall",)).ok()


class TestRoundTrip:
    def test_jsonl_export_diffs_clean_against_itself(self, tmp_path):
        reg = _sample_registry()
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        path_a.write_text(render_metrics_jsonl(reg))
        path_b.write_text(render_metrics_jsonl(reg))
        result = diff_files(str(path_a), str(path_b))
        assert result.ok()
        assert len(result.deltas) > 0

    def test_prom_export_diffs_against_jsonl_export(self, tmp_path):
        reg = _sample_registry()
        path_a = tmp_path / "a.prom"
        path_b = tmp_path / "b.jsonl"
        path_a.write_text(render_prometheus(reg))
        path_b.write_text(render_metrics_jsonl(reg))
        result = diff_files(str(path_a), str(path_b))
        # Same run exported two ways: every shared series matches; the
        # formats expose some format-only series ({quantile=...} lines
        # vs _p50/_bucket keys), which classify as added/removed, not
        # regressions.
        assert result.ok()


class TestHdrFlattening:
    def test_one_histogram_flattens_alike_in_every_document(self):
        hdr = latency_ms_histogram()
        for value in (0.002, 0.5, 0.5, 3.0, 42.0, 9e4):
            hdr.record(value)
        ledger = parse_metrics_text(json.dumps({
            "schema": "repro-ledger/v1",
            "counts": {},
            "histograms": {"buffer_delay_s": hdr.to_dict()},
        }))
        loadgen = parse_metrics_text(json.dumps({
            "schema": "repro-loadgen/v1",
            "achieved": {},
            "latency": {"rtt_ms": hdr.to_dict(), "rtt_ms_by_status": {}},
        }))

        def unprefixed(flat, prefix):
            assert all(key.startswith(prefix) for key in flat)
            return {key[len(prefix):]: value for key, value in flat.items()}

        suffixes = unprefixed(ledger, "ledger_buffer_delay_s_")
        assert unprefixed(loadgen, "loadgen_rtt_ms_") == suffixes
        reg = MetricsRegistry()
        reg.histogram("repro_lat_ms").set_histogram(hdr)
        snapshot = parse_metrics_text(render_metrics_jsonl(reg))
        assert unprefixed(snapshot, "repro_lat_ms_") == suffixes
        for stat in ("count", "sum", "mean", "min", "max",
                     "p50", "p90", "p99", "p999"):
            assert stat in suffixes
        buckets = [key for key in suffixes if key.startswith("bucket{le=")]
        assert len(buckets) == len(hdr.nonzero_buckets())
        assert suffixes[buckets[-1]] == 6.0

    def test_labels_sort_in_with_le(self):
        hdr = latency_ms_histogram()
        hdr.record(1.0)
        flat = parse_metrics_text(json.dumps({
            "schema": "repro-loadgen/v1",
            "achieved": {},
            "latency": {"rtt_ms_by_status": {"0": hdr.to_dict()}},
        }))
        assert flat['loadgen_rtt_ms_count{status="0"}'] == 1.0
        assert any(
            key.startswith('loadgen_rtt_ms_bucket{le="') and key.endswith(',status="0"}')
            for key in flat
        )


class TestRendering:
    def test_verdict_line_counts(self):
        result = diff_metrics({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 3.0})
        text = render_diff(result)
        assert "2 series compared" in text
        assert "1 beyond" in text
        assert "b" in text

    def test_all_ok_renders_verdict_only(self):
        text = render_diff(diff_metrics({"a": 1.0}, {"a": 1.0}))
        assert "1 series compared" in text
        assert "\n" not in text

    def test_show_ok_includes_passing_rows(self):
        text = render_diff(
            diff_metrics({"a": 1.0}, {"a": 1.0}), show_ok=True
        )
        assert "ok" in text

    def test_row_cap(self):
        a = {f"m{i:03d}": 0.0 for i in range(60)}
        b = {f"m{i:03d}": 1.0 for i in range(60)}
        text = render_diff(diff_metrics(a, b), max_rows=10)
        assert "50 more row(s) suppressed" in text
