"""Observability for the HIDE reproduction: metrics, tracing, exporters.

The subsystem is zero-dependency and pull-based: simulator components
keep their cheap native counters, :mod:`repro.obs.collectors` mirrors
them into a :class:`MetricsRegistry` on demand, and
:mod:`repro.obs.exporters` renders the registry for Prometheus
scrapers, JSONL post-processing, or run reports. Live instrumentation
(spans and events) goes through a tracer; the default
:data:`NULL_TRACER` keeps the hot path at one attribute check.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
    series_key,
    set_default_registry,
)
from repro.obs.tracing import (
    JsonlTracer,
    NULL_TRACER,
    NullTracer,
    read_trace_jsonl,
    read_trace_jsonl_lenient,
    tracer_to_string_buffer,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TimeseriesRecorder,
    WindowSample,
    dtim_window_s,
)
from repro.obs.diff import (
    DiffResult,
    MetricDelta,
    diff_files,
    diff_metrics,
    load_metrics_file,
    render_diff,
)
from repro.obs.exporters import (
    format_for_path,
    render_metrics_jsonl,
    render_metrics_table,
    render_prometheus,
    write_metrics,
)
from repro.obs.collectors import (
    collect_access_point,
    collect_all,
    collect_client,
    collect_medium,
    collect_profiler,
    collect_simulator,
)
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    AttributionProfiler,
    ProfilerConfig,
    merge_profiles,
    render_profile_table,
    write_profile_json,
)
from repro.obs.hdr import HdrHistogram, QUANTILE_LABELS
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    FrameLedger,
    flatten_ledger_document,
    render_ledger,
    write_ledger_json,
)
from repro.obs.slo import (
    SLO_SCHEMA,
    ObjectiveResult,
    SloReport,
    evaluate_slo,
    load_slo_spec,
    render_slo,
)
from repro.obs.summarize import TraceSummary, render_summary, summarize_trace


def __getattr__(name: str):
    # MetricsServer needs http.server, which costs every importer of
    # this package tens of milliseconds; load it on first use instead.
    if name == "MetricsServer":
        from repro.obs.server import MetricsServer

        return MetricsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AttributionProfiler",
    "Counter",
    "DiffResult",
    "FrameLedger",
    "Gauge",
    "HdrHistogram",
    "JsonlTracer",
    "LEDGER_SCHEMA",
    "MetricDelta",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TRACER",
    "NullTracer",
    "ObjectiveResult",
    "PROFILE_SCHEMA",
    "ProfilerConfig",
    "QUANTILE_LABELS",
    "SLO_SCHEMA",
    "SloReport",
    "TIMESERIES_SCHEMA",
    "TimeseriesRecorder",
    "TraceSummary",
    "WindowSample",
    "collect_access_point",
    "collect_all",
    "collect_client",
    "collect_medium",
    "collect_profiler",
    "collect_simulator",
    "merge_profiles",
    "render_profile_table",
    "write_profile_json",
    "default_registry",
    "diff_files",
    "diff_metrics",
    "dtim_window_s",
    "evaluate_slo",
    "flatten_ledger_document",
    "format_for_path",
    "load_metrics_file",
    "load_slo_spec",
    "read_trace_jsonl",
    "read_trace_jsonl_lenient",
    "render_diff",
    "render_ledger",
    "render_metrics_jsonl",
    "render_metrics_table",
    "render_prometheus",
    "render_slo",
    "render_summary",
    "series_key",
    "set_default_registry",
    "summarize_trace",
    "tracer_to_string_buffer",
    "write_ledger_json",
    "write_metrics",
]
