"""Fingerprint identity between the calendar queue and the heap oracle.

The calendar queue earns its place as the production queue by being
*bit-identical* to the binary-heap oracle (``tests/sim/oracles.py``)
under the full protocol stack: same deterministic fingerprint, same
Prometheus export, same windowed timeseries — under fault injection,
crash/rejoin recovery, and streaming telemetry all at once.
``repro obs diff`` is exercised both as a library and through the CLI.
"""

from repro.cli import main as cli_main
from repro.experiments.des_run import (
    DesRunConfig,
    TelemetryConfig,
    run_trace_des,
)
from repro.faults import FaultPlan
from repro.obs import format_for_path, write_metrics
from repro.obs.diff import diff_files
from repro.traces import generate_trace
from tests.sim.oracles import oracle_lanes

_PLAN = FaultPlan.parse("loss=0.08,beacon=0.01,seed=11,crash=0@2:5")


def _run(queue, tmp_path, tag, telemetry=True):
    trace = generate_trace("Starbucks", seed=7)
    config = DesRunConfig(
        client_count=3,
        duration_s=8.0,
        fault_plan=_PLAN,
        check_invariants=True,
        telemetry=TelemetryConfig(window="dtim") if telemetry else None,
    )
    with oracle_lanes(heap=queue == "heap"):
        result = run_trace_des(trace, config)
    result.close()
    prom = tmp_path / f"{tag}.prom"
    write_metrics(result.collect_metrics(), str(prom), format_for_path(str(prom)))
    series = tmp_path / f"{tag}_timeseries.json"
    if result.timeseries is not None:
        result.timeseries.write(str(series))
    return result, prom, series


class TestBackendIdentity:
    def test_fingerprints_identical_under_faults(self, tmp_path):
        heap, heap_prom, heap_series = _run("heap", tmp_path, "heap")
        calendar, cal_prom, cal_series = _run("calendar", tmp_path, "calendar")
        assert heap.simulator.queue_kind == "heap"
        assert calendar.simulator.queue_kind == "calendar"
        assert (
            heap.deterministic_fingerprint()
            == calendar.deterministic_fingerprint()
        )
        # Event-level agreement, not just the hash: same event count,
        # same drops, same per-client wakeups.
        assert (
            heap.simulator.events_processed
            == calendar.simulator.events_processed
        )
        assert heap.medium.frames_dropped == calendar.medium.frames_dropped
        for h_client, c_client in zip(heap.clients, calendar.clients):
            assert h_client.counters == c_client.counters

        result = diff_files(
            str(heap_prom), str(cal_prom), ignore=("wall",)
        )
        assert result.ok(), [c for c in result.changed]

        assert heap_series.read_text() == cal_series.read_text()

    def test_obs_diff_cli_clean_across_backends(self, tmp_path, capsys):
        _, heap_prom, heap_series = _run("heap", tmp_path, "heap")
        _, cal_prom, cal_series = _run("calendar", tmp_path, "calendar")
        assert (
            cli_main(
                [
                    "obs",
                    "diff",
                    str(heap_prom),
                    str(cal_prom),
                    "--ignore",
                    "wall",
                    "--fail-on-missing",
                ]
            )
            == 0
        )
        assert (
            cli_main(["obs", "diff", str(heap_series), str(cal_series)]) == 0
        )
        capsys.readouterr()

    def test_telemetry_does_not_change_fingerprint(self, tmp_path):
        """Attaching the streaming stack never perturbs either queue."""
        for backend in ("heap", "calendar"):
            with_telemetry, _, _ = _run(backend, tmp_path, f"{backend}_t", True)
            without, _, _ = _run(backend, tmp_path, f"{backend}_q", False)
            assert (
                with_telemetry.deterministic_fingerprint()
                == without.deterministic_fingerprint()
            )

    def test_queue_depth_gauges_present_both_backends(self, tmp_path):
        for backend in ("heap", "calendar"):
            result, prom, _ = _run(backend, tmp_path, f"{backend}_gauge")
            text = prom.read_text()
            assert "repro_sim_queue_depth" in text
            assert "repro_sim_heap_depth" in text


class TestSweepWorkerIdentity:
    def test_sweep_report_independent_of_worker_count(self, tmp_path):
        from repro.experiments.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=("Starbucks", "Classroom"),
            seeds=(0, 1, 2),
            config=DesRunConfig(client_count=2, duration_s=3.0),
            fault_spec="loss=0.05",
        )
        serial = run_sweep(spec, workers=1)
        sharded = run_sweep(spec, workers=4)
        assert serial["merged_fingerprint"] == sharded["merged_fingerprint"]
        assert serial["runs"] == sharded["runs"]
        assert serial["totals"] == sharded["totals"]

    def test_sweep_backends_agree(self):
        """Forked sweep workers inherit the oracle patch."""
        from repro.experiments.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=("Starbucks",),
            seeds=(0, 1),
            config=DesRunConfig(client_count=2, duration_s=3.0),
        )
        calendar = run_sweep(spec, workers=2)
        with oracle_lanes(heap=True):
            heap = run_sweep(spec, workers=2)
        assert {run["queue_kind"] for run in heap["runs"]} == {"heap"}
        assert {run["queue_kind"] for run in calendar["runs"]} == {"calendar"}
        assert heap["merged_fingerprint"] == calendar["merged_fingerprint"]
