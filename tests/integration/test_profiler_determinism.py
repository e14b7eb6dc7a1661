"""The profiler's prime directive: attribution never perturbs the run.

Attaching an :class:`AttributionProfiler` adds no events, removes none,
and reorders none — so the same seeded scenario must produce the exact
same determinism fingerprint with profiling off, in exact mode, and in
sampling mode, on the calendar queue and the heap oracle. These tests
pin that, plus the
attribution-sum acceptance check (per-site wall + scheduler overhead
reconstructs the run wall) and the ``repro profile`` CLI surface.
"""

import json

import pytest

from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.obs.profiler import PROFILE_SCHEMA, ProfilerConfig
from repro.traces import generate_trace, scenario_by_name
from tests.sim.oracles import oracle_lanes

_DURATION_S = 12.0


def _fingerprint(trace, queue, profiler):
    config = DesRunConfig(
        client_count=3, duration_s=_DURATION_S, profiler=profiler
    )
    with oracle_lanes(heap=queue == "heap"):
        result = run_trace_des(trace, config)
    try:
        return result.deterministic_fingerprint(), result
    finally:
        result.close()


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scenario_by_name("Classroom"), seed=7)


class TestFingerprintIdentity:
    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_profiling_never_changes_the_fingerprint(self, trace, queue):
        baseline, _ = _fingerprint(trace, queue, None)
        exact, exact_result = _fingerprint(
            trace, queue, ProfilerConfig(mode="exact")
        )
        sampling, sampling_result = _fingerprint(
            trace, queue, ProfilerConfig(mode="sampling", stride=16)
        )
        assert exact == baseline
        assert sampling == baseline
        # And the profilers actually observed the whole run.
        assert (
            exact_result.profiler.events_seen
            == exact_result.simulator.events_processed
        )
        assert (
            sampling_result.profiler.events_seen
            == sampling_result.simulator.events_processed
        )

    def test_profiled_metrics_exclude_profiler_series(self, trace):
        _, result = _fingerprint(trace, "calendar", ProfilerConfig(mode="exact"))
        names = {
            metric.name for metric in result.collect_metrics().collect()
        }
        assert not any(name.startswith("repro_profile_") for name in names)


class TestAttributionSums:
    def test_exact_sites_reconstruct_the_run_wall(self, trace):
        _, result = _fingerprint(trace, "calendar", ProfilerConfig(mode="exact"))
        profiler = result.profiler
        document = result.profile_report()
        site_sum = sum(site["wall_s"] for site in document["sites"])
        assert document["attributed_wall_s"] == pytest.approx(site_sum)
        # attributed + scheduler overhead == run wall, exactly by
        # construction when attributed <= run wall (the overhead is
        # clamped at zero otherwise — timer granularity noise).
        assert (
            document["attributed_wall_s"] + document["scheduler_overhead_s"]
            >= document["run_wall_s"] * (1.0 - 1e-9)
        )
        assert document["run_wall_s"] == pytest.approx(
            result.simulator.run_wall_time_s
        )
        # The callbacks can't have taken longer than the whole loop by
        # more than perf_counter jitter (~µs per event).
        jitter_budget = 2e-6 * profiler.events_seen
        assert document["attributed_wall_s"] <= (
            document["run_wall_s"] + jitter_budget
        )

    def test_exact_event_counts_are_exact(self, trace):
        _, result = _fingerprint(trace, "calendar", ProfilerConfig(mode="exact"))
        document = result.profile_report()
        assert document["events_attributed"] == document["events_total"]
        assert document["events_total"] == result.simulator.events_processed

    def test_sampling_estimates_land_near_truth(self, trace):
        _, result = _fingerprint(
            trace, "calendar", ProfilerConfig(mode="sampling", stride=8)
        )
        document = result.profile_report()
        truth = document["events_total"]
        estimate = document["events_attributed"]
        assert truth > 0
        # The stride estimator is unbiased; allow one stride of slack.
        assert abs(estimate - truth) <= 8


class TestProfileCli:
    def test_profile_command_emits_report_and_collapsed(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "profile.json"
        folded = tmp_path / "stacks.folded"
        code = main(
            [
                "profile", "Classroom",
                "--duration", "8",
                "--mode", "exact",
                "--out", str(out),
                "--collapsed", str(folded),
                "--top", "5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "hotspots (exact)" in captured
        assert "scheduler" in captured
        document = json.loads(out.read_text())
        assert document["schema"] == PROFILE_SCHEMA
        assert document["sites"], "profile saw no sites"
        lines = folded.read_text().splitlines()
        assert lines, "collapsed stacks are empty"
        for line in lines:
            frames, _, usec = line.rpartition(" ")
            assert len(frames.split(";")) == 3
            int(usec)  # integer microseconds
        # The collapsed totals agree with the JSON report's sites.
        collapsed_total = sum(int(l.rpartition(" ")[2]) for l in lines)
        json_total = sum(s["wall_s"] for s in document["sites"]) * 1e6
        assert collapsed_total == pytest.approx(json_total, abs=len(lines))

    def test_profile_command_sampling_mode(self, capsys):
        from repro.cli import main

        code = main(
            ["profile", "Classroom", "--duration", "6",
             "--mode", "sampling", "--stride", "8"]
        )
        assert code == 0
        assert "sampling, stride 8" in capsys.readouterr().out
