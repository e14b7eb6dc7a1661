"""Bit-identity of the vectorized delivery lane against the reference.

The struct-of-arrays fast lane (``repro.sim.radio_array`` +
``Medium._deliver``) is the only production delivery lane, so this
suite is the contract that lets it be: for every scenario, seed, event
queue, fault plan, and observer combination we can afford to run, it
and the ``ReferenceMedium`` oracle (``tests/sim/oracles.py``, every
frame to every entity) must agree on the deterministic fingerprint,
every per-client counter, the Prometheus export, the windowed
timeseries, and the full JSONL trace-event sequence. Energy
accrual is *deferred* in the fast lane (settled at probe boundaries
via the engine's sync hooks), which is exactly the kind of change that
silently skews counters if a settle point is missed — hence the
property-based cross product rather than a single golden run.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.des_run import (
    DesRunConfig,
    ProfilerConfig,
    TelemetryConfig,
    run_trace_des,
)
from repro.faults import FaultPlan
from repro.obs import format_for_path, write_metrics
from repro.obs.diff import diff_files
from repro.obs.tracing import JsonlTracer
from repro.sim.medium import Medium
from repro.traces import generate_trace
from tests.sim.oracles import ReferenceMedium, oracle_lanes

_PLAN = FaultPlan.parse("loss=0.08,beacon=0.01,seed=11,crash=0@2:5")

#: Wall-clock fields in trace records measure the host, not the
#: protocol; everything else in a record is simulation-determined.
_WALL_FIELDS = ("wall_time", "wall_duration_s")


def _run(
    lane,
    scenario="Starbucks",
    seed=7,
    heap=False,
    fault_plan=None,
    telemetry=False,
    profiler=False,
    tracer=None,
):
    trace = generate_trace(scenario, seed=seed)
    config = DesRunConfig(
        client_count=3,
        duration_s=6.0,
        fault_plan=fault_plan,
        check_invariants=True,
        telemetry=TelemetryConfig(window="dtim") if telemetry else None,
        profiler=ProfilerConfig() if profiler else None,
    )
    with oracle_lanes(heap=heap, reference=lane == "reference"):
        if tracer is None:
            result = run_trace_des(trace, config)
        else:
            result = run_trace_des(trace, config, tracer=tracer)
    result.close()
    return result


def _assert_identical(ref, vec):
    """Full-depth agreement: hash, then the pieces behind the hash."""
    assert type(ref.medium) is ReferenceMedium
    assert type(vec.medium) is Medium
    assert ref.deterministic_fingerprint() == vec.deterministic_fingerprint()
    assert ref.simulator.events_processed == vec.simulator.events_processed
    assert ref.medium.frames_dropped == vec.medium.frames_dropped
    for r_client, v_client in zip(ref.clients, vec.clients):
        assert r_client.counters == v_client.counters


def _trace_sequence(path):
    """Parsed JSONL trace records with host-clock fields stripped."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for field in _WALL_FIELDS:
                record.pop(field, None)
            records.append(record)
    return records


class TestDeliveryEquivalenceProperty:
    """Hypothesis cross product over scenario x seed x event queue."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=st.sampled_from(["Starbucks", "Classroom", "WRL"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        heap=st.booleans(),
    )
    def test_fingerprints_identical(self, scenario, seed, heap):
        ref = _run("reference", scenario, seed, heap)
        vec = _run("vectorized", scenario, seed, heap)
        _assert_identical(ref, vec)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        loss=st.sampled_from([0.02, 0.08, 0.15]),
        fault_seed=st.integers(min_value=0, max_value=999),
    )
    def test_identical_under_random_fault_plans(self, seed, loss, fault_seed):
        """Loss + beacon loss + crash/rejoin perturb both lanes alike.

        Fault injection exercises the paths deferred accrual gets wrong
        first: drops (the dropped frame must still accrue for no one),
        crash mid-window (detach must settle exactly once), rejoin
        (fresh slot must re-baseline against current epoch totals).
        """
        plan = FaultPlan.parse(
            f"loss={loss},beacon=0.01,seed={fault_seed},crash=0@2:4"
        )
        ref = _run("reference", seed=seed, fault_plan=plan)
        vec = _run("vectorized", seed=seed, fault_plan=plan)
        _assert_identical(ref, vec)


class TestDeliveryEquivalenceObservers:
    """Attached observers must neither diverge nor perturb either lane."""

    def test_prom_and_timeseries_identical(self, tmp_path):
        outputs = {}
        for backend in ("reference", "vectorized"):
            result = _run(backend, fault_plan=_PLAN, telemetry=True)
            prom = tmp_path / f"{backend}.prom"
            write_metrics(
                result.collect_metrics(), str(prom), format_for_path(str(prom))
            )
            series = tmp_path / f"{backend}_timeseries.json"
            assert result.timeseries is not None
            result.timeseries.write(str(series))
            outputs[backend] = (prom, series)

        diff = diff_files(
            str(outputs["reference"][0]),
            str(outputs["vectorized"][0]),
            ignore=("wall",),
        )
        assert diff.ok(), [c for c in diff.changed]
        assert (
            outputs["reference"][1].read_text()
            == outputs["vectorized"][1].read_text()
        )

    def test_trace_event_sequences_identical(self, tmp_path):
        """Same events, same order, same fields — wall clock aside.

        The JSONL tracer sees every wakeup, suspend, and recovery event
        as it happens, so sequence equality is a much stronger claim
        than end-of-run counter equality: the two lanes walk the same
        path, not just reach the same destination.
        """
        sequences = {}
        for backend in ("reference", "vectorized"):
            log = tmp_path / f"{backend}.jsonl"
            tracer = JsonlTracer(str(log))
            try:
                _run(backend, fault_plan=_PLAN, tracer=tracer)
            finally:
                tracer.close()
            sequences[backend] = _trace_sequence(log)
        assert sequences["reference"] == sequences["vectorized"]
        assert sequences["reference"], "tracer captured no events"

    def test_profiler_does_not_perturb_either_backend(self):
        for backend in ("reference", "vectorized"):
            profiled = _run(backend, fault_plan=_PLAN, profiler=True)
            plain = _run(backend, fault_plan=_PLAN, profiler=False)
            assert (
                profiled.deterministic_fingerprint()
                == plain.deterministic_fingerprint()
            )
            report = profiled.profile_report()
            assert report is not None
            sites = {
                f"{site['owner']}.{site['method']}"
                for site in report["sites"]
            }
            owner = "Medium" if backend == "vectorized" else "ReferenceMedium"
            assert f"{owner}._drain_deliveries" in sites

    def test_telemetry_does_not_perturb_either_backend(self):
        for backend in ("reference", "vectorized"):
            with_t = _run(backend, fault_plan=_PLAN, telemetry=True)
            without = _run(backend, fault_plan=_PLAN, telemetry=False)
            assert (
                with_t.deterministic_fingerprint()
                == without.deterministic_fingerprint()
            )


class TestDeliveryBackendConfig:
    def test_default_is_vectorized(self):
        result = _run("vectorized")
        assert type(result.medium) is Medium
        assert len(result.medium.radio_array) == 3

    def test_reference_lane_has_no_radio_array(self):
        result = _run("reference")
        assert result.medium.radio_array is None


class TestSweepLaneGate:
    """The cheapest end-to-end differential gate: a whole sharded sweep.

    Forked workers inherit the oracle patch, so the same ``run_sweep``
    call runs every cell on the reference lane.  The merged fingerprint
    covers every cell under 5% loss with loss recovery and invariants
    armed and the sampling profiler attached.
    """

    def test_merged_fingerprint_matches_reference_lane(self):
        from repro.experiments.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=("Starbucks", "Classroom"),
            seeds=tuple(range(5)),
            config=DesRunConfig(
                client_count=2,
                duration_s=5.0,
                check_invariants=True,
                profiler=ProfilerConfig(mode="sampling"),
            ),
            fault_spec="loss=0.05",
        )
        vectorized = run_sweep(spec, workers=2)
        with oracle_lanes(reference=True):
            reference = run_sweep(spec, workers=2)
        for document in (vectorized, reference):
            assert document["totals"]["failed"] == 0, document["failures"]
            assert document["totals"]["cells"] == 10
            assert document["profile"]["runs_merged"] == 10
        owners = {site["owner"] for site in reference["profile"]["sites"]}
        assert "ReferenceMedium" in owners and "Medium" not in owners
        assert vectorized["merged_fingerprint"] == reference["merged_fingerprint"]
        assert vectorized["runs"] == reference["runs"]
