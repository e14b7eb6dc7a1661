"""One fresh-interpreter DES run, timed at each public layer boundary.

Usage: ``python3 perfbench/des_child.py '<json spec>'``. The spec names
one or more cells (scenario, trace seed, clients, simulated seconds)
and whether to attach the exact-mode ``AttributionProfiler`` (the
traced run) and to meter energy. For each cell the child calls, in
order and each under its own stopwatch:

``traces.generate_trace`` -> ``prepare_trace_des`` ->
``PreparedDesRun.execute`` -> ``DesRunResult.meter`` ->
``DesRunResult.deterministic_fingerprint`` -> post-run checks.

Each stage runs from the previous mark to its own, so the stages tile
the child's life from the first line to the last mark; the parent adds
interpreter start and teardown as ``unaccounted_s`` and the parts sum
to the process wall exactly. Marks are CLOCK_MONOTONIC
(``time.perf_counter``), so they compare with the parent's clock.

Prints one JSON document on stdout.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

STAGES = ("traces", "prepare", "run", "meter", "fingerprint", "check")


def layer_of(owner: str) -> str:
    """The repro module family that defines a profiler site's ``owner``.

    The profiler names a bound method's owner by its class, and a plain
    function's or closure's owner by its module's basename; both are
    resolved. Owners found in no repro module are ``other``.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        candidate = getattr(module, owner, None)
        if (
            isinstance(candidate, type) and candidate.__module__ == name
        ) or name.rsplit(".", 1)[-1] == owner:
            if name == "repro.sim.medium":
                return "medium"
            return name.split(".")[1]
    return "other"


def cell_counts(result, trace) -> dict:
    sim, medium, ap = result.simulator, result.medium, result.access_point
    counters = [client.counters for client in result.clients]
    return {
        "frames": len(trace.records),
        "events": sim.events_processed,
        "cancelled": sim.events_cancelled,
        "pending_at_exit": sim.queue_depth,
        "frames_queued": medium.frames_queued,
        "busy_s": medium.busy_time,
        "queue_wait_s": medium.queue_wait_s,
        "duration_s": result.duration_s,
        "port_msgs_sent": sum(c.port_messages_sent for c in counters),
        "port_retx": sum(c.port_message_retransmissions for c in counters),
        "acks_received": sum(c.acks_received for c in counters),
        "useful_rx": sum(c.useful_frames_received for c in counters),
        "broadcast_rx": sum(c.broadcast_frames_received for c in counters),
        "algorithm1_runs": ap.counters.algorithm1_runs,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    stages = dict.fromkeys(STAGES, 0.0)
    import repro  # noqa: F401
    from repro.experiments.des_run import DesRunConfig, prepare_trace_des
    from repro.obs.profiler import ProfilerConfig
    from repro.sim.invariants import InvariantSuite
    from repro.traces import generate_trace, scenario_by_name

    last = imported = time.perf_counter()
    first_event_at = None

    def mark(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stages[stage] += now - last
        last = now

    profiler = ProfilerConfig(mode="exact") if spec["traced"] else None
    cells = []
    self_s = {}
    algorithm1_s = 0.0
    for cell in spec["cells"]:
        trace = generate_trace(
            scenario_by_name(cell["scenario"]), seed=cell["trace_seed"]
        )
        mark("traces")
        prepared = prepare_trace_des(
            trace,
            DesRunConfig(
                client_count=cell["clients"],
                duration_s=cell["duration_s"],
                profiler=profiler,
            ),
        )
        mark("prepare")
        if first_event_at is None:
            first_event_at = last
        result = prepared.execute()
        mark("run")
        energy_j = 0.0
        if spec["meter"]:
            energy_j = sum(m.total_with_baseline_j for m in result.meter())
            mark("meter")
        fingerprint = result.deterministic_fingerprint()
        mark("fingerprint")
        counts = cell_counts(result, trace)
        algorithm1_s += result.access_point.counters.algorithm1_wall_s
        violations = [
            str(v)
            for v in InvariantSuite(
                result.simulator, result.medium, result.access_point, result.clients
            ).violations()
        ]
        if spec["meter"] and not energy_j > 0.0:
            violations.append(f"metered energy is not positive: {energy_j}")
        report = result.profile_report()
        if report is not None:
            self_s["engine.scheduler_s"] = (
                self_s.get("engine.scheduler_s", 0.0) + report["scheduler_overhead_s"]
            )
            for site in report["sites"]:
                layer = layer_of(site["owner"])
                key = "medium.drain_s" if layer == "medium" else f"{layer}.callbacks_s"
                self_s[key] = self_s.get(key, 0.0) + site["wall_s"]
        cells.append(
            {
                "scenario": cell["scenario"],
                "seed": cell["trace_seed"],
                "fingerprint": fingerprint,
                "counts": counts,
                "violations": violations,
                # Shaped like a run_sweep cell entry, for merge_results.
                "sweep_entry": {
                    "scenario": cell["scenario"],
                    "seed": cell["trace_seed"],
                    "fingerprint": fingerprint,
                    "events": result.simulator.events_processed,
                    "duration_s": result.duration_s,
                    "transmissions": result.medium.transmissions_completed,
                    "frames_dropped": result.medium.frames_dropped,
                    "queue_kind": result.simulator.queue_kind,
                },
            }
        )
        mark("check")
    document = {
        "marks": {
            "start": START,
            "import": imported,
            "first_event": first_event_at,
            "end": last,
        },
        "stages": stages,
        "cells": cells,
        "self_s": self_s,
        "algorithm1_s": algorithm1_s,
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
