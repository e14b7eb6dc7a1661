"""Pull simulator-component state into a metrics registry.

Entities keep their cheap native counters (``ApCounters``,
``ClientCounters``, ``PowerCounters``, ``PortTableStats``, the
simulator's own tallies); these collectors mirror them into
:class:`~repro.obs.metrics.MetricsRegistry` series on demand. Calling a
collector twice refreshes the same series, so one registry can be
snapshotted repeatedly over a run's lifetime.

Naming follows Prometheus conventions: ``repro_<component>_<what>`` with
``_total`` for counters and ``_seconds`` for durations.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.metrics import MetricsRegistry, default_registry


def collect_simulator(sim, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Engine health: throughput, heap depth, wall time per sim second."""
    registry = registry if registry is not None else default_registry()
    registry.counter(
        "repro_sim_events_processed_total", "Events popped and executed"
    ).set_total(sim.events_processed)
    registry.counter(
        "repro_sim_events_cancelled_total", "Events cancelled before firing"
    ).set_total(sim.events_cancelled)
    registry.gauge(
        "repro_sim_pending_events", "Live (non-cancelled) scheduled events"
    ).set(sim.pending_events)
    # queue_depth is the canonical series; heap_depth is the legacy
    # alias kept so pre-calendar dashboards and diff baselines survive.
    # Both read Simulator.queue_depth.
    depth = getattr(sim, "queue_depth", None)
    if depth is None:
        depth = sim.heap_depth
    registry.gauge(
        "repro_sim_queue_depth",
        "Event-queue entries including cancelled tombstones",
    ).set(depth)
    registry.gauge(
        "repro_sim_heap_depth",
        "Deprecated alias for repro_sim_queue_depth",
    ).set(depth)
    registry.gauge("repro_sim_time_seconds", "Current simulation clock").set(sim.now)
    registry.counter(
        "repro_sim_probes_fired_total",
        "Observer-probe firings (telemetry flushes; never heap events)",
    ).set_total(getattr(sim, "probes_fired", 0))
    registry.counter(
        "repro_sim_run_wall_seconds_total", "Wall time spent inside run()"
    ).set_total(sim.run_wall_time_s)
    registry.gauge(
        "repro_sim_wall_seconds_per_sim_second",
        "Wall-clock cost of advancing the simulation one second",
    ).set(sim.run_wall_time_s / sim.now if sim.now > 0 else 0.0)
    return registry


def collect_profiler(
    profiler, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Attribution-profiler state: per-site wall time and event counts.

    Every family here measures the *host* clock, so these series are
    only ever pulled into live-scrape registries — never into the
    end-of-run collection that determinism fingerprints hash
    (:func:`collect_all` deliberately knows nothing about profilers).
    """
    registry = registry if registry is not None else default_registry()
    registry.counter(
        "repro_profile_events_total",
        "Events executed under the attribution profiler",
    ).set_total(profiler.events_seen)
    registry.counter(
        "repro_profile_run_wall_seconds_total",
        "Wall time of profiled run() windows",
    ).set_total(profiler.run_wall_s)
    registry.counter(
        "repro_profile_attributed_wall_seconds_total",
        "Wall time attributed to event callbacks (scaled in sampling mode)",
    ).set_total(profiler.attributed_wall_s)
    registry.counter(
        "repro_profile_scheduler_overhead_seconds_total",
        "Run wall time left to the engine's own pop/push/dispatch",
    ).set_total(profiler.scheduler_overhead_s)
    for site in profiler.site_rows():
        labels = {
            "site": f"{site['owner']}.{site['method']}",
            "kind": str(site["kind"]),
        }
        registry.counter(
            "repro_profile_site_wall_seconds_total",
            "Attributed wall seconds by callback site",
            labels=labels,
        ).set_total(float(site["wall_s"]))
        registry.counter(
            "repro_profile_site_events_total",
            "Attributed events by callback site",
            labels=labels,
        ).set_total(float(site["events"]))
    return registry


def collect_delivery(
    medium, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Delivery-lane internals: slot columns and accrual batching.

    Like :func:`collect_profiler`, these series describe the *machinery*
    (how often the deferred accrual settled, fan-out cache churn)
    rather than the protocol, so they are only ever pulled into
    live-scrape registries — never the end-of-run collection that
    determinism fingerprints hash.  Reads state without settling it, so
    it is safe from scrape threads.
    """
    registry = registry if registry is not None else default_registry()
    radios = medium.radio_array
    registry.gauge(
        "repro_delivery_slots", "Client radio slots currently bound"
    ).set(float(len(radios)))
    registry.gauge(
        "repro_delivery_listeners",
        "Slots with the radio up (listening or conservative receive-all)",
    ).set(float(radios.listeners))
    registry.gauge(
        "repro_delivery_subscribed_ports",
        "Distinct UDP ports with at least one subscribed slot",
    ).set(float(len(radios.port_masks)))
    registry.counter(
        "repro_delivery_broadcast_frames_total",
        "Broadcast frames credited through the O(1) accrual path",
    ).set_total(float(radios.frames_total))
    registry.counter(
        "repro_delivery_settles_total",
        "Per-slot deferred-accrual settlements",
    ).set_total(float(radios.settles))
    registry.counter(
        "repro_delivery_flushes_total",
        "Whole-array accrual flushes at sync boundaries",
    ).set_total(float(radios.flushes))
    registry.counter(
        "repro_delivery_fanout_rebuilds_total",
        "Broadcast fan-out cache recomputations",
    ).set_total(float(medium.fanout_rebuilds))
    return registry


def collect_medium(medium, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Channel accounting: airtime by frame kind, queueing, drops."""
    registry = registry if registry is not None else default_registry()
    registry.counter(
        "repro_medium_transmissions_total", "Frames delivered on the channel"
    ).set_total(medium.transmissions_completed)
    registry.counter(
        "repro_medium_busy_seconds_total", "Channel-occupancy seconds"
    ).set_total(medium.busy_time)
    registry.counter(
        "repro_medium_frames_dropped_total", "Frames lost to injected failures"
    ).set_total(medium.frames_dropped)
    registry.counter(
        "repro_medium_queue_wait_seconds_total",
        "Seconds frames waited behind a busy channel",
    ).set_total(medium.queue_wait_s)
    registry.counter(
        "repro_medium_frames_queued_total",
        "Frames that found the channel busy and deferred",
    ).set_total(medium.frames_queued)
    for kind, airtime in sorted(medium.airtime_by_kind.items()):
        registry.counter(
            "repro_medium_airtime_seconds_total",
            "Airtime by frame kind",
            labels={"kind": kind},
        ).set_total(airtime)
    for kind, count in sorted(medium.frames_by_kind.items()):
        registry.counter(
            "repro_medium_frames_total",
            "Transmissions by frame kind",
            labels={"kind": kind},
        ).set_total(count)
    for kind, count in sorted(medium.drops_by_kind.items()):
        registry.counter(
            "repro_medium_injected_drops_total",
            "Frames dropped by the fault injector, by frame kind",
            labels={"kind": kind},
        ).set_total(count)
    return registry


def collect_access_point(ap, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """AP activity: beaconing, buffering, Algorithm 1, the port table."""
    registry = registry if registry is not None else default_registry()
    labels = {"ap": str(ap.mac)}
    counters = ap.counters
    for field_name, help_text in (
        ("beacons_sent", "Beacons transmitted"),
        ("dtims_sent", "DTIM beacons transmitted"),
        ("broadcast_frames_sent", "Broadcast data frames transmitted"),
        ("broadcast_frames_buffered", "Broadcast frames buffered for a DTIM"),
        ("port_messages_received", "UDP Port Messages accepted"),
        ("acks_sent", "ACKs transmitted"),
        ("ps_polls_received", "PS-Polls received"),
        ("unicast_frames_sent", "Unicast data frames released"),
        ("association_requests_received", "Association requests handled"),
        ("probe_requests_answered", "Probe requests answered"),
        ("disassociations_received", "Disassociations processed"),
        ("btim_bits_set_total", "AID bits set across all BTIMs"),
        ("algorithm1_runs", "Algorithm 1 executions (one per DTIM)"),
    ):
        metric_name = (
            f"repro_ap_{field_name}"
            if field_name.endswith("_total")
            else f"repro_ap_{field_name}_total"
        )
        registry.counter(metric_name, help_text, labels=labels).set_total(
            getattr(counters, field_name)
        )
    registry.counter(
        "repro_ap_algorithm1_wall_seconds_total",
        "Wall time spent computing broadcast flags",
        labels=labels,
    ).set_total(counters.algorithm1_wall_s)
    registry.gauge(
        "repro_ap_associated_clients", "Currently associated stations", labels=labels
    ).set(len(ap.associations))
    registry.gauge(
        "repro_ap_broadcast_buffer_depth",
        "Broadcast frames currently buffered",
        labels=labels,
    ).set(len(ap.broadcast_buffer))
    registry.counter(
        "repro_ap_broadcast_buffer_dropped_total",
        "Broadcast frames dropped at a full buffer",
        labels=labels,
    ).set_total(ap.broadcast_buffer.dropped)
    table = ap.port_table
    registry.gauge(
        "repro_ap_port_table_entries", "(port, AID) pairs stored", labels=labels
    ).set(len(table))
    registry.gauge(
        "repro_ap_port_table_distinct_ports", "Distinct ports stored", labels=labels
    ).set(table.distinct_ports)
    registry.gauge(
        "repro_ap_port_table_clients", "Clients with a stored report", labels=labels
    ).set(table.client_count)
    registry.counter(
        "repro_ap_port_entries_expired_total",
        "Port-table clients aged out by the refresh-timer TTL",
        labels=labels,
    ).set_total(counters.port_entries_expired)
    for op in ("inserts", "deletes", "lookups", "refreshes", "expirations"):
        registry.counter(
            "repro_ap_port_table_ops_total",
            "Port-table operations by kind",
            labels={"ap": str(ap.mac), "op": op},
        ).set_total(getattr(table.stats, op))
    return registry


def collect_client(client, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Station activity: wakeups, suspend churn, wakelock time, frames.

    Tolerates components in any lifecycle state: a client that crashed
    mid-run has ``aid = None``, so the label falls back to the last AID
    it ever held — the same series keeps accumulating across a
    crash/rejoin instead of forking a second one (or worse, the
    pre-crash series going silently stale).
    """
    registry = registry if registry is not None else default_registry()
    labels = {"client": str(client.mac)}
    aid = client.aid if client.aid is not None else getattr(client, "last_aid", None)
    if aid is not None:
        labels["aid"] = str(aid)
    counters = client.counters
    for field_name, help_text in (
        ("beacons_received", "Beacons decoded"),
        ("dtims_received", "DTIM beacons decoded"),
        ("broadcast_frames_received", "Broadcast frames received awake"),
        ("broadcast_frames_ignored", "Broadcast frames slept through"),
        ("useful_frames_received", "Received frames an app wanted"),
        ("useless_frames_received", "Received frames nobody wanted"),
        ("frames_delivered_to_apps", "Frames handed to applications"),
        ("port_messages_sent", "UDP Port Messages sent"),
        ("port_message_retransmissions", "Port Message retries"),
        ("port_message_bytes_sent", "Port Message bytes on air"),
        ("acks_received", "ACKs received"),
        ("ps_polls_sent", "PS-Polls sent"),
        ("unicast_frames_received", "Unicast frames received"),
        ("useful_frames_missed", "Useful delivered frames slept through"),
        ("beacon_misses_detected", "Beacon watchdog firings"),
        ("conservative_fallbacks", "Falls into conservative receive-all"),
        ("port_refreshes", "Keep-alive port reports sent"),
        ("crashes", "Injected crashes"),
        ("rejoins", "Rejoins after an injected crash"),
    ):
        registry.counter(
            f"repro_client_{field_name}_total", help_text, labels=labels
        ).set_total(getattr(counters, field_name))
    if client.power is not None:
        power = client.power.counters
        registry.counter(
            "repro_client_wakeups_total",
            "Resume operations triggered (suspended arrivals)",
            labels=labels,
        ).set_total(power.resumes)
        registry.counter(
            "repro_client_suspends_completed_total",
            "Suspend operations that finished",
            labels=labels,
        ).set_total(power.suspends_completed)
        registry.counter(
            "repro_client_suspends_aborted_total",
            "Suspend operations aborted by a wake",
            labels=labels,
        ).set_total(power.suspends_aborted)
        registry.counter(
            "repro_client_aborted_suspend_seconds_total",
            "Seconds spent in suspends that were aborted",
            labels=labels,
        ).set_total(power.aborted_suspend_time)
        registry.counter(
            "repro_client_forced_suspends_total",
            "Abrupt drops to SUSPENDED (crash injection)",
            labels=labels,
        ).set_total(power.forced_suspends)
    if client.wakelock is not None:
        registry.counter(
            "repro_client_wakelock_held_seconds_total",
            "Total wakelock-held seconds",
            labels=labels,
        ).set_total(client.wakelock.total_held_time())
        registry.counter(
            "repro_client_wakelock_acquisitions_total",
            "Wakelock acquisitions (renewals excluded)",
            labels=labels,
        ).set_total(client.wakelock.acquisitions)
    return registry


def collect_all(
    registry: Optional[MetricsRegistry] = None,
    simulator=None,
    medium=None,
    access_points: Iterable = (),
    clients: Iterable = (),
) -> MetricsRegistry:
    """One-call collection over every component of a DES run."""
    registry = registry if registry is not None else default_registry()
    if simulator is not None:
        collect_simulator(simulator, registry)
    if medium is not None:
        collect_medium(medium, registry)
    for ap in access_points:
        collect_access_point(ap, registry)
    for client in clients:
        collect_client(client, registry)
    return registry
