"""Drive the full DES over a synthesized scenario trace.

The figure reproductions evaluate scenarios through the Section IV
closed form; this harness replays the same traces through the
event-level simulator — AP, medium, and a population of stations —
so protocol-level behaviour (DTIM cycles, BTIM flags, wakeups,
retransmissions) can be observed, traced, and metered directly.

It is the engine behind ``repro sim run`` and the observability
integration tests: attach a :class:`~repro.obs.tracing.JsonlTracer`
and every DTIM cycle, Algorithm-1 run, BTIM element, and client wakeup
lands in the trace log; call :meth:`DesRunResult.collect_metrics` and
the whole run lands in a metrics registry ready for export.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.meter import ClientEnergyMeter, MeteredEnergy
from repro.energy.profile import DeviceEnergyProfile, NEXUS_ONE
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan
from repro.net.packet import zero_padded_broadcast_packet
from repro.obs.collectors import collect_all, collect_delivery, collect_profiler
from repro.obs.ledger import FrameLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import AttributionProfiler, ProfilerConfig
from repro.obs.timeseries import TimeseriesRecorder, dtim_window_s
from repro.obs.tracing import NULL_TRACER
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantSuite
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.traces.trace import BroadcastTrace
from repro.traces.usefulness import ports_for_target_fraction

if TYPE_CHECKING:
    from repro.obs.server import MetricsServer

#: Metric families excluded from determinism fingerprints: wall-clock
#: families measure the host, not the protocol, and the probe counter
#: measures the *observer* (a run with telemetry attached must
#: fingerprint identically to the same run without it).
_FINGERPRINT_EXCLUDED_METRICS = frozenset(
    {
        "repro_sim_run_wall_seconds_total",
        "repro_sim_wall_seconds_per_sim_second",
        "repro_ap_algorithm1_wall_seconds_total",
        "repro_sim_probes_fired_total",
    }
)

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SOURCE = MacAddress.from_string("02:bb:00:00:00:99")

#: On-air bytes a trace record spends on 802.11 + LLC + IP + UDP
#: framing; the remainder becomes UDP payload so the simulated frame's
#: length approximates the recorded one.
_FRAMING_OVERHEAD_BYTES = 78


@dataclass(frozen=True)
class TelemetryConfig:
    """Streaming-observability knobs for one DES run.

    ``window`` is either the string ``"dtim"`` (one aggregation window
    per DTIM interval — the granularity the paper's Section IV energy
    model reasons at) or a fixed width in simulated seconds.
    ``serve_port`` starts a live :class:`~repro.obs.server.MetricsServer`
    next to the run (0 picks an ephemeral port).
    """

    window: Union[str, float] = "dtim"
    capacity: int = 512
    ewma_alpha: float = 0.3
    serve_port: Optional[int] = None
    serve_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if isinstance(self.window, str):
            if self.window != "dtim":
                raise ConfigurationError(
                    f"window must be 'dtim' or seconds: {self.window!r}"
                )
        elif self.window <= 0:
            raise ConfigurationError(
                f"window seconds must be positive: {self.window}"
            )
        if self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1: {self.capacity}")
        if self.serve_port is not None and not 0 <= self.serve_port <= 65535:
            raise ConfigurationError(f"bad serve port: {self.serve_port}")

    def window_seconds(self, beacon_interval_s: float, dtim_period: int) -> float:
        if self.window == "dtim":
            return dtim_window_s(beacon_interval_s, dtim_period)
        return float(self.window)


@dataclass(frozen=True)
class DesRunConfig:
    """Knobs for one DES replay of a scenario trace."""

    policy: ClientPolicy = ClientPolicy.HIDE
    client_count: int = 3
    useful_fraction: float = 0.10
    duration_s: Optional[float] = 60.0
    profile: DeviceEnergyProfile = NEXUS_ONE
    dtim_period: int = 1
    #: When False the AP is a plain 802.11 AP (receive-all world).
    hide_ap: bool = True
    #: Seeded failure schedule; ``None`` (or a null plan) runs the exact
    #: legacy lossless medium — byte-identical to no plan at all.
    fault_plan: Optional[FaultPlan] = None
    #: Attach :class:`~repro.sim.invariants.InvariantSuite` and check
    #: periodically plus at end of run (raising on violation).
    check_invariants: bool = False
    #: Whether clients run the loss-recovery protocol when a (non-null)
    #: fault plan is active. Disable to demonstrate the invariants
    #: catching the unprotected protocol.
    recovery: bool = True
    #: AP-side refresh-timer TTL for port-table entries.
    port_entry_ttl_s: Optional[float] = None
    #: Client keep-alive period for re-sending port reports.
    port_refresh_interval_s: Optional[float] = None
    #: Streaming telemetry: windowed timeseries plus (optionally) a live
    #: scrape endpoint. ``None`` disables both; the run's determinism
    #: fingerprint is identical either way.
    telemetry: Optional[TelemetryConfig] = None
    #: Hot-path attribution profiling (``repro profile``). Like the
    #: telemetry stack, attaching it leaves the run's determinism
    #: fingerprint bit-identical — the profiler observes the host
    #: clock, never the simulation.
    profiler: Optional[ProfilerConfig] = None
    #: Attach the frame-lifecycle ledger (``--ledger-out``): per-frame
    #: buffering/delivery delay and per-client energy-attribution
    #: histograms. Reads only simulation time and settled state, so —
    #: like telemetry and the profiler — the run's determinism
    #: fingerprint is identical with it on or off.
    ledger: bool = False

    def __post_init__(self) -> None:
        if self.client_count < 1:
            raise ConfigurationError("need at least one client")
        if not 0.0 <= self.useful_fraction <= 1.0:
            raise ConfigurationError(
                f"useful fraction must be in [0, 1]: {self.useful_fraction}"
            )
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if (
            self.port_entry_ttl_s is not None
            and self.port_refresh_interval_s is not None
            and self.port_refresh_interval_s >= self.port_entry_ttl_s
        ):
            raise ConfigurationError(
                "port refresh interval must stay below the AP's entry TTL, "
                "or live clients age out between keep-alives"
            )


@dataclass
class DesRunResult:
    """Everything one DES replay produced, ready for metering/export."""

    trace_name: str
    duration_s: float
    useful_ports: FrozenSet[int]
    simulator: Simulator
    medium: Medium
    access_point: AccessPoint
    clients: List[Client]
    config: DesRunConfig
    #: Live when the run had a non-null fault plan.
    fault_injector: Optional[FaultInjector] = None
    #: Live when the run checked invariants.
    invariants: Optional[InvariantSuite] = None
    #: Live when telemetry was configured: the windowed recorder, the
    #: registry it sampled into, and (if serving) the scrape endpoint.
    timeseries: Optional[TimeseriesRecorder] = None
    live_registry: Optional[MetricsRegistry] = None
    metrics_server: Optional[MetricsServer] = None
    #: Live when the run profiled its hot path.
    profiler: Optional[AttributionProfiler] = None
    #: Live when the run carried the frame-lifecycle ledger (finalized:
    #: per-client energy attribution is already accrued).
    ledger: Optional[FrameLedger] = None

    def close(self) -> None:
        """Stop the metrics server, if one is still running."""
        if self.metrics_server is not None:
            self.metrics_server.stop()

    def meter(self) -> List[MeteredEnergy]:
        """Per-client energy from what each client actually did."""
        return [
            ClientEnergyMeter(client, self.config.profile).measure(self.duration_s)
            for client in self.clients
        ]

    def collect_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Pull every component of this run into a registry."""
        registry = registry if registry is not None else MetricsRegistry()
        return collect_all(
            registry,
            simulator=self.simulator,
            medium=self.medium,
            access_points=[self.access_point],
            clients=self.clients,
        )

    def deterministic_fingerprint(self) -> str:
        """SHA-256 over everything the simulation determined.

        Covers every collected metric except the wall-clock families
        (those measure the host, not the protocol), serialized as
        canonical JSON. Two runs with the same seed and fault plan must
        produce the same fingerprint; the determinism regression test
        pins exactly that.
        """
        snapshot = [
            entry
            for entry in self.collect_metrics(MetricsRegistry()).snapshot()
            if entry["name"] not in _FINGERPRINT_EXCLUDED_METRICS
        ]
        payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def profile_report(self) -> Optional[Dict[str, object]]:
        """The run's ``repro-profile/v1`` document (None if unprofiled)."""
        if self.profiler is None:
            return None
        return self.profiler.report()

    def ledger_document(self) -> Optional[Dict[str, object]]:
        """The run's ``repro-ledger/v1`` document (None if detached)."""
        if self.ledger is None:
            return None
        return self.ledger.to_document()


class PreparedDesRun:
    """A fully wired DES run that has not executed yet.

    Splitting preparation from execution lets callers observe the run
    *while it happens*: the live metrics registry, timeseries recorder,
    and scrape endpoint (already serving, if configured) all exist
    before :meth:`execute` starts the clock. ``repro sim run
    --serve-metrics`` prints the endpoint URL in that gap, so a scraper
    can attach from simulated second zero.
    """

    def __init__(
        self,
        trace: BroadcastTrace,
        config: DesRunConfig,
        duration: float,
        useful_ports: FrozenSet[int],
        simulator: Simulator,
        medium: Medium,
        access_point: AccessPoint,
        clients: List[Client],
        fault_injector: Optional[FaultInjector],
        invariants: Optional[InvariantSuite],
        ledger: Optional[FrameLedger] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.duration = duration
        self.useful_ports = useful_ports
        self.simulator = simulator
        self.medium = medium
        self.access_point = access_point
        self.clients = clients
        self.fault_injector = fault_injector
        self.invariants = invariants
        self.ledger = ledger
        self.live_registry: Optional[MetricsRegistry] = None
        self.recorder: Optional[TimeseriesRecorder] = None
        self.metrics_server: Optional[MetricsServer] = None
        self.profiler: Optional[AttributionProfiler] = None
        self._collect_lock = threading.Lock()
        self._executed = False
        if config.profiler is not None:
            self.profiler = AttributionProfiler(config.profiler)
            simulator.attach_profiler(self.profiler)
        if config.telemetry is not None:
            self._wire_telemetry(config.telemetry)

    def _wire_telemetry(self, telemetry: TelemetryConfig) -> None:
        self.live_registry = MetricsRegistry()
        window_s = telemetry.window_seconds(
            self.access_point.config.beacon_interval_s,
            self.access_point.config.dtim_period,
        )
        self.recorder = TimeseriesRecorder(
            self.live_registry,
            window_s,
            capacity=telemetry.capacity,
            ewma_alpha=telemetry.ewma_alpha,
            values_fn=self.sample_live_values,
        )
        self.recorder.attach(self.simulator)
        if telemetry.serve_port is not None:
            # Imported here: http.server is only worth loading when a
            # run actually serves its metrics.
            from repro.obs.server import MetricsServer

            profile_fn = None
            if self.profiler is not None:
                profile_fn = self.profiler.report
            self.metrics_server = MetricsServer(
                self.live_registry,
                collect_fn=self.collect_live,
                recorder=self.recorder,
                health_fn=lambda: {
                    "sim_time": self.simulator.now,
                    "events_processed": self.simulator.events_processed,
                    "trace": self.trace.name,
                },
                profile_fn=profile_fn,
                host=telemetry.serve_host,
                port=telemetry.serve_port,
            )
            self.metrics_server.start()

    def sample_live_values(self) -> "Dict[str, float]":
        """The per-window energy-timeline series, read straight off
        the components.

        This is the timeseries recorder's hot path: it fires once per
        DTIM, so its cost must stay a small fraction of the simulator's
        own per-window work (the < 10% contract ``repro bench``
        enforces). Full registry collection scales with the number of
        series — hundreds at 25 clients — so instead this reads a
        fixed-size curated set: the counters Section IV's energy
        timeline is built from, with client counters summed fleet-wide
        (the per-client split stays available from ``/metrics`` scrapes
        and the end-of-run snapshot, which are off the hot path).
        """
        sim = self.simulator
        medium = self.medium
        ap = self.access_point
        ap_counters = ap.counters
        values = {
            "repro_sim_events_processed_total": float(sim.events_processed),
            "repro_sim_time_seconds": sim.now,
            "repro_medium_transmissions_total": float(
                medium.transmissions_completed
            ),
            "repro_medium_busy_seconds_total": medium.busy_time,
            "repro_medium_frames_dropped_total": float(medium.frames_dropped),
            "repro_medium_frames_queued_total": float(medium.frames_queued),
            "repro_ap_beacons_sent_total": float(ap_counters.beacons_sent),
            "repro_ap_dtims_sent_total": float(ap_counters.dtims_sent),
            "repro_ap_broadcast_frames_sent_total": float(
                ap_counters.broadcast_frames_sent
            ),
            "repro_ap_broadcast_frames_buffered_total": float(
                ap_counters.broadcast_frames_buffered
            ),
            "repro_ap_btim_bits_set_total": float(
                ap_counters.btim_bits_set_total
            ),
            "repro_ap_algorithm1_runs_total": float(ap_counters.algorithm1_runs),
            "repro_ap_broadcast_buffer_depth": float(len(ap.broadcast_buffer)),
            "repro_ap_associated_clients": float(len(ap.associations)),
        }
        received = ignored = useful = useless = delivered = missed = 0
        ps_polls = wakeups = suspends = 0
        wakelock_s = 0.0
        for client in self.clients:
            counters = client.counters
            received += counters.broadcast_frames_received
            ignored += counters.broadcast_frames_ignored
            useful += counters.useful_frames_received
            useless += counters.useless_frames_received
            delivered += counters.frames_delivered_to_apps
            missed += counters.useful_frames_missed
            ps_polls += counters.ps_polls_sent
            if client.power is not None:
                wakeups += client.power.counters.resumes
                suspends += client.power.counters.suspends_completed
            if client.wakelock is not None:
                wakelock_s += client.wakelock.total_held_time()
        values.update(
            repro_client_broadcast_frames_received_total=float(received),
            repro_client_broadcast_frames_ignored_total=float(ignored),
            repro_client_useful_frames_received_total=float(useful),
            repro_client_useless_frames_received_total=float(useless),
            repro_client_frames_delivered_to_apps_total=float(delivered),
            repro_client_useful_frames_missed_total=float(missed),
            repro_client_ps_polls_sent_total=float(ps_polls),
            repro_client_wakeups_total=float(wakeups),
            repro_client_suspends_completed_total=float(suspends),
            repro_client_wakelock_held_seconds_total=wakelock_s,
        )
        return values

    def collect_live(self) -> MetricsRegistry:
        """Refresh the live registry from every component (read-only).

        Called from the recorder's probe (main thread) and from scrape
        handlers (server threads); the lock keeps concurrent refreshes
        from interleaving. Components are only read, never mutated, so
        this cannot perturb the simulation.
        """
        registry = self.live_registry
        if registry is None:
            registry = self.live_registry = MetricsRegistry()
        with self._collect_lock:
            collect_all(
                registry,
                simulator=self.simulator,
                medium=self.medium,
                access_points=[self.access_point],
                clients=self.clients,
            )
            if self.profiler is not None:
                # Live scrapes only: end-of-run collection (and thus
                # determinism fingerprints) never includes these.
                collect_profiler(self.profiler, registry)
            # Live scrapes only, for the same reason. Reads the slot
            # columns without settling them (scrape threads must not
            # mutate accrual state), so — like ``_events_processed`` —
            # a live value is at most one probe window stale.
            collect_delivery(self.medium, registry)
            return registry

    def close(self) -> None:
        if self.metrics_server is not None:
            self.metrics_server.stop()

    def execute(self) -> DesRunResult:
        """Run the simulation to completion and package the result.

        The metrics server (if any) is left running with final values
        so late scrapes still work; stop it via ``result.close()``.
        """
        if self._executed:
            raise ConfigurationError("this prepared run has already executed")
        self._executed = True
        self.simulator.run(until=self.duration)
        if self.recorder is not None:
            # Close the trailing partial window so the dump covers the
            # whole run even when duration % window != 0.
            self.recorder.close_partial(self.duration)
        if self.invariants is not None:
            self.invariants.check_final()
        if self.ledger is not None:
            # After run(): the final sync hook has flushed the deferred
            # RadioArray accrual, so the ledger meters settled counters.
            self.ledger.finalize(
                self.clients, self.config.profile, self.duration
            )
        return DesRunResult(
            trace_name=self.trace.name,
            duration_s=self.duration,
            useful_ports=self.useful_ports,
            simulator=self.simulator,
            medium=self.medium,
            access_point=self.access_point,
            clients=self.clients,
            config=self.config,
            fault_injector=self.fault_injector,
            invariants=self.invariants,
            timeseries=self.recorder,
            live_registry=self.live_registry,
            metrics_server=self.metrics_server,
            profiler=self.profiler,
            ledger=self.ledger,
        )


def prepare_trace_des(
    trace: BroadcastTrace,
    config: Optional[DesRunConfig] = None,
    tracer=NULL_TRACER,
) -> PreparedDesRun:
    """Wire up AP + stations + telemetry for ``trace`` without running.

    Usefulness is protocol-realistic: a port subset covering
    ``useful_fraction`` of the trace's frames is computed via
    :func:`ports_for_target_fraction` and opened on every client, so a
    frame is useful iff its destination port is open — exactly the
    signal HIDE's port table works from.
    """
    config = config or DesRunConfig()
    duration = config.duration_s if config.duration_s is not None else trace.duration_s
    duration = min(duration, trace.duration_s)

    # A null plan is indistinguishable from no plan: no injector is
    # attached and no recovery machinery is armed, so zero-loss runs
    # reproduce the legacy numbers exactly.
    active_plan = (
        config.fault_plan
        if config.fault_plan is not None and not config.fault_plan.is_null
        else None
    )
    injector = FaultInjector(active_plan) if active_plan is not None else None

    simulator = Simulator()
    medium = Medium(simulator, fault_injector=injector)
    ap = AccessPoint(
        AP_MAC,
        medium,
        ApConfig(
            dtim_period=config.dtim_period,
            hide_enabled=config.hide_ap,
            port_entry_ttl_s=config.port_entry_ttl_s,
        ),
    )
    ap.tracer = tracer
    medium.attach(ap)

    ledger: Optional[FrameLedger] = None
    if config.ledger:
        ledger = FrameLedger(clock=lambda: simulator.now)
        ap.ledger = ledger
        # The medium fires observers once per frame, after recipient
        # fan-out and before on_complete.
        medium.add_delivery_observer(ledger.on_delivery)

    useful_ports = ports_for_target_fraction(trace, config.useful_fraction)
    profile = config.profile
    client_config = ClientConfig(
        policy=config.policy,
        wakelock_timeout_s=profile.wakelock_timeout_s,
        resume_duration_s=profile.resume_duration_s,
        suspend_duration_s=profile.suspend_duration_s,
        loss_recovery=active_plan is not None and config.recovery,
        port_refresh_interval_s=config.port_refresh_interval_s,
    )
    clients: List[Client] = []
    for index in range(config.client_count):
        client = Client(
            MacAddress.station(index + 1), medium, AP_MAC, client_config
        )
        client.tracer = tracer
        medium.attach(client)
        record = ap.associate(client.mac, hide_capable=config.policy is ClientPolicy.HIDE)
        client.set_aid(record.aid)
        for port in useful_ports:
            client.open_port(port)
        clients.append(client)

    if active_plan is not None:
        for event in active_plan.crashes:
            target = clients[event.client_index % len(clients)]
            simulator.schedule_at(event.crash_at_s, target.crash)
            if event.rejoin_at_s is not None:
                simulator.schedule_at(event.rejoin_at_s, target.rejoin)

    invariants: Optional[InvariantSuite] = None
    if config.check_invariants:
        invariants = InvariantSuite(
            simulator,
            medium,
            ap,
            clients,
            seed=active_plan.seed if active_plan is not None else None,
        )

    for record in trace:
        if record.time > duration:
            break
        offered = (
            record.offered_time if record.offered_time is not None else record.time
        )
        packet = zero_padded_broadcast_packet(
            record.udp_port, max(1, record.length_bytes - _FRAMING_OVERHEAD_BYTES)
        )
        # post_at, not schedule_at: trace replay never cancels, so the
        # preschedule loop skips one EventHandle allocation per frame.
        # partial, not a lambda: same call, but the profiler can unwrap
        # it to the real site (AccessPoint.deliver_from_ds) instead of
        # attributing every trace frame to an anonymous <lambda>.
        simulator.post_at(
            min(offered, duration),
            partial(ap.deliver_from_ds, packet, WIRED_SOURCE),
        )

    return PreparedDesRun(
        trace=trace,
        config=config,
        duration=duration,
        useful_ports=useful_ports,
        simulator=simulator,
        medium=medium,
        access_point=ap,
        clients=clients,
        fault_injector=injector,
        invariants=invariants,
        ledger=ledger,
    )


def run_trace_des(
    trace: BroadcastTrace,
    config: Optional[DesRunConfig] = None,
    tracer=NULL_TRACER,
) -> DesRunResult:
    """Prepare and execute one DES replay (see :func:`prepare_trace_des`).

    When the config serves metrics, the endpoint outlives the run so
    its final state stays scrapeable — call ``result.close()`` when
    done with it.
    """
    return prepare_trace_des(trace, config, tracer=tracer).execute()


def client_summary_rows(result: DesRunResult) -> List[List[str]]:
    """Per-client report rows: wakeups, suspend share, metered power."""
    rows: List[List[str]] = []
    for client, metered in zip(result.clients, result.meter()):
        if client.power is None or client.wakelock is None:
            continue  # never attached (should not happen in a real run)
        rows.append(
            [
                str(client.aid if client.aid is not None else client.last_aid),
                str(client.power.counters.resumes),
                str(client.power.counters.suspends_aborted),
                f"{client.wakelock.total_held_time():.2f}",
                f"{client.counters.useful_frames_received}"
                f"/{client.counters.broadcast_frames_received}",
                f"{client.suspend_fraction(result.duration_s):.1%}",
                f"{metered.breakdown.average_power_w * 1e3:.1f}",
            ]
        )
    return rows


CLIENT_SUMMARY_HEADERS: Tuple[str, ...] = (
    "aid",
    "wakeups",
    "aborted",
    "wakelock (s)",
    "useful/rx",
    "suspended",
    "avg power (mW)",
)
