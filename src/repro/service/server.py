"""The stand-alone async AP port-service.

This is HIDE's AP-side state machine — the Client UDP Port Table plus
Algorithm 1 — lifted out of the discrete-event simulator and run as a
live ``asyncio`` UDP service:

* a raw nonblocking socket on ``loop.add_reader`` ingests port reports
  and keep-alives; each readiness wake-up drains the kernel queue in a
  tight ``recvfrom`` batch (hundreds of datagrams per selector trip —
  far cheaper than asyncio's per-datagram protocol path), and the
  per-datagram work is only routing: magic check + shard hash on
  MAC/AID, then an append to a bounded per-shard queue with
  drop-oldest backpressure;
* N shard workers (one task per :class:`~repro.service.shard.PortShard`)
  decode strictly, apply table semantics, arm the TTL wheel, and emit
  coalesced ACKs once their queue drains;
* a DTIM task runs Algorithm 1 (`repro.ap.flags`) every DTIM interval
  against a scenario-driven broadcast-frame feed, across every shard;
* an expiry task advances the hierarchical TTL wheels, replacing the
  sim's per-scan ``expire_older_than``;
* the existing obs stack provides the ops surface: a
  :class:`~repro.obs.server.MetricsServer` (``/metrics`` + ``/healthz``)
  over a pull-collected registry, exporting reports/s, flags/s, shard
  depths, expirations, drops, and the queue-wait, drain-cost and ACK
  latency summaries;
* SIGTERM/SIGINT trigger a graceful drain — ingest closes, shards
  flush, and a final-state JSON snapshot is written.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ap.flags import compute_broadcast_flags
from repro.errors import FrameDecodeError, ServiceError
from repro.obs.hdr import HdrHistogram
from repro.obs.metrics import MetricsRegistry
from repro.service import wire
from repro.service.feed import BroadcastFrameFeed
from repro.service.shard import PortShard

FINAL_STATE_SCHEMA = "repro-service-state/v1"


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 4
    ttl_s: float = 30.0
    queue_capacity: int = 8192
    #: Beacon interval × DTIM period; the paper's AP beacons at 102.4 ms.
    dtim_interval_s: float = 0.1024
    #: Scenario feeding the per-DTIM broadcast buffer.
    scenario: str = "Classroom"
    feed_seed: Optional[int] = None
    feed_pool: int = 2048
    #: TTL wheel sweep cadence (also its granularity).
    expiry_sweep_s: float = 0.25
    #: Port for the /metrics + /healthz endpoint (None = no endpoint,
    #: 0 = ephemeral).
    metrics_port: Optional[int] = None
    #: Auto-stop after this many seconds (None = run until signalled).
    duration_s: Optional[float] = None
    #: Write ``{"service_port": ..., "metrics_port": ...}`` here once
    #: bound — how scripts and CI discover ephemeral ports.
    port_file: Optional[str] = None
    #: Where the shutdown flush lands (None = skip the file).
    final_state_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError(f"need at least one shard: {self.shards}")
        if self.ttl_s <= 0:
            raise ServiceError(f"TTL must be positive: {self.ttl_s}")
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue capacity must be positive: {self.queue_capacity}"
            )
        if self.dtim_interval_s <= 0:
            raise ServiceError(
                f"DTIM interval must be positive: {self.dtim_interval_s}"
            )


#: recvfrom calls per readiness wake-up; level-triggered selectors
#: re-fire immediately if the kernel queue is still non-empty.
_RECV_BATCH = 512


class PortService:
    """Lifecycle owner: socket, shard workers, DTIM + expiry tasks."""

    def __init__(
        self,
        config: ServiceConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shards: List[PortShard] = [
            PortShard(
                index=i,
                ttl_s=config.ttl_s,
                queue_capacity=config.queue_capacity,
                wheel_granularity_s=config.expiry_sweep_s,
                start=0.0,
            )
            for i in range(config.shards)
        ]
        self.feed: Optional[BroadcastFrameFeed] = None
        self.wake_events: List[asyncio.Event] = []
        self.datagrams_received = 0
        self.garbage_datagrams = 0
        self.socket_errors = 0
        self.flags_computed_total = 0
        self.algorithm1_runs = 0
        self.algorithm1_wall_s = 0.0
        self.expired_total = 0
        self._start_wall = 0.0
        self._epoch = 0.0
        self._sock: Optional[socket.socket] = None
        self._tasks: List[asyncio.Task] = []
        self._stop_event: Optional[asyncio.Event] = None
        self._metrics_server = None
        self._rate_sample: Tuple[float, int, int] = (0.0, 0, 0)
        self._last_rates: Tuple[float, float] = (0.0, 0.0)

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Service-relative monotonic seconds (wheel + table time)."""
        return time.monotonic() - self._epoch

    # -- lifecycle -----------------------------------------------------

    @property
    def server_port(self) -> int:
        if self._sock is None:
            return self.config.port
        return self._sock.getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        if self._metrics_server is None:
            return None
        return self._metrics_server.port

    async def start(self) -> "PortService":
        if self._sock is not None:
            return self
        loop = asyncio.get_event_loop()
        self._epoch = time.monotonic()
        self._start_wall = time.time()
        self._stop_event = asyncio.Event()
        self.wake_events = [asyncio.Event() for _ in self.shards]
        self.feed = BroadcastFrameFeed.from_scenario(
            self.config.scenario,
            self.config.dtim_interval_s,
            seed=self.config.feed_seed,
            max_pool=self.config.feed_pool,
        )
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # Fat buffers: the loadgen bursts faster than a Python loop
        # iteration, and the kernel queue is the first backpressure tier.
        for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            try:
                sock.setsockopt(socket.SOL_SOCKET, opt, 4 << 20)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        sock.setblocking(False)
        sock.bind((self.config.host, self.config.port))
        self._sock = sock
        loop.add_reader(sock.fileno(), self._on_readable)
        for shard in self.shards:
            self._tasks.append(
                loop.create_task(self._shard_worker(shard))
            )
        self._tasks.append(loop.create_task(self._dtim_loop()))
        self._tasks.append(loop.create_task(self._expiry_loop()))
        if self.config.metrics_port is not None:
            from repro.obs.server import MetricsServer

            self._metrics_server = MetricsServer(
                registry=self.registry,
                collect_fn=self.collect_into_registry,
                health_fn=self.health,
                host=self.config.host,
                port=self.config.metrics_port,
            )
            self._metrics_server.start()
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as stream:
                json.dump(
                    {
                        "service_port": self.server_port,
                        "metrics_port": self.metrics_port,
                    },
                    stream,
                )
                stream.write("\n")
        return self

    async def stop(self) -> None:
        if self._sock is None:
            return
        # 1. Stop ingest so the drain below is final.
        loop = asyncio.get_event_loop()
        loop.remove_reader(self._sock.fileno())
        self._on_readable()  # pull whatever the kernel still holds
        sock, self._sock = self._sock, None
        # 2. Give every worker one last wake-up, then cancel the loops.
        for event in self.wake_events:
            event.set()
        await asyncio.sleep(0)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        # 3. Final synchronous drain of anything still queued.
        now = self.now()
        for shard in self.shards:
            shard.drain(now, ack_sink=None)
        sock.close()
        # 4. Flush final state, then tear down the ops surface.
        document = self.final_state()
        if self.config.final_state_path:
            with open(self.config.final_state_path, "w", encoding="utf-8") as stream:
                json.dump(document, stream, indent=2, sort_keys=True)
                stream.write("\n")
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None

    def request_stop(self) -> None:
        """Signal-safe stop trigger (wired to SIGTERM/SIGINT)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve(self) -> Dict[str, object]:
        """Start, run until signalled (or ``duration_s``), stop.

        Returns the final-state document.
        """
        await self.start()
        loop = asyncio.get_event_loop()
        installed: List[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support
        try:
            assert self._stop_event is not None
            if self.config.duration_s is not None:
                try:
                    await asyncio.wait_for(
                        self._stop_event.wait(), timeout=self.config.duration_s
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                await self._stop_event.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()
        return self.final_state()

    # -- ingest (runs on the loop thread, must stay cheap) -------------

    def _on_readable(self) -> None:
        """Drain the kernel receive queue in one batched pass."""
        sock = self._sock
        if sock is None:  # pragma: no cover - close race
            return
        shards = self.shards
        nshards = len(shards)
        wake = self.wake_events
        recvfrom = sock.recvfrom
        peek = wire.peek_route
        shard_of = wire.shard_index
        received = 0
        # One timestamp per readiness wake-up, not per datagram: the
        # batch drains in well under a millisecond, and the latency
        # histograms' sub-bucket resolution is coarser than the skew.
        received_at = self.now()
        for _ in range(_RECV_BATCH):
            try:
                data, addr = recvfrom(2048)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - kernel-dependent
                self.socket_errors += 1
                break
            received += 1
            try:
                bss, aid, mac = peek(data)
            except FrameDecodeError:
                self.garbage_datagrams += 1
                continue
            shard = shards[shard_of(bss, aid, mac, nshards)]
            shard.offer(data, addr, at=received_at)
            event = wake[shard.index]
            if not event.is_set():
                event.set()
        self.datagrams_received += received

    # -- workers -------------------------------------------------------

    async def _shard_worker(self, shard: PortShard) -> None:
        event = self.wake_events[shard.index]
        send = self._send_ack
        while True:
            await event.wait()
            event.clear()
            shard.drain(self.now(), ack_sink=send)
            # Yield so the receive callback can refill before we check
            # again; anything that arrived mid-drain re-set the event.
            await asyncio.sleep(0)

    def _send_ack(self, payload: bytes, addr) -> None:
        sock = self._sock
        if sock is None:
            return
        try:
            sock.sendto(payload, addr)
        except (BlockingIOError, InterruptedError):
            pass  # send buffer full: the client re-probes on its next ack
        except OSError:  # pragma: no cover - kernel-dependent
            self.socket_errors += 1

    async def _dtim_loop(self) -> None:
        """Batched per-DTIM flag computation across every shard."""
        assert self.feed is not None
        interval = self.config.dtim_interval_s
        next_tick = self.now() + interval
        while True:
            delay = next_tick - self.now()
            if delay > 0:
                await asyncio.sleep(delay)
            next_tick += interval
            frames = self.feed.next_batch()
            start = time.perf_counter()
            flagged = 0
            if frames:
                for shard in self.shards:
                    for table in shard.tables.values():
                        flagged += len(compute_broadcast_flags(frames, table))
            self.algorithm1_wall_s += time.perf_counter() - start
            self.algorithm1_runs += 1
            self.flags_computed_total += flagged

    async def _expiry_loop(self) -> None:
        interval = self.config.expiry_sweep_s
        while True:
            await asyncio.sleep(interval)
            now = self.now()
            for shard in self.shards:
                self.expired_total += len(shard.expire(now))

    # -- aggregation / ops surface -------------------------------------

    def totals(self) -> Dict[str, int]:
        counters = [shard.counters for shard in self.shards]
        return {
            "datagrams_received": self.datagrams_received,
            "garbage": self.garbage_datagrams + sum(c.garbage for c in counters),
            "reports": sum(c.reports for c in counters),
            "keepalives": sum(c.keepalives for c in counters),
            "acks_sent": sum(c.acks_sent for c in counters),
            "rejected": sum(c.rejected for c in counters),
            "drops": sum(c.drops for c in counters),
            "expirations": sum(c.expirations for c in counters),
            "shard_errors": sum(c.errors for c in counters),
            "socket_errors": self.socket_errors,
            "clients": sum(shard.client_count for shard in self.shards),
            "pairs": sum(shard.pair_count for shard in self.shards),
            "flags_computed": self.flags_computed_total,
            "algorithm1_runs": self.algorithm1_runs,
        }

    def merged_latency(self) -> Dict[str, HdrHistogram]:
        """Each latency distribution folded across every shard."""
        merged: Dict[str, HdrHistogram] = {}
        for name in ("queue_wait_ms", "drain_batch_ms", "ack_latency_ms"):
            merged[name] = HdrHistogram.merged(
                shard.latency_histograms()[name] for shard in self.shards
            )
        return merged

    def _windowed_rates(self) -> Tuple[float, float]:
        """(reports/s, flags/s) since the previous rate sample."""
        now = time.monotonic()
        totals = self.totals()
        messages = totals["reports"] + totals["keepalives"]
        flags = totals["flags_computed"]
        last_t, last_messages, last_flags = self._rate_sample
        self._rate_sample = (now, messages, flags)
        if last_t == 0.0 or now <= last_t:
            return self._last_rates
        window = now - last_t
        self._last_rates = (
            (messages - last_messages) / window,
            (flags - last_flags) / window,
        )
        return self._last_rates

    def collect_into_registry(self) -> None:
        """Pull-collect shard counters into the metrics registry (the
        ``/metrics`` scrape path)."""
        registry = self.registry
        totals = self.totals()
        help_text = {
            "reports": "Port reports applied",
            "keepalives": "Keep-alive refreshes applied",
            "acks_sent": "Coalesced ACKs sent (drained-ACK fast path)",
            "rejected": "Messages refused by validation",
            "drops": "Datagrams discarded by drop-oldest backpressure",
            "garbage": "Undecodable datagrams",
            "expirations": "Clients aged out by the TTL wheel",
            "shard_errors": "Unexpected shard worker exceptions",
            "datagrams_received": "Raw datagrams received",
            "flags_computed": "Broadcast flags set by Algorithm 1",
            "algorithm1_runs": "Per-DTIM Algorithm 1 passes",
        }
        for key, text in help_text.items():
            registry.counter(f"service_{key}_total", text).set_total(totals[key])
        registry.gauge(
            "service_clients", "Clients with live port-table entries"
        ).set(totals["clients"])
        registry.gauge(
            "service_table_pairs", "(port, AID) pairs across all shards"
        ).set(totals["pairs"])
        registry.gauge(
            "service_uptime_seconds", "Seconds since the service started"
        ).set(self.now())
        for shard in self.shards:
            labels = {"shard": str(shard.index)}
            registry.gauge(
                "service_shard_depth", "Ingress queue depth", labels
            ).set(shard.depth)
            registry.gauge(
                "service_shard_clients", "Clients owned by this shard", labels
            ).set(shard.client_count)
        reports_rate, flags_rate = self._windowed_rates()
        registry.gauge(
            "service_reports_per_second",
            "Port messages applied per second (scrape-to-scrape window)",
        ).set(reports_rate)
        registry.gauge(
            "service_flags_per_second",
            "Broadcast flags computed per second (scrape-to-scrape window)",
        ).set(flags_rate)
        latency_help = {
            "queue_wait_ms": "Ingress-to-drain queue wait (HDR, ms)",
            "drain_batch_ms": "Wall cost per non-empty drain batch (HDR, ms)",
            "ack_latency_ms": "Receive-to-ACK-emission latency (HDR, ms)",
        }
        for name, histogram in self.merged_latency().items():
            registry.histogram(f"service_{name}", latency_help[name]).set_histogram(
                histogram
            )

    def health(self) -> Dict[str, object]:
        totals = self.totals()
        return {
            "service": "repro-port-service",
            "scenario": self.config.scenario,
            "shards": len(self.shards),
            "clients": totals["clients"],
            "uptime_s": round(self.now(), 3),
            "shard_errors": totals["shard_errors"],
        }

    def final_state(self) -> Dict[str, object]:
        """The shutdown flush: totals plus per-shard snapshots."""
        return {
            "schema": FINAL_STATE_SCHEMA,
            "started_unix": self._start_wall,
            "uptime_s": self.now(),
            "config": {
                "host": self.config.host,
                "port": self.server_port,
                "shards": self.config.shards,
                "ttl_s": self.config.ttl_s,
                "dtim_interval_s": self.config.dtim_interval_s,
                "scenario": self.config.scenario,
            },
            "totals": self.totals(),
            "shards": [shard.snapshot() for shard in self.shards],
            "feed": {
                "batches_served": self.feed.batches_served if self.feed else 0,
                "frames_served": self.feed.frames_served if self.feed else 0,
            },
        }


def run_service(config: ServiceConfig) -> Dict[str, object]:
    """Blocking entry point for ``repro serve``."""
    service = PortService(config)
    return asyncio.run(service.serve())
