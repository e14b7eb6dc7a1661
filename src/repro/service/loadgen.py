"""Trace-replaying load generator for the port-service.

Simulates thousands of HIDE clients over loopback sockets: every client
gets a MAC, a BSS/AID pair (AIDs wrap at 2007 — the 802.11 limit — so
10k clients become five BSSes, matching the service's per-BSS tables),
and an open-port set drawn from the same scenario service-mix the trace
generators use. Each simulated client then behaves like the paper's
recovery protocol: a full port report first, keep-alive refreshes
after, with an occasional re-report (and periodic want-ack probes so
ACK latency and the re-report-on-expiry path stay exercised).

Pacing is a token bucket integrated over wall time with an optional
linear ramp, fanned across ``workers`` asyncio datagram endpoints; each
worker owns a disjoint client slice so sequence numbers stay
per-client monotonic without coordination.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dot11.mac_address import MacAddress
from repro.dot11.pvb import MAX_AID
from repro.errors import ServiceError
from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.obs.hdr import HdrHistogram, latency_ms_histogram
from repro.service import wire
from repro.traces.scenarios import scenario_by_name

LOADGEN_SCHEMA = "repro-loadgen/v1"

#: Pending want-ack sends per worker: (bss, aid) -> (seq, perf_counter
#: send time). The server's drained-ACK path coalesces to the latest
#: sequence per client, so a newer want-ack send for the same client
#: simply supersedes the older pending entry.
_PendingAcks = Dict[Tuple[int, int], Tuple[int, float]]

#: seq field offset inside the fixed wire header (see wire._HEADER).
_SEQ_OFFSET = 8
_FLAGS_OFFSET = 4
_SEQ_PACK = struct.Struct(">I")


@dataclass
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 0
    clients: int = 1000
    #: Target aggregate message rate (reports + keep-alives) per second.
    rate: float = 50_000.0
    duration_s: float = 10.0
    #: Linear ramp from 10% to 100% of ``rate`` over this many seconds.
    ramp_s: float = 0.0
    workers: int = 4
    scenario: str = "Classroom"
    seed: int = 1
    #: Fraction of steady-state sends that are keep-alives (the rest
    #: are full port reports; the first send per client is always one).
    keepalive_fraction: float = 0.75
    #: Every Nth send per worker requests an ACK (0 = never).
    ack_every: int = 64
    #: Pacing tick; smaller = smoother, larger = cheaper.
    tick_s: float = 0.005

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServiceError(f"need at least one client: {self.clients}")
        if self.clients > 255 * MAX_AID:
            raise ServiceError(f"too many clients for the BSS/AID space: {self.clients}")
        if self.rate <= 0:
            raise ServiceError(f"rate must be positive: {self.rate}")
        if self.duration_s <= 0:
            raise ServiceError(f"duration must be positive: {self.duration_s}")
        if not 0 <= self.keepalive_fraction <= 1:
            raise ServiceError(
                f"keepalive fraction must be in [0, 1]: {self.keepalive_fraction}"
            )
        if self.workers < 1:
            raise ServiceError(f"need at least one worker: {self.workers}")


@dataclass
class LoadgenReport:
    """What one loadgen run achieved; rendered and JSON-dumped by the CLI."""

    config: LoadgenConfig
    duration_s: float = 0.0
    sent_total: int = 0
    sent_reports: int = 0
    sent_keepalives: int = 0
    acks_received: int = 0
    acks_by_status: Dict[int, int] = field(default_factory=dict)
    #: Want-ack round-trip latency (send to ACK receipt, milliseconds)
    #: keyed by ACK status byte.
    rtt_ms_by_status: Dict[int, HdrHistogram] = field(default_factory=dict)
    #: ACKs that matched no pending want-ack send: superseded by a newer
    #: sequence for the same client, or duplicated by the network.
    acks_unmatched: int = 0
    #: Full reports re-sent because an ACK said "unknown client".
    rereports: int = 0
    send_errors: int = 0

    @property
    def achieved_rate(self) -> float:
        return self.sent_total / self.duration_s if self.duration_s > 0 else 0.0

    def record_rtt(self, status: int, rtt_ms: float) -> None:
        histogram = self.rtt_ms_by_status.get(status)
        if histogram is None:
            histogram = self.rtt_ms_by_status[status] = latency_ms_histogram()
        histogram.record(rtt_ms)

    def merged_rtt(self) -> HdrHistogram:
        """Round-trip latency across every ACK status."""
        if not self.rtt_ms_by_status:
            return latency_ms_histogram()
        return HdrHistogram.merged(self.rtt_ms_by_status.values())

    def to_document(self) -> Dict[str, object]:
        return {
            "schema": LOADGEN_SCHEMA,
            "target": {
                "host": self.config.host,
                "port": self.config.port,
                "clients": self.config.clients,
                "rate": self.config.rate,
                "duration_s": self.config.duration_s,
                "ramp_s": self.config.ramp_s,
                "workers": self.config.workers,
                "scenario": self.config.scenario,
                "seed": self.config.seed,
                "keepalive_fraction": self.config.keepalive_fraction,
            },
            "achieved": {
                "duration_s": self.duration_s,
                "sent_total": self.sent_total,
                "sent_reports": self.sent_reports,
                "sent_keepalives": self.sent_keepalives,
                "rate_per_second": self.achieved_rate,
                "acks_received": self.acks_received,
                "acks_by_status": {
                    str(k): v for k, v in sorted(self.acks_by_status.items())
                },
                "acks_unmatched": self.acks_unmatched,
                "rereports": self.rereports,
                "send_errors": self.send_errors,
            },
            "latency": {
                "rtt_ms": self.merged_rtt().to_dict(),
                "rtt_ms_by_status": {
                    str(status): histogram.to_dict()
                    for status, histogram in sorted(self.rtt_ms_by_status.items())
                },
            },
        }


class _SimClient:
    """Pre-encoded datagram templates for one simulated client."""

    __slots__ = ("bss", "aid", "mac", "seq", "report", "keepalive", "reported")

    def __init__(self, index: int, ports) -> None:
        self.bss = index // MAX_AID
        self.aid = (index % MAX_AID) + 1
        self.mac = MacAddress.station(index).octets
        self.seq = 0
        # Templates are bytearrays; each send patches seq (and the
        # want-ack flag bit) in place instead of re-encoding.
        self.report = bytearray(
            wire.encode_port_report(self.bss, self.aid, self.mac, 0, ports)
        )
        self.keepalive = bytearray(
            wire.encode_keep_alive(self.bss, self.aid, self.mac, 0)
        )
        self.reported = False

    def next_payload(self, keepalive: bool, want_ack: bool) -> bytes:
        template = self.keepalive if (keepalive and self.reported) else self.report
        self.seq = (self.seq + 1) & 0xFFFFFFFF
        _SEQ_PACK.pack_into(template, _SEQ_OFFSET, self.seq)
        template[_FLAGS_OFFSET] = wire.FLAG_WANT_ACK if want_ack else 0
        if template is self.report:
            self.reported = True
        return bytes(template)


def _scenario_port_mix(scenario: str) -> Tuple[List[int], List[float]]:
    spec = scenario_by_name(scenario)
    overrides = dict(spec.port_weight_overrides)
    ports: List[int] = []
    weights: List[float] = []
    for port, service in sorted(WELL_KNOWN_BROADCAST_SERVICES.items()):
        ports.append(port)
        weights.append(service.traffic_weight * overrides.get(port, 1.0))
    return ports, weights


def build_clients(config: LoadgenConfig) -> List[_SimClient]:
    """Deterministic client population for ``config.seed``."""
    rng = random.Random(config.seed)
    ports, weights = _scenario_port_mix(config.scenario)
    clients: List[_SimClient] = []
    for index in range(config.clients):
        open_count = rng.randint(1, 4)
        open_ports = set()
        while len(open_ports) < open_count:
            open_ports.add(rng.choices(ports, weights=weights, k=1)[0])
        clients.append(_SimClient(index, open_ports))
    return clients


class _AckProtocol(asyncio.DatagramProtocol):
    """Counts ACKs, records round-trip latency, queues re-reports."""

    def __init__(
        self,
        report: LoadgenReport,
        rereport_queue: List[int],
        pending_acks: _PendingAcks,
    ) -> None:
        self._report = report
        self._rereports = rereport_queue
        self._pending = pending_acks
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            message = wire.decode_message(data)
        except Exception:
            return
        if message.msg_type != wire.MSG_ACK:
            return
        self._report.acks_received += 1
        by_status = self._report.acks_by_status
        by_status[message.status] = by_status.get(message.status, 0) + 1
        client = (message.bss, message.aid)
        pending = self._pending.get(client)
        if pending is not None and pending[0] == message.seq:
            del self._pending[client]
            self._report.record_rtt(
                message.status,
                max(0.0, (time.perf_counter() - pending[1]) * 1e3),
            )
        else:
            # Either a stale ACK (we already sent a newer want-ack for
            # this client) or a duplicate; no send time to pair it with.
            self._report.acks_unmatched += 1
        if message.status == wire.ACK_UNKNOWN_CLIENT:
            self._rereports.append((message.bss * MAX_AID) + message.aid - 1)


async def _worker(
    config: LoadgenConfig,
    clients: List[_SimClient],
    offsets: List[int],
    rate_share: float,
    report: LoadgenReport,
    stop: asyncio.Event,
) -> None:
    """One endpoint pushing its client slice at ``rate_share`` msgs/s."""
    loop = asyncio.get_event_loop()
    rereport_queue: List[int] = []
    pending_acks: _PendingAcks = {}
    transport, _ = await loop.create_datagram_endpoint(
        lambda: _AckProtocol(report, rereport_queue, pending_acks),
        remote_addr=(config.host, config.port),
    )
    rng = random.Random((config.seed << 16) ^ offsets[0])
    try:
        start = time.perf_counter()
        end = start + config.duration_s
        sent = 0.0  # fractional credit from the token bucket
        sent_count = 0
        cursor = 0
        while not stop.is_set():
            now = time.perf_counter()
            if now >= end:
                break
            elapsed = now - start
            if config.ramp_s > 0 and elapsed < config.ramp_s:
                current_rate = rate_share * (0.1 + 0.9 * elapsed / config.ramp_s)
            else:
                current_rate = rate_share
            target = min(elapsed, config.duration_s) * current_rate
            budget = int(target - sent)
            for _ in range(budget):
                if rereport_queue:
                    index = rereport_queue.pop()
                    local = index - offsets[0]
                    if 0 <= local < len(clients):
                        clients[local].reported = False
                        report.rereports += 1
                client = clients[cursor]
                cursor = (cursor + 1) % len(clients)
                keepalive = rng.random() < config.keepalive_fraction
                want_ack = (
                    config.ack_every > 0 and sent_count % config.ack_every == 0
                )
                payload = client.next_payload(keepalive, want_ack)
                try:
                    transport.sendto(payload)
                except OSError:  # pragma: no cover - kernel buffer full
                    report.send_errors += 1
                    continue
                if want_ack:
                    # Latest want-ack wins, mirroring the server's
                    # coalesced per-client ACK semantics.
                    pending_acks[(client.bss, client.aid)] = (
                        client.seq,
                        time.perf_counter(),
                    )
                sent_count += 1
                if len(payload) > wire.HEADER_BYTES:
                    report.sent_reports += 1
                else:
                    report.sent_keepalives += 1
            sent += budget
            await asyncio.sleep(config.tick_s)
        report.sent_total += sent_count
    finally:
        transport.close()


async def run_loadgen_async(config: LoadgenConfig) -> LoadgenReport:
    report = LoadgenReport(config=config)
    clients = build_clients(config)
    stop = asyncio.Event()
    workers = min(config.workers, config.clients)
    slices: List[Tuple[List[_SimClient], List[int]]] = []
    per = (len(clients) + workers - 1) // workers
    for w in range(workers):
        chunk = clients[w * per:(w + 1) * per]
        if chunk:
            slices.append((chunk, [w * per]))
    rate_share = config.rate / len(slices)
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _worker(config, chunk, offsets, rate_share, report, stop)
            for chunk, offsets in slices
        )
    )
    # Give in-flight ACKs a moment to land before closing the books.
    await asyncio.sleep(min(0.2, config.duration_s / 10))
    report.duration_s = time.perf_counter() - start
    return report


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Blocking entry point for ``repro loadgen``."""
    return asyncio.run(run_loadgen_async(config))


def render_report(report: LoadgenReport) -> str:
    lines = [
        f"loadgen: {report.sent_total} messages in {report.duration_s:.2f} s "
        f"({report.achieved_rate:,.0f}/s of {report.config.rate:,.0f}/s target, "
        f"{report.config.clients} clients, {report.config.workers} workers)",
        f"  reports {report.sent_reports}, keep-alives {report.sent_keepalives}, "
        f"re-reports {report.rereports}, send errors {report.send_errors}",
    ]
    if report.acks_received:
        statuses = ", ".join(
            f"status {status}: {count}"
            for status, count in sorted(report.acks_by_status.items())
        )
        lines.append(
            f"  acks {report.acks_received} ({statuses}), "
            f"unmatched {report.acks_unmatched}"
        )
        merged = report.merged_rtt()
        if merged.count:
            lines.append(
                f"  rtt ms (all statuses): p50 {merged.quantile(0.50):.3f}, "
                f"p90 {merged.quantile(0.90):.3f}, "
                f"p99 {merged.quantile(0.99):.3f}, max {merged.max:.3f} "
                f"over {merged.count} matched acks"
            )
            for status, histogram in sorted(report.rtt_ms_by_status.items()):
                lines.append(
                    f"    status {status}: p50 {histogram.quantile(0.50):.3f}, "
                    f"p99 {histogram.quantile(0.99):.3f}, "
                    f"max {histogram.max:.3f} ({histogram.count} acks)"
                )
    else:
        lines.append("  acks 0")
    return "\n".join(lines)


def write_report_json(report: LoadgenReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report.to_document(), stream, indent=2, sort_keys=True)
        stream.write("\n")
