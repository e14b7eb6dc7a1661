"""One shard of the port-service: tables, TTL wheel, ingress queue.

A shard is plain synchronous state owned by exactly one asyncio task
(the server spawns one worker per shard), so none of this needs locks:
the ingest callback appends raw datagrams to the shard's bounded queue
on the loop thread, and the owning worker drains them in batches.

Backpressure is drop-oldest: when the queue is full the *oldest* raw
datagram is discarded, because a fresher report from the same client
supersedes it anyway — exactly the replacement semantics of the
underlying :class:`~repro.ap.port_table.ClientUdpPortTable`.

ACKs follow a drained-ACK fast path: during a drain the shard only
*records* the latest ack-worthy sequence per client, and emits the
coalesced ACKs once the queue is empty. Under load this collapses an
ACK per message into an ACK per client per batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.ap.port_table import ClientUdpPortTable, ExpiredEntry
from repro.errors import FrameDecodeError, PortTableError
from repro.obs.hdr import HdrHistogram, latency_ms_histogram
from repro.service import wire
from repro.service.ttl_wheel import TtlWheel

#: (raw datagram, sender address, receive timestamp) as queued by the
#: ingest callback. The timestamp is the service clock at recvfrom
#: (``None`` for callers that don't track one, e.g. benchmarks).
Ingress = Tuple[bytes, Tuple[str, int], Optional[float]]
#: ``send(payload, addr)`` — the server binds this to the UDP transport.
AckSink = Callable[[bytes, Tuple[str, int]], None]


@dataclass
class ShardCounters:
    """Monotonic per-shard counters, pulled into the metrics registry."""

    reports: int = 0
    keepalives: int = 0
    acks_sent: int = 0
    #: Structurally valid messages refused by protocol/table validation.
    rejected: int = 0
    #: Undecodable datagrams (truncated, bad magic, bad counts).
    garbage: int = 0
    #: Raw datagrams discarded by drop-oldest backpressure.
    drops: int = 0
    expirations: int = 0
    #: Unexpected exceptions inside the worker — always zero in a
    #: healthy service; the smoke job asserts on it.
    errors: int = 0


class PortShard:
    """Sharded port-table state plus its expiry wheel and ingress queue."""

    def __init__(
        self,
        index: int,
        ttl_s: float = 30.0,
        queue_capacity: int = 4096,
        wheel_granularity_s: float = 0.25,
        start: float = 0.0,
    ) -> None:
        self.index = index
        self.ttl_s = ttl_s
        self.queue_capacity = queue_capacity
        self.counters = ShardCounters()
        #: One port table per BSS this shard fronts (AIDs are only
        #: unique within a BSS; tables are created on first report).
        self.tables: Dict[int, ClientUdpPortTable] = {}
        self.wheel = TtlWheel(granularity_s=wheel_granularity_s, start=start)
        self.queue: Deque[Ingress] = deque()
        #: Ingress latency distributions (milliseconds; see the ledger
        #: PR): time queued before the worker drained a datagram, wall
        #: cost of each non-empty drain batch, and receive-to-ACK-
        #: emission latency for ack-worthy messages.
        self.queue_wait_ms = latency_ms_histogram()
        self.drain_batch_ms = latency_ms_histogram()
        self.ack_latency_ms = latency_ms_histogram()
        #: (bss, aid) -> MAC that owns the AID; a report for a bound
        #: AID from a different MAC is rejected, not silently stolen.
        self._mac_by_client: Dict[Tuple[int, int], bytes] = {}

    # -- ingest (runs on the loop thread, must stay cheap) -------------

    def offer(
        self,
        data: bytes,
        addr: Tuple[str, int],
        at: Optional[float] = None,
    ) -> None:
        """Queue one raw datagram, dropping the oldest when full.

        ``at`` is the service-clock receive time (the server stamps one
        per recvfrom batch); latency histograms are skipped when it is
        omitted, so timestamp-less callers pay nothing extra.
        """
        if len(self.queue) >= self.queue_capacity:
            self.queue.popleft()
            self.counters.drops += 1
        self.queue.append((data, addr, at))

    @property
    def depth(self) -> int:
        return len(self.queue)

    # -- draining (runs on the owning worker task) ---------------------

    def drain(self, now: float, ack_sink: Optional[AckSink] = None) -> int:
        """Decode and apply every queued datagram; returns the count.

        Coalesced ACKs go out after the queue is empty (the drained-ACK
        fast path), keyed by client so only the latest sequence per
        client in the batch is confirmed.
        """
        processed = 0
        pending_acks: Dict[
            Tuple[int, int], Tuple[bytes, Tuple[str, int], Optional[float]]
        ] = {}
        popleft = self.queue.popleft
        queue_wait = self.queue_wait_ms.record
        batch_start = perf_counter()
        while self.queue:
            data, addr, received_at = popleft()
            processed += 1
            if received_at is not None:
                queue_wait(max(0.0, (now - received_at) * 1e3))
            try:
                message = wire.decode_message(data)
            except FrameDecodeError:
                self.counters.garbage += 1
                continue
            try:
                self._apply(message, now, addr, pending_acks, received_at)
            except Exception:
                self.counters.errors += 1
        if ack_sink is not None:
            for payload, addr, received_at in pending_acks.values():
                ack_sink(payload, addr)
                self.counters.acks_sent += 1
                if received_at is not None:
                    # Service time advanced by the drain's own wall
                    # cost since ``now`` was stamped; fold it in so
                    # the coalescing delay is visible in the tail.
                    elapsed = perf_counter() - batch_start
                    self.ack_latency_ms.record(
                        max(0.0, (now - received_at + elapsed) * 1e3)
                    )
        if processed:
            self.drain_batch_ms.record((perf_counter() - batch_start) * 1e3)
        return processed

    def _apply(
        self,
        message: wire.Message,
        now: float,
        addr: Tuple[str, int],
        pending_acks: Dict[
            Tuple[int, int], Tuple[bytes, Tuple[str, int], Optional[float]]
        ],
        received_at: Optional[float] = None,
    ) -> None:
        if message.msg_type == wire.MSG_ACK:
            # Clients never ack the server; count it as garbage-adjacent
            # rejection rather than an error.
            self.counters.rejected += 1
            return
        client = (message.bss, message.aid)
        status = wire.ACK_OK
        if message.msg_type == wire.MSG_PORT_REPORT:
            owner = self._mac_by_client.get(client)
            if owner is not None and owner != message.mac:
                self.counters.rejected += 1
                status = wire.ACK_REJECTED
            else:
                try:
                    self._table_for(message.bss).update_client(
                        message.aid, message.ports, now=now
                    )
                except PortTableError:
                    self.counters.rejected += 1
                    status = wire.ACK_REJECTED
                else:
                    self._mac_by_client[client] = message.mac
                    self.wheel.schedule(client, now + self.ttl_s)
                    self.counters.reports += 1
        else:  # keep-alive
            table = self.tables.get(message.bss)
            if (
                table is None
                or self._mac_by_client.get(client) != message.mac
                or not table.touch(message.aid, now)
            ):
                # Expired (or never-seen) client: tell it to re-report.
                self.counters.rejected += 1
                status = wire.ACK_UNKNOWN_CLIENT
            else:
                self.wheel.schedule(client, now + self.ttl_s)
                self.counters.keepalives += 1
        if message.want_ack:
            pending_acks[client] = (
                wire.encode_ack(
                    message.bss, message.aid, message.mac, message.seq, status
                ),
                addr,
                received_at,
            )

    def _table_for(self, bss: int) -> ClientUdpPortTable:
        table = self.tables.get(bss)
        if table is None:
            table = self.tables[bss] = ClientUdpPortTable()
        return table

    # -- expiry --------------------------------------------------------

    def expire(self, now: float) -> List[Tuple[int, ExpiredEntry]]:
        """Advance the wheel; returns ``(bss, entry)`` per expired client."""
        expired: List[Tuple[int, ExpiredEntry]] = []
        for bss, aid in self.wheel.advance(now):
            table = self.tables.get(bss)
            if table is None:
                continue
            updated = table.updated_at(aid)
            if updated is None:
                self._mac_by_client.pop((bss, aid), None)
                continue
            deadline = updated + self.ttl_s
            if deadline > now:
                # Refreshed through a path that did not re-arm the
                # wheel; push the entry out to its true deadline.
                self.wheel.schedule((bss, aid), deadline)
                continue
            entry = ExpiredEntry(
                aid=aid, ports=table.ports_for_client(aid), updated_at=updated
            )
            table.remove_client(aid)
            table.stats.expirations += 1
            self._mac_by_client.pop((bss, aid), None)
            self.counters.expirations += 1
            expired.append((bss, entry))
        return expired

    # -- introspection -------------------------------------------------

    @property
    def client_count(self) -> int:
        return sum(table.client_count for table in self.tables.values())

    @property
    def pair_count(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def latency_histograms(self) -> Dict[str, HdrHistogram]:
        """The shard's latency distributions, by exported series name."""
        return {
            "queue_wait_ms": self.queue_wait_ms,
            "drain_batch_ms": self.drain_batch_ms,
            "ack_latency_ms": self.ack_latency_ms,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state for the final flush / health endpoint."""
        return {
            "shard": self.index,
            "clients": self.client_count,
            "pairs": self.pair_count,
            "bss_tables": len(self.tables),
            "queue_depth": self.depth,
            "wheel_pending": len(self.wheel),
            "counters": dict(vars(self.counters)),
            "latency": {
                name: histogram.to_dict()
                for name, histogram in self.latency_histograms().items()
            },
        }
