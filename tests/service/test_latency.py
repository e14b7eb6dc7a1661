"""Service-side latency ledger: shard histograms, loadgen RTT, export.

The shard's queue-wait / drain-batch / ACK-latency histograms and the
loadgen's per-status RTT share one HDR geometry (1 µs to 60 s, in ms),
so the server's ``/metrics`` export and the loadgen's ``repro-loadgen/
v1`` document are directly diffable end to end.
"""

import asyncio

from repro.service import (
    LoadgenConfig,
    PortService,
    ServiceConfig,
    run_loadgen_async,
    wire,
)
from repro.service.loadgen import LoadgenReport, render_report
from repro.service.shard import PortShard

ADDR = ("127.0.0.1", 40000)


def _report():
    return LoadgenReport(config=LoadgenConfig(port=1))


def _offer_report(shard, aid, at=None, want_ack=False, seq=1):
    mac = bytes([0x02, 0x00]) + aid.to_bytes(4, "big")
    shard.offer(
        wire.encode_port_report(0, aid, mac, seq, {137}, want_ack),
        ADDR,
        at=at,
    )


class TestShardHistograms:
    def test_drain_records_queue_wait_from_ingress_stamp(self):
        shard = PortShard(0)
        _offer_report(shard, 1, at=1.0)
        _offer_report(shard, 2, at=1.25)
        shard.drain(1.5)
        waits = shard.queue_wait_ms
        assert waits.count == 2
        assert waits.min == 250.0  # (1.5 - 1.25) s in ms
        assert waits.max == 500.0
        assert shard.drain_batch_ms.count == 1

    def test_ack_latency_recorded_only_for_ack_worthy_messages(self):
        shard = PortShard(0)
        _offer_report(shard, 1, at=0.0, want_ack=True)
        _offer_report(shard, 2, at=0.0, want_ack=False)
        acks = []
        shard.drain(0.010, ack_sink=lambda payload, addr: acks.append(payload))
        assert len(acks) == 1
        assert shard.ack_latency_ms.count == 1
        # Queue wait plus the (tiny, host-measured) drain cost.
        assert shard.ack_latency_ms.min >= 10.0

    def test_unstamped_ingress_skips_latency(self):
        shard = PortShard(0)
        _offer_report(shard, 1)  # no `at`: pre-instrumentation call shape
        shard.drain(5.0)
        assert shard.queue_wait_ms.count == 0
        assert shard.counters.reports == 1

    def test_empty_drain_records_no_batch(self):
        shard = PortShard(0)
        shard.drain(0.0)
        assert shard.drain_batch_ms.count == 0

    def test_snapshot_carries_latency_section(self):
        shard = PortShard(3)
        _offer_report(shard, 1, at=0.0)
        shard.drain(0.001)
        snap = shard.snapshot()
        assert set(snap["latency"]) == {
            "queue_wait_ms",
            "drain_batch_ms",
            "ack_latency_ms",
        }
        assert snap["latency"]["queue_wait_ms"]["count"] == 1


class TestLoadgenReport:
    def test_rtt_recorded_per_status_and_merged(self):
        report = _report()
        report.record_rtt(0, 1.5)
        report.record_rtt(0, 2.5)
        report.record_rtt(2, 40.0)
        merged = report.merged_rtt()
        assert merged.count == 3
        assert merged.min == 1.5
        assert merged.max == 40.0
        assert report.rtt_ms_by_status[0].count == 2

    def test_empty_report_merges_to_ms_geometry(self):
        merged = _report().merged_rtt()
        assert merged.count == 0
        assert merged.max_value == 6e4  # ms geometry, not the default

    def test_document_latency_section(self):
        report = _report()
        report.sent_total = 1
        report.record_rtt(0, 3.0)
        document = report.to_document()
        assert document["achieved"]["acks_unmatched"] == 0
        latency = document["latency"]
        assert latency["rtt_ms"]["count"] == 1
        assert "0" in latency["rtt_ms_by_status"]

    def test_render_mentions_rtt(self):
        report = _report()
        report.acks_received = 1
        report.acks_by_status = {0: 1}
        report.record_rtt(0, 3.0)
        text = render_report(report)
        assert "rtt" in text
        assert "p99" in text


class TestEndToEndLatency:
    def test_live_service_populates_rtt_and_export(self):
        async def scenario():
            service = PortService(ServiceConfig(port=0, shards=2))
            await service.start()
            report = await run_loadgen_async(
                LoadgenConfig(
                    port=service.server_port,
                    clients=50,
                    rate=2000,
                    duration_s=0.8,
                    workers=2,
                    ack_every=4,
                )
            )
            await asyncio.sleep(0.2)
            service.collect_into_registry()
            registry = service.registry
            merged = service.merged_latency()
            await service.stop()
            return report, registry, merged

        report, registry, merged = asyncio.run(scenario())
        rtt = report.merged_rtt()
        assert rtt.count > 0
        assert rtt.count == report.acks_received - report.acks_unmatched
        assert merged["queue_wait_ms"].count == report.sent_total
        assert merged["ack_latency_ms"].count > 0
        series = registry.get("service_ack_latency_ms")
        assert series is not None and series.kind == "summary"
        assert series.count == merged["ack_latency_ms"].count > 0
        assert series.quantile(0.99) == merged["ack_latency_ms"].quantile(0.99) > 0.0
