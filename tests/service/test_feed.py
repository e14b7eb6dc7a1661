"""Broadcast-frame feed: DTIM batching, cycling, determinism."""

import pytest

from repro.ap.flags import compute_broadcast_flags
from repro.ap.port_table import ClientUdpPortTable
from repro.errors import ConfigurationError
from repro.service.feed import BroadcastFrameFeed
from repro.traces import generate_trace
from repro.traces.generators import FRAME_OVERHEAD_BYTES
from tests.conftest import make_trace


def test_batches_follow_trace_density():
    feed = BroadcastFrameFeed.from_scenario("Classroom", 0.1024, seed=3)
    sizes = [len(feed.next_batch()) for _ in range(500)]
    assert sum(sizes) > 0
    # A bursty MMPP trace must produce both empty and non-empty DTIMs.
    assert any(size == 0 for size in sizes)
    assert any(size > 0 for size in sizes)
    assert feed.batches_served == 500
    assert feed.frames_served == sum(sizes)


def test_feed_cycles_forever():
    feed = BroadcastFrameFeed.from_scenario(
        "Starbucks", 0.1024, seed=1, max_pool=50
    )
    # Far more batches than the pool spans: the feed must wrap, and
    # every pooled frame must be served again on each full cycle.
    total = sum(len(feed.next_batch()) for _ in range(100_000))
    assert total > len(feed)


def test_deterministic_for_same_seed():
    a = BroadcastFrameFeed.from_scenario("WML", 0.1024, seed=9, max_pool=200)
    b = BroadcastFrameFeed.from_scenario("WML", 0.1024, seed=9, max_pool=200)
    for _ in range(300):
        assert len(a.next_batch()) == len(b.next_batch())


def test_frames_run_algorithm1():
    """The pre-built frames must survive the genuine byte-parsing path."""
    feed = BroadcastFrameFeed.from_scenario("Classroom", 0.1024, seed=3)
    table = ClientUdpPortTable()
    # Open every well-known port so any frame in the batch matches.
    from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES

    table.update_client(1, set(WELL_KNOWN_BROADCAST_SERVICES))
    flagged = 0
    for _ in range(200):
        frames = feed.next_batch()
        flagged += len(compute_broadcast_flags(frames, table))
        if flagged:
            break
    assert flagged > 0


def test_bad_dtim_rejected():
    with pytest.raises(ConfigurationError):
        BroadcastFrameFeed.from_scenario("Classroom", 0.0)



def _first_cycle(feed):
    frames = []
    while feed.frames_served < len(feed):
        frames.extend(feed.next_batch())
    return frames


def test_fed_frame_length_matches_its_record():
    """Fed frames are as long on the air as the records they replay."""
    trace = generate_trace("WML", seed=5)
    feed = BroadcastFrameFeed(trace, 0.1024, max_pool=300)
    frames = _first_cycle(feed)
    assert len(frames) == len(feed) == 300
    for record, frame in zip(trace.records, frames):
        assert frame.length_bytes == record.length_bytes
        assert frame.udp_dst_port() == record.udp_port


def test_fed_frame_payload_is_capped():
    trace = make_trace([0.5, 0.6], length=3000)
    (frame,) = _first_cycle(BroadcastFrameFeed(trace, 0.1024, max_pool=1))
    assert frame.length_bytes == FRAME_OVERHEAD_BYTES + 1400
