"""End-to-end packet construction and the AP's port-extraction path."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.dot11.llc import ETHERTYPE_IPV4, LlcSnapHeader
from repro.errors import FrameDecodeError
from repro.net.ipv4 import IP_BROADCAST, IPPROTO_UDP, Ipv4Address, Ipv4Header
from repro.net.udp import UdpHeader, build_udp_datagram, parse_udp_datagram

_DEFAULT_SRC = Ipv4Address.from_string("192.168.1.23")


def build_broadcast_udp_packet(
    dst_port: int,
    payload: bytes,
    src_port: int = 49152,
    src_ip: Ipv4Address = _DEFAULT_SRC,
) -> bytes:
    """Build the IPv4 bytes of a limited-broadcast UDP datagram.

    This is what a service-discovery sender (printer, NAS, chromecast…)
    puts on the wire; the AP re-encapsulates it into an 802.11 broadcast
    data frame.
    """
    udp = build_udp_datagram(
        UdpHeader(src_port=src_port, dst_port=dst_port),
        payload,
        src_ip=src_ip,
        dst_ip=IP_BROADCAST,
    )
    header = Ipv4Header(source=src_ip, destination=IP_BROADCAST, ttl=1)
    return header.to_bytes(len(udp)) + udp


@lru_cache(maxsize=4096)
def zero_padded_broadcast_packet(dst_port: int, payload_bytes: int) -> bytes:
    """A limited-broadcast UDP packet carrying ``payload_bytes`` zero bytes.

    Trace replay stands a zero-filled payload in for each recorded
    frame's contents, so the packet depends only on ``(dst_port,
    payload_bytes)``. Packets are immutable ``bytes`` and a trace repeats
    few distinct keys (600 s of the default Classroom trace: 8,272 frames
    over 770 keys), so each one is built once and shared.
    """
    return build_broadcast_udp_packet(dst_port, bytes(payload_bytes))


def extract_udp_dst_port(ip_packet: bytes) -> Optional[int]:
    """Algorithm 1, line 3: pull the destination UDP port from IP bytes.

    Returns ``None`` for non-UDP packets (the HIDE policy only covers
    UDP-padded broadcast frames; anything else falls back to legacy
    handling). Raises :class:`FrameDecodeError` for malformed packets.
    """
    header, payload = Ipv4Header.from_bytes(ip_packet)
    if header.protocol != IPPROTO_UDP:
        return None
    udp_header, _ = parse_udp_datagram(
        payload, header.source, header.destination, verify_checksum=False
    )
    return udp_header.dst_port


def extract_udp_dst_port_from_dot11_body(llc_payload: bytes) -> Optional[int]:
    """Port extraction starting from an 802.11 data-frame body.

    Skips the LLC/SNAP header first; returns ``None`` for non-IPv4
    ethertypes.
    """
    snap, ip_packet = LlcSnapHeader.unwrap(llc_payload)
    if snap.ethertype != ETHERTYPE_IPV4:
        return None
    return extract_udp_dst_port(ip_packet)
