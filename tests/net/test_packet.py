import pytest

from repro.dot11.llc import ETHERTYPE_ARP, LlcSnapHeader
from repro.errors import FrameDecodeError
from repro.net.ipv4 import Ipv4Address, Ipv4Header, IPPROTO_TCP, IP_BROADCAST
from repro.net.packet import (
    build_broadcast_udp_packet,
    extract_udp_dst_port,
    extract_udp_dst_port_from_dot11_body,
    zero_padded_broadcast_packet,
)
from repro.net.ports import (
    WELL_KNOWN_BROADCAST_SERVICES,
    ServicePort,
    service_for_port,
)


class TestBroadcastPacket:
    def test_port_extraction(self):
        packet = build_broadcast_udp_packet(1900, b"ssdp alive")
        assert extract_udp_dst_port(packet) == 1900

    def test_destination_is_limited_broadcast(self):
        packet = build_broadcast_udp_packet(137, b"x")
        header, _ = Ipv4Header.from_bytes(packet)
        assert header.destination == IP_BROADCAST

    def test_ttl_one(self):
        packet = build_broadcast_udp_packet(137, b"x")
        header, _ = Ipv4Header.from_bytes(packet)
        assert header.ttl == 1

    def test_zero_padded_packet_matches_builder(self):
        for port, size in ((137, 1), (1900, 246), (5353, 1400)):
            assert zero_padded_broadcast_packet(port, size) == (
                build_broadcast_udp_packet(port, b"\x00" * size)
            )

    def test_zero_padded_packet_is_shared_per_key(self):
        first = zero_padded_broadcast_packet(17500, 77)
        assert zero_padded_broadcast_packet(17500, 77) is first
        assert zero_padded_broadcast_packet(17500, 78) is not first
        assert extract_udp_dst_port(first) == 17500

    def test_non_udp_returns_none(self):
        header = Ipv4Header(
            source=Ipv4Address.from_string("10.0.0.1"),
            destination=IP_BROADCAST,
            protocol=IPPROTO_TCP,
        )
        packet = header.to_bytes(4) + b"\x00" * 4
        assert extract_udp_dst_port(packet) is None

    def test_malformed_raises(self):
        with pytest.raises(FrameDecodeError):
            extract_udp_dst_port(b"\x00" * 30)

    def test_from_dot11_body(self):
        packet = build_broadcast_udp_packet(5353, b"q")
        body = LlcSnapHeader.wrap(0x0800, packet)
        assert extract_udp_dst_port_from_dot11_body(body) == 5353

    def test_from_dot11_body_non_ip(self):
        body = LlcSnapHeader.wrap(ETHERTYPE_ARP, b"\x00" * 28)
        assert extract_udp_dst_port_from_dot11_body(body) is None

    def test_with_ip_options_still_parses(self):
        # An IHL > 5 packet: the parser must honour the IHL, not assume 20.
        src = Ipv4Address.from_string("10.1.1.1")
        from repro.net.udp import UdpHeader, build_udp_datagram

        udp = build_udp_datagram(UdpHeader(1111, 67), b"dhcp", src, IP_BROADCAST)
        header = Ipv4Header(
            source=src, destination=IP_BROADCAST, options=b"\x01\x01\x01\x01"
        )
        packet = header.to_bytes(len(udp)) + udp
        assert extract_udp_dst_port(packet) == 67


class TestServiceRegistry:
    def test_well_known_ports_present(self):
        for port in (137, 138, 1900, 5353, 67, 68, 17500):
            assert service_for_port(port) is not None

    def test_unknown_port(self):
        assert service_for_port(9999) is None

    def test_registry_keyed_consistently(self):
        for port, service in WELL_KNOWN_BROADCAST_SERVICES.items():
            assert service.port == port

    def test_service_validation(self):
        with pytest.raises(ValueError):
            ServicePort(0, "bad", 10, 1.0)
        with pytest.raises(ValueError):
            ServicePort(53, "bad", 0, 1.0)
        with pytest.raises(ValueError):
            ServicePort(53, "bad", 10, 0.0)
