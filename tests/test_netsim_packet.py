"""Packet record semantics."""

from repro.netsim.packet import Packet


class TestPacketBasics:
    def test_ids_are_unique_and_increasing(self):
        a = Packet("s", "d", 1500)
        b = Packet("s", "d", 1500)
        assert b.packet_id > a.packet_id

    def test_default_fields(self):
        p = Packet("s", "d", 1460)
        assert p.tag is None
        assert not p.is_ack
        assert p.payload_len == 0
        assert p.hops == 0
        assert p.protocol == "tcp"

    def test_size_is_int(self):
        p = Packet("s", "d", 1460.0)
        assert isinstance(p.size, int)

    def test_ack_packet_fields(self):
        p = Packet("d", "s", 60, is_ack=True, ack=4200, dack=8400)
        assert p.is_ack
        assert p.ack == 4200
        assert p.dack == 8400
        assert p.payload_len == 0

    def test_tag_carried(self):
        p = Packet("s", "d", 1460, tag=3, flow_id=7, subflow_id=2)
        assert (p.tag, p.flow_id, p.subflow_id) == (3, 7, 2)

    def test_repr_mentions_kind(self):
        data = Packet("s", "d", 1460, payload_len=1400)
        ack = Packet("d", "s", 60, is_ack=True)
        assert "DATA" in repr(data)
        assert "ACK" in repr(ack)
