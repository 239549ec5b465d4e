"""Packet capture (the tshark substitute): filtering and accounting."""

import pytest

from repro.netsim.capture import PacketCapture
from repro.netsim.packet import Packet


def data_packet(tag, subflow_id=0, size=1460, payload=1400, time=0.0, dsn=0, retx=False):
    return Packet(
        "s",
        "d",
        size,
        tag=tag,
        flow_id=1,
        subflow_id=subflow_id,
        payload_len=payload,
        dsn=dsn,
        is_retransmission=retx,
    ), time


def ack_packet(tag, time=0.0):
    return Packet("d", "s", 60, tag=tag, flow_id=1, is_ack=True), time


@pytest.fixture
def capture():
    cap = PacketCapture()
    for i in range(5):
        packet, t = data_packet(tag=1, subflow_id=0, time=0.1 * i)
        cap.on_packet(packet, t)
    for i in range(3):
        packet, t = data_packet(tag=2, subflow_id=1, time=0.1 * i)
        cap.on_packet(packet, t)
    packet, t = ack_packet(tag=1, time=0.25)
    cap.on_packet(packet, t)
    return cap


class TestCaptureFiltering:
    def test_total_record_count(self, capture):
        assert len(capture) == 9

    def test_filter_by_tag(self, capture):
        assert len(capture.filter(tag=1)) == 5
        assert len(capture.filter(tag=2)) == 3

    def test_filter_excludes_acks_by_default(self, capture):
        assert all(not r.is_ack for r in capture.filter(tag=1))

    def test_filter_can_include_acks(self, capture):
        assert len(capture.filter(tag=1, data_only=False)) == 6

    def test_filter_by_subflow(self, capture):
        assert len(capture.filter(subflow_id=1)) == 3

    def test_filter_by_flow(self, capture):
        assert len(capture.filter(flow_id=1)) == 8
        assert capture.filter(flow_id=2) == []

    def test_filter_with_predicate(self, capture):
        late = capture.filter(predicate=lambda r: r.time > 0.15)
        assert all(r.time > 0.15 for r in late)

    def test_tags_listing(self, capture):
        assert capture.tags() == [1, 2]


class TestCaptureAccounting:
    def test_clear(self, capture):
        capture.clear()
        assert len(capture) == 0
        assert capture.records == ()


class TestDataOnlyCapture:
    def test_data_only_capture_ignores_acks(self):
        cap = PacketCapture(data_only=True)
        packet, t = data_packet(tag=1)
        cap.on_packet(packet, t)
        ack, t = ack_packet(tag=1)
        cap.on_packet(ack, t)
        assert len(cap) == 1
        assert not cap.records[0].is_ack

    def test_retransmission_flag_preserved(self):
        cap = PacketCapture()
        packet, t = data_packet(tag=1, retx=True)
        cap.on_packet(packet, t)
        assert cap.records[0].is_retransmission


class TestRejectedPacketLeavesNoPartialRow:
    def test_negative_tag_is_refused_and_the_rows_stay_whole(self, capture):
        before = len(capture)
        bad, t = data_packet(tag=-3, time=0.3)
        with pytest.raises(ValueError, match="negative path tags"):
            capture.on_packet(bad, t)
        assert len(capture) == before and len(capture._rows) == before * 72
        good, t = data_packet(tag=2, subflow_id=1, time=0.4, dsn=77)
        capture.on_packet(good, t)
        assert len(capture) == before + 1 and len(capture._rows) % 72 == 0
        # The row reads back aligned through every view.
        assert capture.records[-1].time == 0.4 and capture.records[-1].dsn == 77
        assert len(capture.filter(tag=2)) == 4
        assert capture.columns(tag=2).time[-1] == 0.4

    def test_a_field_that_does_not_fit_a_row_is_refused_whole(self, capture):
        import struct

        before = bytes(capture._rows)
        packet, t = data_packet(tag=1, dsn=2**70)
        with pytest.raises(struct.error):
            capture.on_packet(packet, t)
        assert bytes(capture._rows) == before


class TestRowStorage:
    def test_one_storage_and_no_instance_dict(self, capture):
        assert not hasattr(capture, "__dict__")
        assert set(PacketCapture.__slots__) == {
            "name", "data_only", "flow_id", "_rows", "_record_cache"}
        assert type(capture._rows) is bytearray

    def test_records_are_python_scalars(self, capture):
        record = capture.records[0]
        assert type(record.time) is float and type(record.size) is int
        assert type(record.is_ack) is bool and record.tag == 1

    def test_untagged_packets_read_back_as_none(self):
        cap = PacketCapture()
        packet, t = data_packet(tag=None)
        cap.on_packet(packet, t)
        assert cap.records[0].tag is None and cap.tags() == []
        assert cap.columns().tag.tolist() == [-1]

    def test_columns_are_compacted_copies(self, capture):
        columns = capture.columns(data_only=False)
        assert all(
            getattr(columns, name).flags["C_CONTIGUOUS"] and getattr(columns, name).flags["OWNDATA"]
            for name in ("time", "size", "payload_len", "tag", "flow_id", "subflow_id", "flags",
                         "seq", "dsn")
        )
        packet, t = data_packet(tag=1, time=0.9)
        capture.on_packet(packet, t)  # no BufferError: nothing returned aliases the rows
        assert len(capture) == len(columns) + 1
