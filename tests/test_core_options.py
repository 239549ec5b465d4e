"""DSN allocation and connection-level reassembly."""


from repro.core.options import DsnAllocator, DsnReassembler


class TestDsnAllocator:
    def test_unbounded_allocation_is_contiguous(self):
        alloc = DsnAllocator()
        assert alloc.allocate(1400) == (0, 1400)
        assert alloc.allocate(1400) == (1400, 1400)
        assert alloc.next_dsn == 2800

    def test_finite_transfer_truncates_last_grant(self):
        alloc = DsnAllocator(total_bytes=2000)
        assert alloc.allocate(1400) == (0, 1400)
        assert alloc.allocate(1400) == (1400, 600)
        assert alloc.allocate(1400) is None

    def test_send_buffer_limits_outstanding_data(self):
        alloc = DsnAllocator(send_buffer_bytes=2000)
        assert alloc.allocate(1400) == (0, 1400)
        assert alloc.allocate(1400) == (1400, 600)
        assert alloc.allocate(1400) is None
        alloc.acked_bytes += 1400
        assert alloc.allocate(1400) == (2000, 1400)


class TestDsnReassembler:
    def test_in_order_delivery_advances_data_ack(self):
        reasm = DsnReassembler()
        assert reasm.deliver(0, 1400, now=0.1) == 1400
        assert reasm.deliver(1400, 1400, now=0.2) == 2800
        assert reasm.delivered_bytes == 2800

    def test_out_of_order_held_until_hole_fills(self):
        reasm = DsnReassembler()
        assert reasm.deliver(1400, 1400, now=0.1) == 0
        assert reasm.out_of_order_bytes == 1400
        assert reasm.deliver(0, 1400, now=0.2) == 2800
        assert reasm.out_of_order_bytes == 0

    def test_interleaved_subflow_delivery(self):
        reasm = DsnReassembler()
        # Subflow A delivers even chunks, subflow B odd chunks, out of order.
        reasm.deliver(2800, 1400, now=0.1)
        reasm.deliver(0, 1400, now=0.2)
        reasm.deliver(4200, 1400, now=0.3)
        reasm.deliver(1400, 1400, now=0.4)
        assert reasm.data_ack == 5600

    def test_duplicates_not_counted_twice(self):
        reasm = DsnReassembler()
        reasm.deliver(0, 1400, now=0.1)
        reasm.deliver(0, 1400, now=0.2)
        assert reasm.delivered_bytes == 1400
        assert reasm.duplicate_bytes == 1400

    def test_duplicate_of_pending_range_ignored(self):
        reasm = DsnReassembler()
        reasm.deliver(1400, 1400, now=0.1)
        reasm.deliver(1400, 1400, now=0.2)
        reasm.deliver(0, 1400, now=0.3)
        assert reasm.data_ack == 2800
        assert reasm.duplicate_bytes == 1400

    def test_partial_overlap_counts_only_new_bytes(self):
        reasm = DsnReassembler()
        reasm.deliver(0, 1400, now=0.1)
        # Range [700, 2100): the first 700 bytes are already delivered.
        reasm.deliver(700, 1400, now=0.2)
        assert reasm.data_ack == 2100
        assert reasm.duplicate_bytes == 700

    def test_goodput_records_are_monotone(self):
        reasm = DsnReassembler()
        progress = []
        for dsn, now in ((1400, 0.1), (0, 0.2), (2800, 0.3)):
            reasm.deliver(dsn, 1400, now=now)
            progress.append((reasm.data_ack, reasm.delivered_bytes))
        assert progress == sorted(progress)
        assert progress[-1] == (4200, 4200)

    def test_zero_length_delivery_is_noop(self):
        reasm = DsnReassembler()
        assert reasm.deliver(0, 0, now=0.1) == 0
        assert reasm.delivered_bytes == 0
