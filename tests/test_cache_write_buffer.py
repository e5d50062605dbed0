"""Tests for the coalescing write buffer (Section 5.8 substrate)."""

import dataclasses
import random

import pytest

from repro.cache.write_buffer import CoalescingWriteBuffer


@pytest.fixture
def wb():
    return CoalescingWriteBuffer(entries=4, drain_cycles=6)


class TestBasicOperation:
    def test_push_into_empty_buffer_never_stalls(self, wb):
        assert wb.push(1, now=0) == 0

    def test_occupancy_counts_undrained_entries(self, wb):
        wb.push(1, 0)
        wb.push(2, 0)
        assert wb.occupancy(0) == 2

    def test_entries_drain_over_time(self, wb):
        wb.push(1, 0)
        assert wb.occupancy(5) == 1
        assert wb.occupancy(6) == 0

    def test_drain_serializes_on_port(self, wb):
        # Two entries pushed together: second finishes at 12, not 6.
        wb.push(1, 0)
        wb.push(2, 0)
        assert wb.occupancy(6) == 1
        assert wb.occupancy(12) == 0


class TestCoalescing:
    def test_same_block_coalesces(self, wb):
        wb.push(7, 0)
        stall = wb.push(7, 1)
        assert stall == 0
        assert wb.stats.coalesced == 1
        assert wb.occupancy(1) == 1

    def test_coalesced_stores_do_not_allocate(self, wb):
        for _ in range(10):
            wb.push(7, 0)
        assert wb.occupancy(0) == 1
        assert wb.stats.enqueues == 1


class TestFullBufferStalls:
    def test_full_buffer_stalls_until_oldest_drains(self, wb):
        for block in range(4):
            wb.push(block, 0)
        stall = wb.push(99, 0)
        # Oldest entry drains at cycle 6.
        assert stall == 6
        assert wb.stats.full_stalls == 1
        assert wb.stats.stall_cycles == 6

    def test_no_stall_when_pushed_after_drain(self, wb):
        for block in range(4):
            wb.push(block, 0)
        assert wb.push(99, now=30) == 0

    def test_burst_stall_accumulates(self):
        wb = CoalescingWriteBuffer(entries=2, drain_cycles=10)
        stalls = [wb.push(i, 0) for i in range(6)]
        assert stalls[0] == 0 and stalls[1] == 0
        assert all(s > 0 for s in stalls[2:])
        # Later pushes wait longer (the port serializes at 10 cycles each).
        assert stalls[3] >= stalls[2]


class TestValidation:
    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            CoalescingWriteBuffer(entries=0)

    def test_negative_drain_time_rejected(self):
        with pytest.raises(ValueError):
            CoalescingWriteBuffer(drain_cycles=-1)


class _ScanningBuffer:
    """The buffer as an unordered list: expiry filters it, the oldest
    entry is the minimum drain time, coalescing scans every entry."""

    def __init__(self, entries, drain_cycles):
        self.entries = entries
        self.drain_cycles = drain_cycles
        self.queue = []  # [block_addr, drain_done]
        self.port_free = 0
        self.stall_cycles = self.full_stalls = self.coalesced = 0

    def occupancy(self, now):
        self.queue = [e for e in self.queue if e[1] > now]
        return len(self.queue)

    def push(self, block_addr, now):
        self.queue = [e for e in self.queue if e[1] > now]
        if any(e[0] == block_addr for e in self.queue):
            self.coalesced += 1
            return 0
        stall = 0
        if len(self.queue) >= self.entries:
            stall = max(0, min(e[1] for e in self.queue) - now)
            self.full_stalls += 1
            self.stall_cycles += stall
            now += stall
            self.queue = [e for e in self.queue if e[1] > now]
        done = max(now, self.port_free) + self.drain_cycles
        self.port_free = done
        self.queue.append([block_addr, done])
        return stall


@pytest.mark.parametrize("drain_cycles", [0, 1, 6, 25])
@pytest.mark.parametrize("seed", range(4))
def test_fifo_matches_a_scanning_buffer(seed, drain_cycles):
    """Drains finish in queue order, so the FIFO keeps every stall and count."""
    rng = random.Random(seed)
    wb = CoalescingWriteBuffer(entries=rng.choice([1, 2, 8]), drain_cycles=drain_cycles)
    reference = _ScanningBuffer(wb.entries, drain_cycles)
    now = 0
    for _ in range(3_000):
        # Issue cycles of stores are not monotonic in program order.
        now = max(0, now + rng.randrange(-3, 6))
        block = rng.randrange(12)
        assert wb.push(block, now) == reference.push(block, now)
        if rng.random() < 0.1:
            assert wb.occupancy(now) == reference.occupancy(now)
    assert dataclasses.astuple(wb.stats)[1:] == (
        reference.coalesced,
        wb.stats.enqueues,
        reference.stall_cycles,
        reference.full_stalls,
    )
    assert reference.full_stalls > 0 and reference.coalesced > 0
