"""Coalescing write buffer between a write-through L1 and the L2.

Used by the paper's Section 5.8 comparison: a write-through dL1 (as in the
IBM POWER4) sends every store to L2 through an 8-entry coalescing write
buffer.  Stores stall the pipeline only when the buffer is full; stores to a
block already buffered coalesce into the existing entry.

The drain model is a single port to L2: entries retire one at a time, each
occupying the L2 port for ``drain_cycles``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class WriteBufferStats:
    enqueues: int = 0
    coalesced: int = 0
    drains: int = 0
    stall_cycles: int = 0
    full_stalls: int = 0


@dataclass
class CoalescingWriteBuffer:
    """An N-entry coalescing store buffer draining to L2."""

    entries: int = 8
    drain_cycles: int = 6
    stats: WriteBufferStats = field(default_factory=WriteBufferStats)

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("write buffer needs at least one entry")
        if self.drain_cycles < 0:
            raise ValueError("write buffer drain time cannot be negative")
        # (drain_done, block_addr) per entry, oldest first.  The single L2
        # port serializes drains, so drain_done never decreases along the
        # queue: the front is the oldest entry and expiry pops from it.
        self._queue: deque[tuple[int, int]] = deque()
        self._buffered: set[int] = set()  # block addresses in the queue
        self._port_free = 0  # cycle at which the L2 port is next free

    def _expire(self, now: int) -> None:
        """Drop entries that have finished draining by *now*."""
        queue = self._queue
        while queue and queue[0][0] <= now:
            self._buffered.discard(queue.popleft()[1])

    def occupancy(self, now: int) -> int:
        self._expire(now)
        return len(self._queue)

    def push(self, block_addr: int, now: int) -> int:
        """Buffer a store to *block_addr* at cycle *now*.

        Returns the number of cycles the store had to stall (0 in the
        common case).  Coalescing hits do not allocate and never stall.
        """
        self._expire(now)
        if block_addr in self._buffered:
            self.stats.coalesced += 1
            return 0
        stall = 0
        if len(self._queue) >= self.entries:
            # Stall until the oldest entry finishes draining.
            stall = max(0, self._queue[0][0] - now)
            self.stats.full_stalls += 1
            self.stats.stall_cycles += stall
            now += stall
            self._expire(now)
        # Serialize on the L2 port.
        start = max(now, self._port_free)
        done = start + self.drain_cycles
        self._port_free = done
        self._queue.append((done, block_addr))
        self._buffered.add(block_addr)
        self.stats.enqueues += 1
        self.stats.drains += 1
        return stall
