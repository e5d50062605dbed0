"""The two-level cache/memory hierarchy of Table 1.

Wires together a data L1 (plain or ICR-enabled), an instruction L1, a
unified write-back L2 and a flat-latency memory.  The hierarchy is the
single entry point the CPU timing model talks to: it returns a latency for
every reference and routes all inter-level traffic (fills, writebacks,
write-through store traffic) so that the energy model can price it later.

Latency model (paper Table 1 and Section 3.2):

* dL1 load hit — 1 or 2 cycles depending on the scheme's verification path;
* dL1 store — 1 cycle to the pipeline (writes are buffered), plus
  write-buffer stalls in write-through mode;
* dL1 miss — L2 latency (6 cycles), plus memory latency (100) on L2 miss;
* primary miss served from a leftover replica (Section 5.6) — 2 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.set_assoc import CacheGeometry, Eviction, SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cache.write_buffer import CoalescingWriteBuffer

# The dL1 plugin protocol lives in repro.core.protocol (the documented
# surface external scheme packages implement).
from repro.core.protocol import DataL1


@dataclass(frozen=True)
class HierarchyConfig:
    """Latency/geometry knobs; defaults are the paper's Table 1."""

    l1i_geometry: CacheGeometry = CacheGeometry(16 * 1024, 1, 32)
    l2_geometry: CacheGeometry = CacheGeometry(256 * 1024, 4, 64)
    l1i_latency: int = 1
    l2_latency: int = 6
    memory_latency: int = 100
    store_latency: int = 1  # stores are buffered
    write_buffer_entries: int = 8
    model_icache: bool = True
    # Parity-protect the iL1 with bit-accurate storage, enabling fault
    # injection into instructions.  The paper's Section 1 observes that
    # "detection may suffice for instruction caches which are mainly
    # read-only": every iL1 parity error is recoverable by refetch.
    protected_icache: bool = False


class MemoryHierarchy:
    """dL1 + iL1 + unified L2 + memory, with all traffic accounted."""

    def __init__(self, dl1: DataL1, config: HierarchyConfig | None = None):
        self.config = config or HierarchyConfig()
        self.dl1 = dl1
        if self.config.protected_icache:
            # A parity dL1-style cache with bit-accurate words serves as
            # the protected iL1 (it is only ever read through fetch()).
            from repro.core.icr_cache import ICRCache as _ICRCache
            from repro.core.schemes import make_config as _make_config

            self.l1i = _ICRCache(
                _make_config(
                    "BaseP",
                    geometry=self.config.l1i_geometry,
                    track_data=True,
                )
            )
            self.l1i.error_refetch_latency = self.config.l2_latency
        else:
            self.l1i = SetAssociativeCache(self.config.l1i_geometry, name="l1i")
        self.l2 = SetAssociativeCache(self.config.l2_geometry, name="l2")
        self.stats = HierarchyStats(l1d=dl1.stats, l1i=self.l1i.stats, l2=self.l2.stats)
        self.write_buffer = CoalescingWriteBuffer(
            entries=self.config.write_buffer_entries,
            drain_cycles=self.config.l2_latency,
        )
        self._last_fetch_block = -1
        self._now = 0
        dl1.set_evict_hook(self._dl1_evicted)
        self.l2.on_evict = self._l2_evicted
        # Hoisted constants for the per-instruction fetch/load/store paths.
        self._fetch_shift = self.l1i.geometry.block_offset_bits
        self._l1i_latency = self.config.l1i_latency
        self._model_icache = self.config.model_icache
        self._dl1_block_shift = self.dl1.geometry.block_offset_bits

    # -- inter-level traffic ------------------------------------------------

    def _dl1_evicted(self, eviction: Eviction) -> None:
        """Dirty dL1 victims are written back into L2."""
        if eviction.dirty:
            block_byte_addr = eviction.block_addr << self._dl1_block_shift
            hit = self.l2.access(block_byte_addr, True, self._now)
            if not hit:
                self.stats.memory_accesses += 1

    def _l2_evicted(self, eviction: Eviction) -> None:
        """Dirty L2 victims go to memory."""
        if eviction.dirty:
            self.stats.memory_accesses += 1

    def _l2_fetch(self, addr: int, now: int) -> int:
        """Fetch a line from L2 (for an L1 miss); returns the latency."""
        hit = self.l2.access(addr, False, now)
        if hit:
            return self.config.l2_latency
        self.stats.memory_accesses += 1
        return self.config.l2_latency + self.config.memory_latency

    # -- demand interface used by the CPU model -----------------------------

    def load(self, addr: int, now: int) -> int:
        """A data load at cycle *now*; returns its latency in cycles."""
        self._now = now
        outcome = self.dl1.access(addr, False, now)
        if outcome.latency is not None:
            return outcome.latency
        return self._l2_fetch(addr, now)

    def store(self, addr: int, now: int) -> int:
        """A data store at cycle *now*; returns pipeline-visible latency.

        With a write-back dL1 the store always costs ``store_latency``
        (misses fetch the line for allocation off the critical path, which
        we still account in L2 traffic).  With a write-through dL1 the
        store additionally goes to L2 through the coalescing write buffer
        and stalls when the buffer is full.
        """
        self._now = now
        outcome = self.dl1.access(addr, True, now)
        latency = self.config.store_latency
        if outcome.latency is None:
            # Write-allocate: bring the line in (off the critical path).
            self._l2_fetch(addr, now)
        if self.dl1.write_policy == "writethrough":
            block_addr = addr >> self._dl1_block_shift
            stall = self.write_buffer.push(block_addr, now)
            self.stats.write_buffer_stall_cycles += stall
            self.l2.stats.stores += 1
            self.l2.stats.array_writes += 1
            latency += stall
        return latency

    def fetch(self, pc: int, now: int) -> int:
        """An instruction fetch; charged once per new 32-byte fetch block."""
        latency = self._l1i_latency
        if not self._model_icache:
            return latency
        block = pc >> self._fetch_shift
        if block == self._last_fetch_block:
            return latency
        self._last_fetch_block = block
        outcome = self.l1i.access(pc, False, now)
        if outcome is True:  # plain iL1 hit
            return latency
        if outcome is False:  # plain iL1 miss
            return latency + self._l2_fetch(pc, now)
        # Protected iL1 (DL1Outcome): hit latency includes any parity
        # recovery; a miss goes to L2.
        if outcome.latency is not None:
            return latency + outcome.latency - 1
        return latency + self._l2_fetch(pc, now)
