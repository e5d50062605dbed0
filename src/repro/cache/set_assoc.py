"""Generic set-associative cache with true-LRU replacement.

This is the substrate both the unified L2 and the instruction cache use
directly, and that the ICR data cache (:mod:`repro.core.icr_cache`) builds
on.  Addresses are byte addresses; a *block address* is ``addr >> log2(block
size)``.  The cache is indexed by ``block_addr % n_sets`` exactly like the
hardware it models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.cache.block import CacheBlock
from repro.cache.stats import CacheStats


def _log2_exact(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache array."""

    size_bytes: int
    associativity: int
    block_size: int

    def __post_init__(self) -> None:
        _log2_exact(self.block_size, "block size")
        _log2_exact(self.associativity, "associativity")
        if self.size_bytes % (self.block_size * self.associativity):
            raise ValueError("cache size must be a multiple of way size")
        _log2_exact(self.n_sets, "number of sets")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.block_size * self.associativity)

    @property
    def block_offset_bits(self) -> int:
        return _log2_exact(self.block_size, "block size")

    def block_addr(self, addr: int) -> int:
        return addr >> self.block_offset_bits

    def set_index(self, block_addr: int) -> int:
        return block_addr % self.n_sets

    def word_index(self, addr: int) -> int:
        """Index of the 64-bit word within the block that *addr* touches."""
        return (addr >> 3) % (self.block_size // 8)


@dataclass
class Eviction:
    """A line pushed out of the cache; dirty ones must be written back."""

    block_addr: int
    dirty: bool
    was_replica: bool = False


class SetAssociativeCache:
    """A write-back, write-allocate, true-LRU set-associative cache.

    The class exposes the primitive operations (probe / fill / evict /
    touch) so that subclasses and wrappers can implement richer policies;
    :meth:`access` implements the plain demand-access path used by L2 and
    the instruction cache.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        name: str = "cache",
        replacement: str = "lru",
    ):
        from repro.cache.replacement import make_replacement_policy

        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        self.sets: list[list[CacheBlock]] = [
            [CacheBlock(set_index, way) for way in range(geometry.associativity)]
            for set_index in range(geometry.n_sets)
        ]
        self.replacement = make_replacement_policy(
            replacement, geometry.associativity
        )
        self._lru_clock = 0
        # Optional callback invoked with each Eviction (hierarchies hook
        # this to route writebacks to the next level).
        self.on_evict: Optional[Callable[[Eviction], None]] = None
        # Hoisted geometry (n_sets is a power of two, so indexing is a mask).
        self._set_mask = geometry.n_sets - 1
        self._block_shift = geometry.block_offset_bits
        # O(1) tag lookup: block_addr -> resident *primary* block.  Updated
        # on fill/evict; probe() re-validates entries so code that mutates
        # blocks directly (checkpoint restore) only needs rebuild_tag_index.
        self._tag_index: dict[int, CacheBlock] = {}
        self._touch_tracked = self.replacement.tracks_touches

    # -- primitives --------------------------------------------------------

    def probe(self, block_addr: int) -> Optional[CacheBlock]:
        """Find the primary copy of *block_addr*, counting one tag probe."""
        self.stats.tag_probes += 1
        return self.peek(block_addr)

    def peek(self, block_addr: int) -> Optional[CacheBlock]:
        """Find the primary copy of *block_addr*, without side effects."""
        block = self._tag_index.get(block_addr)
        if (
            block is not None
            and block.valid
            and not block.is_replica
            and block.block_addr == block_addr
        ):
            return block
        return None

    def rebuild_tag_index(self) -> None:
        """Recompute the tag index from the arrays (after a bulk restore)."""
        self._tag_index = {
            block.block_addr: block
            for _, _, block in self.iter_valid_blocks()
            if not block.is_replica
        }

    def touch_lru(self, block: CacheBlock) -> None:
        """Record a use of *block* with the replacement policy."""
        self._lru_clock += 1
        block.lru_stamp = self._lru_clock
        if not self._touch_tracked:
            return
        if block.is_replica and block.set_index != (block.block_addr & self._set_mask):
            # ICR replicas live at distance-k from their home set; stateful
            # policies (PLRU) track primaries only.
            return
        self.replacement.on_touch(block.set_index, block.way)

    def lru_victim(self, set_index: int) -> CacheBlock:
        """The line normal placement would evict: invalid first, then the
        replacement policy's choice (true LRU by default).

        Matches the paper's primary-placement rule: "we simply use the
        normal LRU mechanism to pick a victim regardless of whether it is a
        dead, replica or another primary block".
        """
        ways = self.sets[set_index]
        return ways[self.replacement.victim_way(set_index, ways)]

    def evict(self, block: CacheBlock) -> Optional[Eviction]:
        """Invalidate *block*, reporting any writeback obligation.

        Returns the :class:`Eviction` record, or ``None`` when there is
        nothing to report: the block was already invalid, or it was clean
        and no :attr:`on_evict` hook is installed (the L2/iL1 hot loop —
        allocating a record nobody reads is wasted work).
        """
        if not block.valid:
            return None
        was_replica = block.is_replica
        block_addr = block.block_addr
        dirty = block.dirty and not was_replica
        if not was_replica and self._tag_index.get(block_addr) is block:
            del self._tag_index[block_addr]
        block.invalidate()
        if dirty:
            self.stats.writebacks += 1
        elif self.on_evict is None:
            return None
        eviction = Eviction(block_addr=block_addr, dirty=dirty, was_replica=was_replica)
        if self.on_evict is not None:
            self.on_evict(eviction)
        return eviction

    def iter_valid_blocks(self) -> Iterator[tuple[int, int, CacheBlock]]:
        """Yield ``(set_index, way, block)`` for every valid line."""
        for set_index, ways in enumerate(self.sets):
            for way, block in enumerate(ways):
                if block.valid:
                    yield set_index, way, block

    # -- demand path (plain caches: L2, iL1) -------------------------------

    def access(self, addr: int, is_write: bool, now: int) -> bool:
        """One demand access; returns ``True`` on hit.

        Misses allocate (write-allocate) and evict via LRU; the evicted
        line is reported through :attr:`on_evict`.  The hit path is
        written flat — indexed tag lookup, hoisted locals, inlined
        touch — because this is the L2/iL1 inner loop.
        """
        stats = self.stats
        block_addr = addr >> self._block_shift
        stats.tag_probes += 1
        block = self._tag_index.get(block_addr)
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        if (
            block is not None
            and block.valid
            and not block.is_replica
            and block.block_addr == block_addr
        ):
            if is_write:
                stats.store_hits += 1
                stats.array_writes += 1
                block.dirty = True
            else:
                stats.load_hits += 1
                stats.array_reads += 1
            if now > block.last_access_cycle:
                block.last_access_cycle = now
            self._lru_clock += 1
            block.lru_stamp = self._lru_clock
            if self._touch_tracked:
                self.replacement.on_touch(block.set_index, block.way)
            return True
        # Miss path.
        if is_write:
            stats.store_misses += 1
        else:
            stats.load_misses += 1
        set_index = block_addr & self._set_mask
        victim = self.lru_victim(set_index)
        self.evict(victim)
        victim.fill(block_addr, now, dirty=is_write)
        self._tag_index[block_addr] = victim
        stats.array_writes += 1
        self.touch_lru(victim)
        return False

    def contents_summary(self) -> dict[str, int]:
        """Census of line roles, used by tests and reports."""
        summary = {"valid": 0, "dirty": 0, "replicas": 0, "primaries": 0}
        for _, _, block in self.iter_valid_blocks():
            summary["valid"] += 1
            if block.dirty:
                summary["dirty"] += 1
            if block.is_replica:
                summary["replicas"] += 1
            else:
                summary["primaries"] += 1
        return summary
