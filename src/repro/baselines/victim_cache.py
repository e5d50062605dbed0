"""Victim-cache baseline (Jouppi-style) for the Section 5.6 comparison.

When ICR leaves replicas in place after a primary eviction, a later miss
can be served from the replica in 2 cycles — "mak[ing] the cache appear
to have higher associativity sometimes [18]".  The classical way to buy
that effect is a dedicated fully-associative *victim cache* that captures
evicted lines.  This module implements it so the two can be compared:
how many dL1 misses does each structure catch, and at what area cost?

* The victim cache holds whole evicted lines (dirty state preserved).
* A dL1 miss probes it; a hit swaps the line back in 2 cycles (same cost
  we charge ICR's replica fills).
* ICR's "victim cache" is free — it lives in the dL1's dead space —
  but only holds lines that were replicated before eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.set_assoc import CacheGeometry
from repro.core.protocol import DL1Outcome
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.workloads.generator import trace_for
from repro.workloads.spec2000 import profile_for


@dataclass
class VictimCacheStats:
    insertions: int = 0
    probes: int = 0
    hits: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0


class VictimCache:
    """Small fully-associative buffer of recently evicted lines."""

    def __init__(self, entries: int = 16):
        if entries <= 0:
            raise ValueError("victim cache needs at least one entry")
        self.entries = entries
        self.stats = VictimCacheStats()
        self._lines: dict[int, tuple[int, bool]] = {}  # addr -> (stamp, dirty)
        self._clock = 0

    def insert(self, block_addr: int, dirty: bool) -> None:
        self._clock += 1
        if block_addr not in self._lines and len(self._lines) >= self.entries:
            victim = min(self._lines, key=lambda a: self._lines[a][0])
            del self._lines[victim]
            self.stats.evictions += 1
        self._lines[block_addr] = (self._clock, dirty)
        self.stats.insertions += 1

    def extract(self, block_addr: int) -> tuple[bool, bool]:
        """Probe for a line; returns (hit, dirty) and removes it on hit."""
        self.stats.probes += 1
        entry = self._lines.pop(block_addr, None)
        if entry is None:
            return False, False
        self.stats.hits += 1
        return True, entry[1]


class VictimCacheDL1:
    """A plain parity dL1 with a victim cache bolted onto its miss path.

    Implements the hierarchy's DataL1 protocol so the full Table 1
    machine — and therefore :class:`~repro.harness.spec.ExperimentSpec`,
    the sweeps and the fault-injection campaigns — can drive the Jouppi
    baseline like any other scheme (registered as ``victim-cache``).

    Metric mapping onto the standard ``SimulationResult`` fields: a dL1
    miss served by a victim-cache swap-back bumps ``replica_fills``,
    the same counter ICR's Section 5.6 leftover-replica fills use (both
    cost the same 2 cycles).

    Fault injection, scrubbing and vulnerability monitoring attach to
    the inner parity dL1 (``injection_target``); the victim cache
    itself is modeled error-free, so a swapped-back line returns with
    golden contents.
    """

    def __init__(
        self,
        entries: int = 16,
        *,
        geometry: Optional[CacheGeometry] = None,
        track_data: bool = False,
    ):
        from repro.core.config import variant
        from repro.core.icr_cache import ICRCache
        from repro.core.schemes import make_config

        inner_config = make_config(
            "BaseP", geometry=geometry, track_data=track_data
        )
        self._dl1 = ICRCache(inner_config)
        self.config = variant(inner_config, name="victim-cache")
        self.victim_cache = VictimCache(entries)
        self.geometry = self._dl1.geometry
        self.stats = self._dl1.stats
        self.write_policy = "writeback"
        self.injection_target = self._dl1
        self._dl1.set_evict_hook(self._on_evict)
        self._outer_hook = None
        self._swap_fill = False

    def set_evict_hook(self, hook) -> None:
        self._outer_hook = hook

    def _on_evict(self, eviction) -> None:
        if self._swap_fill:
            # The line displaced by a victim-cache swap-back also goes to
            # the victim cache, like a real swap.
            self.victim_cache.insert(eviction.block_addr, eviction.dirty)
            return
        self.victim_cache.insert(eviction.block_addr, eviction.dirty)

    def access(self, addr: int, is_write: bool, now: int):
        outcome = self._dl1.access(addr, is_write, now)
        if outcome.hit or outcome.latency is not None:
            return outcome
        block_addr = self.geometry.block_addr(addr)
        hit, dirty = self.victim_cache.extract(block_addr)
        if not hit:
            return outcome
        # Swap the line back into the dL1: re-access to allocate, restore
        # its dirty state, and charge the 2-cycle victim-cache latency.
        self._swap_fill = True
        self._dl1.access(addr, is_write, now)
        self._swap_fill = False
        block = self._dl1.probe(block_addr)
        if block is not None and dirty:
            block.dirty = True
        self.stats.replica_fills += 1
        return DL1Outcome(hit=False, latency=2, replica_fill=True)


#: Backwards-compatible private alias (pre-registry name).
_VictimCacheDL1 = VictimCacheDL1


@dataclass
class VictimCacheResult:
    benchmark: str
    entries: int
    cycles: int
    miss_rate: float
    victim_hits: int
    victim_hit_rate: float


def run_victim_cache_baseline(
    benchmark,
    *,
    entries: int = 16,
    n_instructions: int = 100_000,
) -> VictimCacheResult:
    """BaseP + victim cache on the Table 1 machine."""
    profile = profile_for(benchmark) if isinstance(benchmark, str) else benchmark
    dl1 = VictimCacheDL1(entries)
    hierarchy = MemoryHierarchy(dl1, HierarchyConfig())
    pipeline = OutOfOrderPipeline(hierarchy)
    result = pipeline.run(trace_for(profile, n_instructions))
    return VictimCacheResult(
        benchmark=profile.name,
        entries=entries,
        cycles=result.cycles,
        miss_rate=dl1.stats.miss_rate,
        victim_hits=dl1.victim_cache.stats.hits,
        victim_hit_rate=dl1.victim_cache.stats.hit_rate,
    )
