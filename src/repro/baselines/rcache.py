"""R-Cache baseline: a dedicated small replication cache (Kim & Somani).

The paper's introduction contrasts ICR with the area-efficient integrity
architecture of Kim & Somani [ISCA 1999], which adds a *separate* small
cache that "duplicate[s] recently used data" next to the dL1: stores
write a second copy into the side cache, and a load whose parity check
fails recovers from there.  ICR's claim is that the same duplicate
coverage can be had for free inside the dL1's dead space — "we do not
need a separate cache for achieving this compared to that needed by
[11]" (Section 5.2).

This module implements the comparator so the claim can be measured: a
fully-associative, LRU, write-allocating duplicate store of configurable
size attached to a plain parity dL1.  Metrics mirror ICR's:

* ``loads_with_duplicate``  — fraction of dL1 read hits whose word had a
  live copy in the R-Cache (the analogue of loads-with-replica);
* extra energy — every covered store writes the side cache too, and the
  array adds its own leakage/area that ICR avoids.

See ``benchmarks/bench_comparison_rcache.py`` for the head-to-head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.set_assoc import CacheGeometry


@dataclass
class RCacheStats:
    store_insertions: int = 0
    store_updates: int = 0
    lookups: int = 0
    duplicate_hits: int = 0
    evictions: int = 0

    @property
    def duplicate_hit_rate(self) -> float:
        return self.duplicate_hits / self.lookups if self.lookups else 0.0


class RCache:
    """Fully-associative duplicate store, LRU-replaced, block granularity."""

    def __init__(self, size_bytes: int = 2 * 1024, block_size: int = 64):
        if size_bytes <= 0 or size_bytes % block_size:
            raise ValueError("R-Cache size must be a positive block multiple")
        self.entries = size_bytes // block_size
        self.block_size = block_size
        self.stats = RCacheStats()
        # block_addr -> lru stamp; dict preserves no order semantics needed.
        self._store: dict[int, int] = {}
        self._clock = 0

    def insert(self, block_addr: int) -> None:
        """Duplicate the (stored-to) block into the side cache."""
        self._clock += 1
        if block_addr in self._store:
            self._store[block_addr] = self._clock
            self.stats.store_updates += 1
            return
        if len(self._store) >= self.entries:
            victim = min(self._store, key=self._store.get)
            del self._store[victim]
            self.stats.evictions += 1
        self._store[block_addr] = self._clock
        self.stats.store_insertions += 1

    def holds(self, block_addr: int) -> bool:
        """Whether a duplicate of *block_addr* is currently live."""
        self.stats.lookups += 1
        if block_addr in self._store:
            self.stats.duplicate_hits += 1
            return True
        return False

    def invalidate(self, block_addr: int) -> None:
        self._store.pop(block_addr, None)

    def occupancy(self) -> int:
        return len(self._store)


class RCacheDL1:
    """A plain parity dL1 with an R-Cache beside it, as a registry scheme.

    Implements the hierarchy's DataL1 protocol so the full Table 1
    machine — and therefore :class:`~repro.harness.spec.ExperimentSpec`,
    the sweeps and the fault-injection campaigns — can drive the Kim &
    Somani baseline like any other scheme (registered as ``rcache``).

    Metric mapping onto the standard ``SimulationResult`` fields:

    * a dL1 load hit whose block has a live duplicate bumps
      ``load_hits_with_replica``, so ``loads_with_replica`` *is* the
      duplicate coverage (the analogue of ICR's loads-with-replica);
    * every duplicate-store write is charged as an extra dL1
      ``array_writes`` event, so the energy totals carry the side
      array's write traffic (its leakage/area is the cost ICR avoids).

    Fault injection, scrubbing and vulnerability monitoring attach to
    the inner parity dL1 (``injection_target``); the duplicate store
    itself is modeled error-free.
    """

    def __init__(
        self,
        rcache_bytes: int = 2 * 1024,
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
        self.config = variant(inner_config, name="rcache")
        self.rcache = RCache(rcache_bytes, self._dl1.geometry.block_size)
        self.geometry = self._dl1.geometry
        self.stats = self._dl1.stats
        self.write_policy = self._dl1.write_policy
        self.injection_target = self._dl1
        self._block_shift = self.geometry.block_offset_bits

    def set_evict_hook(self, hook) -> None:
        self._dl1.set_evict_hook(hook)

    def access(self, addr: int, is_write: bool, now: int):
        outcome = self._dl1.access(addr, is_write, now)
        block_addr = addr >> self._block_shift
        if is_write:
            # Covered stores write the duplicate store too.
            self.rcache.insert(block_addr)
            self.stats.array_writes += 1
        elif outcome.hit and self.rcache.holds(block_addr):
            self.stats.load_hits_with_replica += 1
        return outcome


@dataclass
class RCacheResult:
    """Coverage/overhead summary of one R-Cache run."""

    benchmark: str
    rcache_bytes: int
    loads_with_duplicate: float
    duplicate_store_writes: int
    dl1_loads: int
    dl1_stores: int
    rcache_stats: RCacheStats = field(repr=False, default=None)


def run_rcache_baseline(
    benchmark,
    *,
    rcache_bytes: int = 2 * 1024,
    n_instructions: int = 100_000,
) -> RCacheResult:
    """Drive the R-Cache beside a plain parity dL1 on a benchmark trace.

    The side cache duplicates every stored-to block; a dL1 load hit is
    "covered" when its block still has a live duplicate — directly
    comparable to ICR's loads-with-replica at zero dL1 displacement cost
    but with a dedicated array the size of ``rcache_bytes``.
    """
    from repro.core.schemes import make_cache
    from repro.cpu.isa import OP_LOAD, OP_STORE
    from repro.workloads.generator import trace_for
    from repro.workloads.spec2000 import profile_for

    profile = profile_for(benchmark) if isinstance(benchmark, str) else benchmark
    trace = trace_for(profile, n_instructions, seed_offset=0)
    dl1 = make_cache("BaseP")
    rcache = RCache(rcache_bytes, dl1.geometry.block_size)

    covered_load_hits = 0
    load_hits = 0
    now = 0
    for op, addr in zip(trace.op, trace.addr):
        if op != OP_LOAD and op != OP_STORE:
            continue
        block_addr = dl1.geometry.block_addr(addr)
        outcome = dl1.access(addr, op == OP_STORE, now)
        if op == OP_STORE:
            rcache.insert(block_addr)
        elif outcome.hit:
            load_hits += 1
            if rcache.holds(block_addr):
                covered_load_hits += 1
        now += 3

    return RCacheResult(
        benchmark=profile.name,
        rcache_bytes=rcache_bytes,
        loads_with_duplicate=covered_load_hits / load_hits if load_hits else 0.0,
        duplicate_store_writes=rcache.stats.store_insertions
        + rcache.stats.store_updates,
        dl1_loads=dl1.stats.loads,
        dl1_stores=dl1.stats.stores,
        rcache_stats=rcache.stats,
    )
