"""Counters collected by the cache hierarchy during a simulation.

Every metric reported in the paper's evaluation (Section 4.1) is derived
from these raw counters:

* *miss rate* — from the hit/miss counters of the data cache;
* *replication ability* — successes / attempts;
* *loads with replica* — ``load_hits_with_replica / load_hits``;
* *energy* — the access/check counters are priced by
  :mod:`repro.energy.accounting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CacheStats:
    """Raw event counters for one cache (or one cache level)."""

    # Demand accesses as seen by the pipeline.
    loads: int = 0
    stores: int = 0
    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0

    # Physical array activity (for the energy model).  Fills, replica
    # installations and replica-update writes all count as array writes.
    array_reads: int = 0
    array_writes: int = 0
    tag_probes: int = 0

    # Protection-code activity.
    parity_checks: int = 0
    parity_generates: int = 0
    ecc_checks: int = 0
    ecc_generates: int = 0
    # Store hits whose write (and code regeneration) was suppressed
    # because the stored value would not change (silent-store-aware ECC).
    silent_stores: int = 0

    # Traffic between levels.
    writebacks: int = 0

    # ICR-specific events (zero for non-ICR caches).
    replication_attempts: int = 0
    replication_successes: int = 0
    second_replica_attempts: int = 0
    second_replica_successes: int = 0
    load_hits_with_replica: int = 0
    replica_updates: int = 0
    replica_evictions: int = 0
    replica_fills: int = 0  # primary misses served by a leftover replica
    dead_evictions: int = 0

    # Error-injection accounting (populated only in injection runs).
    errors_injected: int = 0
    load_errors_detected: int = 0
    load_errors_corrected_ecc: int = 0
    load_errors_recovered_replica: int = 0
    load_errors_recovered_l2: int = 0
    load_errors_unrecoverable: int = 0
    silent_corruptions: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses (loads + stores)."""
        return self.loads + self.stores

    @property
    def hits(self) -> int:
        return self.load_hits + self.store_hits

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def miss_rate(self) -> float:
        """Demand miss rate; 0.0 when there were no accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def load_miss_rate(self) -> float:
        return self.load_misses / self.loads if self.loads else 0.0

    @property
    def replication_ability(self) -> float:
        """Fraction of replication attempts that found a home (Section 4.1)."""
        if not self.replication_attempts:
            return 0.0
        return self.replication_successes / self.replication_attempts

    @property
    def second_replica_ability(self) -> float:
        """Fraction of attempts that managed to place a *second* replica."""
        if not self.second_replica_attempts:
            return 0.0
        return self.second_replica_successes / self.second_replica_attempts

    @property
    def loads_with_replica(self) -> float:
        """Fraction of read hits that found a replica present (Section 4.1)."""
        if not self.load_hits:
            return 0.0
        return self.load_hits_with_replica / self.load_hits

    @property
    def unrecoverable_load_fraction(self) -> float:
        """Fraction of all loads that hit an unrecoverable error (Fig. 14)."""
        if not self.loads:
            return 0.0
        return self.load_errors_unrecoverable / self.loads

    def merge(self, other: "CacheStats") -> None:
        """Accumulate *other*'s counters into this instance."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        """Zero every counter (used for warm-up exclusion)."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of all raw counters (for reports/tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class HierarchyStats:
    """Per-level stats for a full hierarchy run."""

    l1d: CacheStats = field(default_factory=CacheStats)
    l1i: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    memory_accesses: int = 0
    write_buffer_stall_cycles: int = 0

    def reset(self) -> None:
        """Zero every counter at every level (warm-up exclusion)."""
        self.l1d.reset()
        self.l1i.reset()
        self.l2.reset()
        self.memory_accesses = 0
        self.write_buffer_stall_cycles = 0
