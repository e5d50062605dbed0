"""Configuration types spanning the ICR design space of paper Section 3.

Every question the paper asks ("when do we replicate?", "where?", "how
aggressively?", "how many replicas?", "how do we pick a victim?", "what
protects unreplicated blocks?", "what happens on replacement?") is one knob
of :class:`ICRConfig`.  The ten named schemes of Section 3.2 are particular
settings of these knobs (see :mod:`repro.core.schemes`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.cache.set_assoc import CacheGeometry
from repro.coding.protection import ProtectionKind
from repro.core.hints import ReplicationHints

if TYPE_CHECKING:  # pragma: no cover - placement imports config at runtime
    from repro.core.placement import PlacementSpec

#: Distance specifications accepted by the config: a literal set distance or
#: a fraction of the number of sets ("N/2", "N/4", ...).
DistanceSpec = Union[int, str]


class ReplicationTrigger(enum.Enum):
    """When replication is attempted (Section 3.1, "When do we replicate?")."""

    NONE = "none"  # Base schemes: never replicate
    STORES = "S"  # on dL1 writes only
    LOADS_AND_STORES = "LS"  # on dL1 misses (fills) and writes

    @property
    def on_store(self) -> bool:
        return self is not ReplicationTrigger.NONE

    @property
    def on_fill(self) -> bool:
        return self is ReplicationTrigger.LOADS_AND_STORES


class LookupMode(enum.Enum):
    """How a load hit on a replicated line consults the replica."""

    SERIAL = "PS"  # parity first; replica only after a detected error (1 cycle)
    PARALLEL = "PP"  # primary and replica read and compared together (2 cycles)


class VictimPolicy(enum.Enum):
    """Whose line a new replica may displace (Section 3.1)."""

    DEAD_ONLY = "dead-only"
    DEAD_FIRST = "dead-first"
    REPLICA_FIRST = "replica-first"
    REPLICA_ONLY = "replica-only"


def resolve_distance(spec: DistanceSpec, n_sets: int) -> int:
    """Turn a distance spec into a concrete set distance modulo *n_sets*."""
    if isinstance(spec, int):
        return spec % n_sets
    text = spec.strip().upper()
    if text == "0":
        return 0
    if text.startswith("N/"):
        divisor = int(text[2:])
        if divisor <= 0 or n_sets % divisor:
            raise ValueError(f"cannot resolve {spec!r} for {n_sets} sets")
        return (n_sets // divisor) % n_sets
    return int(text) % n_sets


def power2_distances(n_sets: int, max_attempts: int) -> list[int]:
    """The paper's "power-2" fallback sequence.

    First try distance N/2; on failure try N/2 -/+ N/4, then N/2 -/+ N/8,
    and so on, stopping after *max_attempts* candidate sets.
    """
    seq = [n_sets // 2]
    step = n_sets // 4
    while step >= 1 and len(seq) < max_attempts:
        seq.append((n_sets // 2 - step) % n_sets)
        if len(seq) < max_attempts:
            seq.append((n_sets // 2 + step) % n_sets)
        step //= 2
    # Deduplicate while keeping order (small n_sets can alias entries).
    seen: set[int] = set()
    result = []
    for d in seq:
        if d not in seen:
            seen.add(d)
            result.append(d)
    return result[:max_attempts]


_MASK64 = (1 << 64) - 1


def silent_store_hash(block_addr: int, seq: int) -> int:
    """Deterministic 16-bit hash deciding whether a store is silent.

    The trace generator does not model data values, so "the written
    value equals the stored value" (Lepak & Lipasti's silent stores) is
    modelled as a pseudo-random event: store *seq* to *block_addr* is
    silent when this hash falls below ``silent_store_fraction * 2^16``.
    Both kernels call this exact function so the object/SoA/batched
    paths stay bit-identical.
    """
    x = (block_addr * 0x9E3779B97F4A7C15 + seq * 0xD1B54A32D192ED03) & _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 29
    return x & 0xFFFF


@dataclass(frozen=True)
class ICRConfig:
    """Full configuration of one dL1 scheme.

    Defaults give the paper's headline scheme, ``ICR-P-PS (S)``, with the
    default replication settings fixed in Section 5.1: one replica, a
    single placement attempt at Distance-N/2.
    """

    name: str = "ICR-P-PS(S)"
    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(16 * 1024, 4, 64)
    )

    # Replication behaviour.
    trigger: ReplicationTrigger = ReplicationTrigger.STORES
    lookup: LookupMode = LookupMode.SERIAL
    victim_policy: VictimPolicy = VictimPolicy.DEAD_ONLY
    replica_distances: tuple[DistanceSpec, ...] = ("N/2",)
    second_replica_distances: tuple[DistanceSpec, ...] = ()
    max_replicas: int = 1

    # Replica placement policy (see repro.core.placement).  None means
    # the paper's candidate-distance walk over the lists above; a
    # PlacementSpec selects hash-ring or power-2 placement, in which
    # case the distance lists (and max_replicas, for rings) are ignored
    # in favour of the policy's own walk.
    placement: Optional["PlacementSpec"] = None

    # Dead-block prediction: cycles from last access to predicted death.
    # 0 = the aggressive mode (dead as soon as the access completes);
    # None = never dead (disables replication into live space entirely).
    decay_window: Optional[int] = 0

    # Protection.  Replicated lines are always parity-protected (the
    # replica is the correction mechanism); unreplicated lines get this:
    protection_unreplicated: ProtectionKind = ProtectionKind.PARITY
    # Speculative loads hide the ECC verification latency (Section 5.9).
    speculative_ecc_loads: bool = False

    # Replacement behaviour (Section 5.6): drop replicas with their primary
    # (False) or leave them to serve later misses (True).
    leave_replicas_on_evict: bool = False

    # Whether replicas may be installed into invalid frames.  Default off:
    # empty frames are left for demand fills (see repro.core.victim).
    replicate_into_invalid: bool = False

    # Software-controlled replication (paper Section 6 future work): an
    # optional repro.core.hints.ReplicationHints consulted per line.
    hints: Optional["ReplicationHints"] = None

    # Write policy of the dL1 ("writethrough" models the POWER4-style
    # alternative of Section 5.8; ICR schemes always use writeback).
    write_policy: str = "writeback"

    # Primary replacement policy: "lru" (paper-faithful default), or the
    # hardware approximations "plru", "fifo", "random" (ablations).
    replacement: str = "lru"

    # Bit-accurate word storage for fault-injection runs.
    track_data: bool = False

    # Silent-store-aware ECC (Base schemes only): skip the write and the
    # code regeneration when the stored value would not change.  The
    # fraction is the modelled rate of silent stores (Lepak & Lipasti
    # report 20-60% across SPEC; 0.4 is a representative midpoint).
    silent_store_suppression: bool = False
    silent_store_fraction: float = 0.4

    def __post_init__(self) -> None:
        # Enum knobs may arrive spelled as their values ("dead-first");
        # store the member, so unknown spellings fail here, not mid-run.
        for name, kind in _ENUM_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, kind):
                object.__setattr__(self, name, kind(value))
        if self.max_replicas not in (1, 2):
            raise ValueError("max_replicas must be 1 or 2")
        if self.max_replicas == 2 and not self.second_replica_distances:
            raise ValueError("two replicas need second_replica_distances")
        if self.write_policy not in ("writeback", "writethrough"):
            raise ValueError(f"unknown write policy {self.write_policy!r}")
        if self.trigger is ReplicationTrigger.NONE and self.max_replicas != 1:
            raise ValueError("base schemes cannot request multiple replicas")
        if self.placement is not None and self.trigger is ReplicationTrigger.NONE:
            raise ValueError("base schemes cannot use a placement policy")
        if self.silent_store_suppression and (
            self.trigger is not ReplicationTrigger.NONE
        ):
            # Replicating schemes would have to reconcile suppressed
            # writes with replica updates; the optimization targets the
            # plain ECC baseline (ROADMAP item a).
            raise ValueError(
                "silent-store suppression applies to non-replicating schemes"
            )
        if not 0.0 <= self.silent_store_fraction <= 1.0:
            raise ValueError("silent_store_fraction must be within [0, 1]")

    @property
    def replicates(self) -> bool:
        return self.trigger is not ReplicationTrigger.NONE

    def resolved_distances(self) -> tuple[int, ...]:
        """Concrete first-replica attempt distances for this geometry."""
        n = self.geometry.n_sets
        return tuple(resolve_distance(d, n) for d in self.replica_distances)

    def resolved_second_distances(self) -> tuple[int, ...]:
        n = self.geometry.n_sets
        return tuple(resolve_distance(d, n) for d in self.second_replica_distances)

    def all_replica_distances(self) -> tuple[int, ...]:
        """Every set distance a replica of a block may live at."""
        merged: list[int] = []
        for d in self.resolved_distances() + self.resolved_second_distances():
            if d not in merged:
                merged.append(d)
        return tuple(merged)

    def load_hit_latency(self, replicated: bool) -> int:
        """dL1 load-hit latency in cycles (Section 3.2 cost model)."""
        if self.replicates and replicated:
            return 1 if self.lookup is LookupMode.SERIAL else 2
        if self.protection_unreplicated is ProtectionKind.ECC:
            return 1 if self.speculative_ecc_loads else 2
        return 1

    def protection_for(self, replicated: bool) -> ProtectionKind:
        """Which code guards a line in the given replication state."""
        if self.replicates and replicated:
            return ProtectionKind.PARITY
        return self.protection_unreplicated


_ENUM_FIELDS = (
    ("trigger", ReplicationTrigger),
    ("lookup", LookupMode),
    ("victim_policy", VictimPolicy),
    ("protection_unreplicated", ProtectionKind),
)


def variant(config: ICRConfig, **changes) -> ICRConfig:
    """A copy of *config* with some fields replaced (name included)."""
    from dataclasses import replace

    return replace(config, **changes)
