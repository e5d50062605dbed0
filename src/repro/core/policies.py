"""Composable policy objects behind the ICR cache's access path.

Each question of the paper's Section 3 design space is answered by one
small policy object, built once from an :class:`~repro.core.config.ICRConfig`:

* :class:`ProtectionPolicy` — "what protects a line?" (Section 3.2):
  resolves the parity/SEC-DED kind and the load-hit verification latency
  for both replication states and owns the energy-event bookkeeping for
  code checks/generates.
* :class:`LookupPolicy` — "how is the replica consulted?" (Section 3.1,
  PS vs. PP): decides serial vs. parallel and charges the extra array
  read + parity check a parallel compare costs on every replicated load.
* :class:`VictimSelector` — "whose line may a replica displace?": binds
  the :class:`~repro.core.config.VictimPolicy` enum, the dead-block
  predictor and the invalid-frame rule around
  :func:`~repro.core.victim.find_replica_victim`.
* :class:`ReplicationPolicy` — "when and where do we replicate?": owns
  the trigger (S/LS/hints), the candidate-distance lists, the
  multi-replica budget and the whole attempt/placement walk that used to
  be inlined in ``ICRCache._attempt_replication``/``_place_replica``.

:class:`~repro.core.icr_cache.ICRCache` builds all four in its
constructor, mirrors their per-lifetime decisions into the hoisted
scalars its demand path reads, and delegates every replication or
protection *decision* here.  The split keeps the demand path free of
policy indirection (policies precompute; the cache executes) while
making a new scheme a matter of composing different policies rather
than editing the core access path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache.block import CacheBlock
from repro.coding.protection import ProtectionKind
from repro.core.config import ICRConfig, LookupMode
from repro.core.decay import DeadBlockPredictor
from repro.core.placement import HashRing, build_placement
from repro.core.victim import find_replica_victim

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cache.stats import CacheStats
    from repro.core.config import VictimPolicy
    from repro.core.icr_cache import ICRCache


class ProtectionPolicy:
    """Which code guards a line, and what its verification costs.

    Replicated lines are always parity-protected (the replica *is* the
    correction mechanism); unreplicated lines carry the scheme's
    configured code.  Latencies follow the Section 3.2 cost model,
    including the speculative-ECC variant.
    """

    __slots__ = (
        "unreplicated",
        "replicated",
        "unreplicated_is_parity",
        "load_hit_latency_unreplicated",
        "load_hit_latency_replicated",
    )

    def __init__(self, config: ICRConfig):
        self.unreplicated: ProtectionKind = config.protection_for(replicated=False)
        self.replicated: ProtectionKind = config.protection_for(replicated=True)
        self.unreplicated_is_parity = self.unreplicated is ProtectionKind.PARITY
        self.load_hit_latency_unreplicated = config.load_hit_latency(replicated=False)
        self.load_hit_latency_replicated = config.load_hit_latency(replicated=True)

    def count_check(self, stats: "CacheStats", kind: ProtectionKind) -> None:
        if kind is ProtectionKind.PARITY:
            stats.parity_checks += 1
        else:
            stats.ecc_checks += 1

    def count_generate(self, stats: "CacheStats", kind: ProtectionKind) -> None:
        if kind is ProtectionKind.PARITY:
            stats.parity_generates += 1
        else:
            stats.ecc_generates += 1


class LookupPolicy:
    """Serial (PS) vs. parallel (PP) replica lookup on load hits."""

    __slots__ = ("parallel",)

    def __init__(self, config: ICRConfig):
        self.parallel = config.lookup is LookupMode.PARALLEL

    def charge_replicated_load_hit(self, stats: "CacheStats") -> None:
        """PP reads primary and replica together and compares them."""
        stats.array_reads += 1
        stats.parity_checks += 1


class VictimSelector:
    """Picks the line a new replica displaces inside one candidate set."""

    __slots__ = ("policy", "predictor", "allow_invalid")

    def __init__(
        self,
        policy: "VictimPolicy",
        predictor: DeadBlockPredictor,
        allow_invalid: bool = False,
    ):
        self.policy = policy
        self.predictor = predictor
        self.allow_invalid = allow_invalid

    def select(
        self,
        ways: list[CacheBlock],
        now: int,
        *,
        exclude_block: Optional[CacheBlock] = None,
        exclude_addr: Optional[int] = None,
    ) -> Optional[CacheBlock]:
        return find_replica_victim(
            ways,
            self.policy,
            self.predictor,
            now,
            exclude_block=exclude_block,
            exclude_addr=exclude_addr,
            allow_invalid=self.allow_invalid,
        )


class ReplicationPolicy:
    """When a line is replicated, where the copies go, and how many.

    Owns the trigger flags the demand paths consult, the resolved
    candidate-distance lists (including the Distance-N/4 fallback for
    hint-requested second replicas) and the full placement walk.  The
    policy mutates the owning cache's structures through the same
    primitives the inline code used, so stat ordering and event counts
    are bit-identical to the pre-policy implementation.
    """

    def __init__(
        self,
        cache: "ICRCache",
        config: ICRConfig,
        victims: VictimSelector,
        protection: ProtectionPolicy,
    ):
        self._cache = cache
        self.victims = victims
        self.protection = protection
        self.enabled = config.replicates
        self.on_store = config.trigger.on_store
        self.on_fill = config.trigger.on_fill
        self.max_replicas = config.max_replicas
        self.hints = config.hints
        self._block_size = config.geometry.block_size
        # The placement layer owns "where do copies go?".  Home-pure
        # policies (the default DistanceWalk, power-2) expose the same
        # resolved distance lists this constructor used to compute, so
        # the walk below is bit-identical to the pre-placement code;
        # hash rings answer per line through placement.lookup().
        self.placement = build_placement(config)
        self.ring: Optional[HashRing] = (
            self.placement if isinstance(self.placement, HashRing) else None
        )
        self.distances = self.placement.distances
        self.second_distances = self.placement.second_distances
        self.all_distances = self.placement.all_distances

    def wants_fill_replica(self, block_addr: int) -> bool:
        """Should this demand fill also try to replicate the line?"""
        if self.on_fill:
            return True
        hints = self.hints
        if hints is None or not self.enabled:
            return False
        # Software "eager" hint: replicate this line at fill time even
        # under the stores-only trigger.
        return hints.replicate_on_fill(block_addr, self._block_size)

    def attempt(self, primary: CacheBlock, now: int) -> None:
        """Try to give *primary* its replica(s) (Section 3.1).

        Software hints (Section 6 future work) can exclude the line or
        override how many replicas it gets; under ring placement the
        ring's replication factor governs the count (hints may still
        veto the line entirely).
        """
        if not self.enabled or primary.replica_refs:
            return
        wanted = self.max_replicas
        hints = self.hints
        if hints is not None:
            block_size = self._block_size
            if not hints.may_replicate(primary.block_addr, block_size):
                return
            wanted = hints.replica_count(
                primary.block_addr, block_size, default=wanted
            )
            if wanted == 0:
                return
        stats = self._cache.stats
        ring = self.ring
        if ring is not None:
            stats.replication_attempts += 1
            walks = ring.lookup(primary.block_addr)[2]
            if self.place_sets(primary, walks[0], now) is None:
                return
            stats.replication_successes += 1
            # Replicas beyond the first share the second-replica books.
            for walk in walks[1:]:
                stats.second_replica_attempts += 1
                if self.place_sets(primary, walk, now) is not None:
                    stats.second_replica_successes += 1
            return
        stats.replication_attempts += 1
        placed = self.place(primary, self.distances, now)
        if placed is None:
            return
        stats.replication_successes += 1
        if wanted >= 2:
            stats.second_replica_attempts += 1
            second = self.place(primary, self.second_distances, now)
            if second is not None:
                stats.second_replica_successes += 1

    def place(
        self, primary: CacheBlock, distances: tuple[int, ...], now: int
    ) -> Optional[CacheBlock]:
        """Walk candidate distances; install a replica at the first home."""
        cache = self._cache
        block_addr = primary.block_addr
        home = block_addr & cache._set_mask
        n = cache._set_mask + 1
        for distance in distances:
            victim = self._try_install(primary, (home + distance) % n, now)
            if victim is not None:
                return victim
        return None

    def place_sets(
        self, primary: CacheBlock, targets: tuple[int, ...], now: int
    ) -> Optional[CacheBlock]:
        """Ring walk: candidate *sets* come precomputed from the policy."""
        for target in targets:
            victim = self._try_install(primary, target, now)
            if victim is not None:
                return victim
        return None

    def _try_install(
        self, primary: CacheBlock, target: int, now: int
    ) -> Optional[CacheBlock]:
        """One placement attempt into one candidate set."""
        cache = self._cache
        stats = cache.stats
        predictor = self.victims.predictor
        block_addr = primary.block_addr
        stats.tag_probes += 1
        victim = self.victims.select(
            cache.sets[target],
            now,
            exclude_block=primary,
            exclude_addr=block_addr,
        )
        if victim is None:
            return None
        if victim.valid and not victim.is_replica:
            if predictor.is_dead(victim, now):
                stats.dead_evictions += 1
        cache.evict(victim)
        victim.fill(block_addr, now, is_replica=True)
        victim.protection = ProtectionKind.PARITY
        victim.primary_ref = primary
        primary.replica_refs.append(victim)
        cache._index_replica(victim)
        cache.touch_lru(victim)
        stats.array_writes += 1
        stats.parity_generates += 1
        if cache._track_data:
            victim.materialize_words(
                ProtectionKind.PARITY,
                [w.raw_data for w in primary.words]
                if primary.words is not None
                else list(cache._golden_words(block_addr)),
            )
            victim.golden = list(primary.golden or victim.golden)
        # Replicated lines are parity-protected for 1-cycle loads.
        new_kind = self.protection.replicated
        if primary.protection is not new_kind:
            primary.reprotect(new_kind)
            self.protection.count_generate(stats, new_kind)
        return victim
