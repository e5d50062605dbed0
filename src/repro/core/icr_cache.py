"""The ICR data cache — the paper's primary contribution.

An :class:`ICRCache` is a set-associative dL1 that recycles *dead* lines
(cache decay, Section 2) to hold **replicas** of lines in active use:

* Replication is attempted on stores (``S`` schemes) or on both fills and
  stores (``LS`` schemes).  An attempt walks the configured candidate
  distances — set ``(m + k) mod N`` for a primary in set ``m`` — and asks
  the victim policy for a legal line to take over; if no candidate set
  offers one, the attempt simply fails ("do nothing" fallback).
* Stores to a replicated line update the primary and every replica, so a
  replica is always an exact copy.
* Primary placement is untouched: normal LRU over all lines of the set, so
  the cache never behaves worse than LRU for primaries.
* On primary eviction replicas are either dropped (default) or left behind
  (Section 5.6) where they can serve a later miss in 2 cycles — the
  performance mode in which ICR can *beat* the plain parity baseline.

The cache optionally simulates actual bit contents (``track_data``) so the
fault-injection experiments (Section 5.5) exercise the real parity /
SEC-DED decoders and the real recovery paths:

  parity error on a replicated line  -> consult the replica (+1 cycle);
  parity error, clean line           -> refetch from L2;
  parity error, dirty line, no good replica -> **unrecoverable**;
  ECC single-bit error               -> corrected in place.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.block import CacheBlock
from repro.cache.set_assoc import Eviction, SetAssociativeCache
from repro.coding.protection import ProtectionKind
from repro.core.config import ICRConfig, silent_store_hash
from repro.core.decay import DeadBlockPredictor
from repro.core.policies import (
    LookupPolicy,
    ProtectionPolicy,
    ReplicationPolicy,
    VictimSelector,
)
from repro.core.protocol import DL1Outcome


class ICRCache(SetAssociativeCache):
    """dL1 with in-cache replication.

    Base schemes (``BaseP``, ``BaseECC``) are ICR caches whose trigger is
    :attr:`ReplicationTrigger.NONE`; they take the plain hit/miss paths and
    never create replicas, so a single implementation serves all ten
    schemes of Section 3.2.
    """

    #: L2 latency charged for an error refetch (the hierarchy overrides
    #: it per instance for the protected iL1).
    error_refetch_latency = 6

    def __init__(self, config: ICRConfig):
        super().__init__(config.geometry, name="dl1", replacement=config.replacement)
        self.config = config
        self.predictor = DeadBlockPredictor(config.decay_window)
        self.write_policy = config.write_policy
        self.words_per_block = config.geometry.block_size // 8
        # -- composable policies --------------------------------------------
        # Each design-space question of Section 3 is answered by one policy
        # object (repro.core.policies); the cache executes their decisions.
        self.protection_policy = ProtectionPolicy(config)
        self.lookup_policy = LookupPolicy(config)
        self.victim_selector = VictimSelector(
            config.victim_policy, self.predictor, config.replicate_into_invalid
        )
        self.replication_policy = ReplicationPolicy(
            self, config, self.victim_selector, self.protection_policy
        )
        self._all_distances = self.replication_policy.all_distances
        # Non-None when the scheme uses hash-ring placement: the probe
        # and placement walks then come from the ring's per-line
        # candidate table instead of the home-pure distance lists.
        self._ring = self.replication_policy.ring
        self._evict_hook: Optional[Callable[[Eviction], None]] = None
        # Fault injection (attached by repro.errors.injector), which
        # reaches lines through the frame_* surface below.
        self.injector = None
        self._frames = [block for ways in self.sets for block in ways]
        # Optional observer with an ``observe(now)`` method, called at the
        # start of every demand access (repro.reliability attaches here).
        self.monitor = None
        # Optional background scrubber (repro.errors.scrubber).
        self.scrubber = None
        # Error-free "memory image" backing the bit-accurate mode: the
        # golden contents of every block the program has touched.
        self._memory_image: dict[int, list[int]] = {}
        self._store_seq = 0
        # -- hot-path support ---------------------------------------------
        # O(1) replica lookup: block_addr -> replicas of that block.
        # Entries are validated (and pruned) on read, so direct replica
        # invalidation in _sever_links needs no eager bookkeeping.
        self._replica_index: dict[int, list[CacheBlock]] = {}
        # Position of each legal replica distance in the _probe_replica walk
        # order — lets the indexed lookup reproduce the walk's tag_probes
        # accounting and tie-breaking exactly.
        self._distance_pos: dict[int, int] = {
            d: i for i, d in enumerate(self._all_distances)
        }
        # Hoisted per-access constants: every per-lifetime decision the
        # policy objects made is mirrored into a flat attribute here so the
        # demand paths never chase config attribute chains, enum properties
        # or policy indirections.
        self._word_mask = self.words_per_block - 1
        self._lat_hit_replicated = self.protection_policy.load_hit_latency_replicated
        self._lat_hit_unreplicated = (
            self.protection_policy.load_hit_latency_unreplicated
        )
        self._writeback = config.write_policy == "writeback"
        self._prot_unrep = self.protection_policy.unreplicated
        self._prot_rep = self.protection_policy.replicated
        self._unrep_is_parity = self.protection_policy.unreplicated_is_parity
        self._track_data = config.track_data
        self._trig_store = self.replication_policy.on_store
        self._trig_fill = self.replication_policy.on_fill
        self._leave_replicas = config.leave_replicas_on_evict
        self._replicates = self.replication_policy.enabled
        self._hints = self.replication_policy.hints
        self._parallel_lookup = self.lookup_policy.parallel
        # Bound-method mirror of the replication attempt entry point.
        self._replicate = self.replication_policy.attempt
        # Outcomes are frozen dataclasses, so the constant-latency ones can
        # be allocated once and shared across accesses.
        self._out_store_hit = DL1Outcome(hit=True, latency=1)
        self._out_load_hit_rep = DL1Outcome(
            hit=True, latency=self._lat_hit_replicated
        )
        self._out_load_hit_unrep = DL1Outcome(
            hit=True, latency=self._lat_hit_unreplicated
        )
        self._out_replica_fill_store = DL1Outcome(
            hit=False, latency=1, replica_fill=True
        )
        self._out_replica_fill_load = DL1Outcome(
            hit=False, latency=2, replica_fill=True
        )
        self._out_miss = DL1Outcome(hit=False, latency=None)
        # Silent-store-aware ECC (Base schemes): the sequence counter is
        # a cache attribute, not a stat, so a mid-trace stats reset (the
        # warmup window) never perturbs which stores are silent.
        self._silent_sw = config.silent_store_suppression
        self._silent_threshold = int(config.silent_store_fraction * 65536)
        self._silent_seq = 0

    # ------------------------------------------------------------------
    # hierarchy protocol
    # ------------------------------------------------------------------

    def set_evict_hook(self, hook: Callable[[Eviction], None]) -> None:
        self._evict_hook = hook
        self.on_evict = hook

    # ------------------------------------------------------------------
    # linking / unlinking of primaries and replicas
    # ------------------------------------------------------------------

    def _index_replica(self, replica: CacheBlock) -> None:
        """Register a just-installed replica, pruning stale entries."""
        entries = self._replica_index.get(replica.block_addr)
        if entries is None:
            self._replica_index[replica.block_addr] = [replica]
            return
        entries[:] = [
            b
            for b in entries
            if b.valid and b.is_replica and b.block_addr == replica.block_addr
        ]
        entries.append(replica)

    def rebuild_tag_index(self) -> None:
        """Recompute primary *and* replica indexes (after a bulk restore)."""
        super().rebuild_tag_index()
        self._replica_index = {}
        for _, _, block in self.iter_valid_blocks():
            if block.is_replica:
                self._replica_index.setdefault(block.block_addr, []).append(block)

    def _sever_links(self, block: CacheBlock) -> None:
        """Detach *block* from its partners before it is reused."""
        if block.is_replica:
            primary = block.primary_ref
            if primary is not None and primary.valid:
                try:
                    primary.replica_refs.remove(block)
                except ValueError:
                    pass
                if not primary.replica_refs:
                    self._on_lost_last_replica(primary)
            block.primary_ref = None
            self.stats.replica_evictions += 1
            return
        if block.replica_refs:
            for replica in list(block.replica_refs):
                if self.config.leave_replicas_on_evict:
                    replica.primary_ref = None  # orphan, still addressable
                else:
                    replica.primary_ref = None
                    replica.invalidate()
                    self.stats.replica_evictions += 1
            block.replica_refs = []

    def _on_lost_last_replica(self, primary: CacheBlock) -> None:
        """Restore the unreplicated protection once all replicas are gone."""
        kind = self._prot_unrep
        if primary.protection is not kind:
            primary.reprotect(kind)
            self._count_generate(kind)

    def evict(self, block: CacheBlock) -> Optional[Eviction]:
        """Evict with link maintenance (overrides the base primitive)."""
        if not block.valid:
            return None
        if self._track_data and block.dirty and not block.is_replica:
            # A dirty eviction publishes the line's golden contents to the
            # lower levels, which we model as error-free.
            self._memory_image[block.block_addr] = list(
                block.golden or self._golden_words(block.block_addr)
            )
        self._sever_links(block)
        # Base eviction, inlined: every demand miss and replica placement
        # funnels through here, so the extra dispatch is worth removing.
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

    # ------------------------------------------------------------------
    # bit-accurate storage helpers
    # ------------------------------------------------------------------

    def _golden_words(self, block_addr: int) -> list[int]:
        """Golden contents of *block_addr* in the (error-free) L2/memory."""
        image = self._memory_image.get(block_addr)
        if image is None:
            # Deterministic initial memory contents.
            base = (block_addr * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
            image = [
                (base ^ (i * 0xBF58476D1CE4E5B9)) & ((1 << 64) - 1)
                for i in range(self.words_per_block)
            ]
            self._memory_image[block_addr] = image
        return image

    def _materialize(self, block: CacheBlock, replicated: bool) -> None:
        if not self.config.track_data:
            return
        kind = self.config.protection_for(replicated)
        block.materialize_words(kind, list(self._golden_words(block.block_addr)))

    def _next_store_value(self) -> int:
        self._store_seq += 1
        return (self._store_seq * 0xD1B54A32D192ED03) & ((1 << 64) - 1)

    # ------------------------------------------------------------------
    # fault surface (repro.errors): frame = set_index * assoc + way
    # ------------------------------------------------------------------

    def frame_protection(self, frame: int) -> Optional[ProtectionKind]:
        """The line's protection, or ``None`` when it holds no words."""
        block = self._frames[frame]
        if not block.valid or block.words is None:
            return None
        return block.protection

    def frame_stamp(self, frame: int) -> int:
        return self._frames[frame].lru_stamp

    def frame_flip(self, frame: int, word: int, bit: int) -> None:
        """Flip bit *bit* of one stored word (a frame holding words)."""
        self._frames[frame].words[word].flip_bit(bit)

    # ------------------------------------------------------------------
    # energy event counting
    # ------------------------------------------------------------------

    def _count_generate(self, kind: ProtectionKind) -> None:
        self.protection_policy.count_generate(self.stats, kind)

    # ------------------------------------------------------------------
    # demand access
    # ------------------------------------------------------------------

    def access(self, addr: int, is_write: bool, now: int) -> DL1Outcome:
        """One demand access from the pipeline; see module docstring."""
        if self.injector is not None:
            self.injector.advance(now)
        if self.scrubber is not None:
            self.scrubber.advance(now)
        if self.monitor is not None:
            self.monitor.observe(now)
        stats = self.stats
        block_addr = addr >> self._block_shift
        word_index = (addr >> 3) & self._word_mask
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1

        # Inlined probe() — the per-access primary lookup.
        stats.tag_probes += 1
        primary = self._tag_index.get(block_addr)
        if (
            primary is not None
            and primary.valid
            and not primary.is_replica
            and primary.block_addr == block_addr
        ):
            return self._hit(primary, word_index, is_write, now)

        # Primary miss.  With leave-in-place replicas a leftover replica
        # may still hold the line (Section 5.6).
        if self._leave_replicas:
            replica = self._probe_replica(block_addr)
            if replica is not None:
                return self._fill_from_replica(replica, word_index, is_write, now)
        return self._miss(block_addr, word_index, is_write, now)

    # -- hit path ----------------------------------------------------------

    def _hit(
        self, primary: CacheBlock, word_index: int, is_write: bool, now: int
    ) -> DL1Outcome:
        stats = self.stats
        if now > primary.last_access_cycle:
            primary.last_access_cycle = now
        self._lru_clock += 1
        primary.lru_stamp = self._lru_clock
        if self._touch_tracked:
            self.replacement.on_touch(primary.set_index, primary.way)
        replicated = bool(primary.replica_refs)
        if is_write:
            stats.store_hits += 1
            if self._silent_sw:
                self._silent_seq += 1
                if (
                    silent_store_hash(primary.block_addr, self._silent_seq)
                    < self._silent_threshold
                ):
                    # Silent store: the read-compare confirms the stored
                    # value is unchanged, so the write, the code
                    # regeneration and the dirty marking are all skipped
                    # (the line stays clean).
                    stats.silent_stores += 1
                    stats.array_reads += 1
                    if primary.protection is ProtectionKind.PARITY:
                        stats.parity_checks += 1
                    else:
                        stats.ecc_checks += 1
                    return self._out_store_hit
            stats.array_writes += 1
            if self._writeback:
                primary.dirty = True
            if primary.protection is ProtectionKind.PARITY:
                stats.parity_generates += 1
            else:
                stats.ecc_generates += 1
            if self._track_data and primary.words is not None:
                value = self._next_store_value()
                primary.write_word(word_index, value)
                if not self._writeback:
                    self._memory_image[primary.block_addr][word_index] = value
            if replicated:
                self._update_replicas(primary, word_index, now)
            elif self._trig_store:
                self._replicate(primary, now)
            return self._out_store_hit

        # Load hit.
        stats.load_hits += 1
        stats.array_reads += 1
        if primary.protection is ProtectionKind.PARITY:
            stats.parity_checks += 1
        else:
            stats.ecc_checks += 1
        if replicated:
            stats.load_hits_with_replica += 1
            if self._parallel_lookup:
                self.lookup_policy.charge_replicated_load_hit(stats)
            if self._track_data and primary.words is not None:
                latency = self._lat_hit_replicated + self._verified_load(
                    primary, word_index, now
                )
                return DL1Outcome(hit=True, latency=latency)
            return self._out_load_hit_rep
        if self._track_data and primary.words is not None:
            latency = self._lat_hit_unreplicated + self._verified_load(
                primary, word_index, now
            )
            return DL1Outcome(hit=True, latency=latency)
        return self._out_load_hit_unrep

    def _update_replicas(self, primary: CacheBlock, word_index: int, now: int) -> None:
        """Propagate a store to every replica, keeping them exact copies."""
        stats = self.stats
        for replica in primary.replica_refs:
            stats.array_writes += 1
            stats.replica_updates += 1
            stats.parity_generates += 1
            if now > replica.last_access_cycle:
                replica.last_access_cycle = now
            self.touch_lru(replica)
            if self._track_data and replica.words is not None:
                replica.write_word(word_index, primary.golden[word_index])

    # -- miss paths ----------------------------------------------------------

    def _probe_replica(self, block_addr: int) -> Optional[CacheBlock]:
        """Find a (possibly orphaned) replica of *block_addr*.

        O(1) via the replica index.  Selection and ``tag_probes``
        accounting replicate the hardware walk over the candidate
        distances exactly: the winner is the replica at the earliest
        distance in ``_all_distances`` (lowest way breaking ties), and one
        probe is charged per candidate set visited up to and including the
        hit — or all of them on a miss.
        """
        candidates = self._replica_index.get(block_addr)
        best = None
        best_key = None
        if candidates:
            live = [
                b
                for b in candidates
                if b.valid and b.is_replica and b.block_addr == block_addr
            ]
            if len(live) != len(candidates):
                if live:
                    self._replica_index[block_addr] = live
                else:
                    del self._replica_index[block_addr]
            if live:
                if self._ring is not None:
                    # Ring placement: the probe order is the line's
                    # candidate window, ranked by window position.
                    pos_map = self._ring.lookup(block_addr)[1]
                    for block in live:
                        pos = pos_map.get(block.set_index)
                        if pos is None:
                            continue
                        key = (pos, block.way)
                        if best_key is None or key < best_key:
                            best_key = key
                            best = block
                else:
                    home = block_addr & self._set_mask
                    n_sets = self._set_mask + 1
                    for block in live:
                        pos = self._distance_pos.get(
                            (block.set_index - home) % n_sets
                        )
                        if pos is None:
                            continue  # parked at a distance this walk never visits
                        key = (pos, block.way)
                        if best_key is None or key < best_key:
                            best_key = key
                            best = block
        if best is None:
            if self._ring is not None:
                self.stats.tag_probes += len(self._ring.lookup(block_addr)[0])
            else:
                self.stats.tag_probes += len(self._all_distances)
            return None
        self.stats.tag_probes += best_key[0] + 1
        return best

    def _fill_from_replica(
        self, replica: CacheBlock, word_index: int, is_write: bool, now: int
    ) -> DL1Outcome:
        """Serve a primary miss from a leftover replica (2-cycle load)."""
        block_addr = replica.block_addr
        if is_write:
            self.stats.store_misses += 1
        else:
            self.stats.load_misses += 1
        self.stats.replica_fills += 1
        self.stats.array_reads += 1  # read the replica
        home = block_addr & self._set_mask
        victim = self.lru_victim(home)
        if victim is replica:
            # Degenerate distance-0 case: the replica occupies the LRU way
            # of its own home set.  Promote it in place.
            replica.is_replica = False
            replica.primary_ref = None
            primary = replica
            self._tag_index[block_addr] = primary
            primary.protection = self._prot_unrep
            if self._track_data and primary.words is not None:
                primary.reprotect(primary.protection)
        else:
            self.evict(victim)
            victim.fill(block_addr, now)
            self._tag_index[block_addr] = victim
            primary = victim
            primary.protection = self._prot_rep
            if self._track_data and replica.words is not None:
                primary.materialize_words(
                    self._prot_rep,
                    [w.raw_data for w in replica.words],
                )
                primary.golden = list(replica.golden)
            # The leftover replica stays and is re-linked to the new primary.
            primary.replica_refs = [replica]
            replica.primary_ref = primary
        self.stats.array_writes += 1
        self._count_generate(
            self._prot_rep if primary.replica_refs else self._prot_unrep
        )
        self.touch_lru(primary)
        primary.touch(now)
        if is_write:
            if self._writeback:
                primary.dirty = True
            if self._track_data and primary.words is not None:
                value = self._next_store_value()
                primary.write_word(word_index, value)
                if not self._writeback:
                    self._memory_image[block_addr][word_index] = value
            if primary.replica_refs:
                self._update_replicas(primary, word_index, now)
            return self._out_replica_fill_store
        # One extra cycle over a normal hit to reach the replica's set.
        return self._out_replica_fill_load

    def _miss(
        self, block_addr: int, word_index: int, is_write: bool, now: int
    ) -> DL1Outcome:
        stats = self.stats
        if is_write:
            stats.store_misses += 1
        else:
            stats.load_misses += 1
        home = block_addr & self._set_mask
        victim = self.lru_victim(home)
        self.evict(victim)
        victim.fill(block_addr, now, dirty=False)
        self._tag_index[block_addr] = victim
        primary = victim
        primary.protection = self._prot_unrep
        stats.array_writes += 1
        if self._unrep_is_parity:
            stats.parity_generates += 1
        else:
            stats.ecc_generates += 1
        if self._track_data:
            self._materialize(primary, replicated=False)
        self._lru_clock += 1
        primary.lru_stamp = self._lru_clock
        if self._touch_tracked:
            self.replacement.on_touch(primary.set_index, primary.way)

        if self._trig_fill or (
            self._hints is not None
            and self.replication_policy.wants_fill_replica(block_addr)
        ):
            self._replicate(primary, now)
        if is_write:
            if self._writeback:
                primary.dirty = True
            stats.array_writes += 1
            # Fill-time replication may have upgraded the protection.
            if primary.protection is ProtectionKind.PARITY:
                stats.parity_generates += 1
            else:
                stats.ecc_generates += 1
            if self._track_data and primary.words is not None:
                value = self._next_store_value()
                primary.write_word(word_index, value)
                if not self._writeback:
                    self._memory_image[block_addr][word_index] = value
            if primary.replica_refs:
                self._update_replicas(primary, word_index, now)
            elif self._trig_store:
                self._replicate(primary, now)
        return self._out_miss

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def _attempt_replication(self, primary: CacheBlock, now: int) -> None:
        """Delegate to the replication policy (kept as the historic name)."""
        self.replication_policy.attempt(primary, now)

    def _place_replica(
        self, primary: CacheBlock, distances: tuple[int, ...], now: int
    ) -> Optional[CacheBlock]:
        """Delegate to the replication policy (kept as the historic name)."""
        return self.replication_policy.place(primary, distances, now)

    # ------------------------------------------------------------------
    # verified loads (fault-injection runs)
    # ------------------------------------------------------------------

    def _verified_load(self, primary: CacheBlock, word_index: int, now: int) -> int:
        """Read one word through its protection code; run recovery.

        Returns the extra latency the recovery cost on top of the scheme's
        nominal load-hit latency.  Updates the error counters used by the
        Figure 14 experiment.
        """
        outcome = primary.words[word_index].read()
        golden = primary.golden[word_index]
        if not outcome.error_detected:
            if outcome.data != golden:
                # An even number of flips per byte slipped past the code.
                self.stats.silent_corruptions += 1
            return 0

        self.stats.load_errors_detected += 1
        if outcome.corrected:
            # SEC-DED fixed it; scrub the stored word.
            self.stats.load_errors_corrected_ecc += 1
            primary.words[word_index].write(outcome.data)
            return 0

        # Detection without correction: try the replica first.
        extra = 0
        for replica in primary.replica_refs:
            extra += 1  # one extra cycle to reach the replica
            if replica.words is None:
                continue
            replica_read = replica.words[word_index].read()
            if not replica_read.error_detected and replica_read.data == golden:
                self.stats.load_errors_recovered_replica += 1
                primary.words[word_index].write(replica_read.data)
                return extra

        if not primary.dirty:
            # Clean line: the lower levels still hold good data.
            self.stats.load_errors_recovered_l2 += 1
            for i, value in enumerate(self._golden_words(primary.block_addr)):
                primary.words[i].write(value)
                primary.golden[i] = value
            return extra + self.error_refetch_latency

        # Dirty, no usable replica: the value is lost.
        self.stats.load_errors_unrecoverable += 1
        primary.words[word_index].write(golden)  # repair to continue the run
        return extra
