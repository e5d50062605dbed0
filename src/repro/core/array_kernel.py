"""Struct-of-arrays dL1 kernel and the batched two-phase engine.

The object kernel (:class:`~repro.core.icr_cache.ICRCache`) models every
cache line as a :class:`~repro.cache.block.CacheBlock` and pays Python
method dispatch per pipeline event.  This module provides the same
semantics in struct-of-arrays form and a batched execution mode:

* :class:`ArrayDL1` — a dL1 whose entire state lives in parallel arrays
  indexed by *frame* (``set_index * associativity + way``): tag, valid,
  dirty, replica flag, LRU stamp, last-access cycle, protection code and
  the replica map (``primary_frame`` per replica plus per-primary replica
  frame lists).  It implements the hierarchy's ``DataL1`` protocol
  (``access`` returns a :class:`~repro.core.protocol.DL1Outcome`), so
  it is a drop-in replacement for :class:`ICRCache` under the unchanged
  :class:`~repro.cache.hierarchy.MemoryHierarchy`; ``access_code``
  returns a small outcome *code* instead, which is what the batched
  engine consumes.
* :class:`BitAccurateArrayDL1` — what ``ArrayDL1(config)`` builds under
  ``track_data``: it also keeps bit-accurate word contents as plain
  ints — per-frame golden values plus a sparse overlay of error
  patterns for the words whose stored cells differ from a fresh
  encoding — and exposes the fault-injection surface
  (``injector``/``monitor``/``scrubber`` slots and a read-only
  ``sets[set][way]`` frame view), so the unchanged
  :class:`~repro.errors.injector.FaultInjector` and error models drive
  it exactly as they drive the object kernel.  The data bookkeeping
  wraps the inherited state transitions, so the fault-free paths carry
  none of it.
* :func:`run_batched` — a two-phase engine exploiting the fact that in
  the common configuration (no fault injection, no scrubbing, no
  vulnerability sampling, write-back dL1, decay window 0 or None) every
  memory-side and branch-predictor decision depends only on *program
  order*, never on cycle numbers.  Branch-predictor outcomes and
  fetch-block boundaries depend only on the *trace*, so they are
  precomputed once per trace and memoized next to the trace itself
  (:func:`_phase1_prestage`).  Phase 1 then walks the trace in program
  order — visiting only the instructions that can generate memory-side
  events (loads, stores, new fetch blocks) — driving the SoA caches and
  recording per-instruction outcome codes; the codes are translated to
  latencies in one table-driven numpy pass; phase 2 replays the exact
  scoreboard timing loop of
  :class:`~repro.cpu.pipeline.OutOfOrderPipeline` against the
  precomputed latency arrays.  Phase 2's only output is the final cycle
  count, so it also exists as a small compiled kernel
  (:mod:`repro.core._native`, built on first use, ``REPRO_NATIVE=0`` to
  disable) with :func:`_phase2_python` as its always-available twin.
  The result is bit-identical to the object path (enforced by
  ``tests/differential/``) at a fraction of the per-instruction
  interpreter work.

Eligibility is decided per spec: :func:`batched_supported` gates the
two-phase engine, :func:`soa_supported` the per-access ``ArrayDL1`` under
the normal hierarchy (used for decay windows > 0, write-through and
fault injection, which are timing-coupled: the injector strikes by
cycle), and anything else — baselines, scrubbing, vulnerability
sampling, software hints, non-LRU replacement — falls back to the
object kernel.  ``backend="array"`` therefore never changes results,
only the execution strategy; :func:`backend_mode` reports which strategy
a spec resolves to.

Engineering note: the *canonical* hot-path state is kept in plain Python
lists (CPython scalar indexing beats numpy scalar indexing by an order
of magnitude); numpy enters where work is genuinely batched — the
outcome-code → latency translation over the whole trace, and the
:meth:`ArrayDL1.state_arrays` export (tags, flags, LRU ages, replica
map, decay counters) used by tests and tools.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from repro.cache.set_assoc import CacheGeometry, Eviction
from repro.cache.stats import CacheStats
from repro.coding import hamming
from repro.coding.parity import byte_parity_bits
from repro.coding.protection import ProtectionKind
from repro.core import _native, registry
from repro.core.config import (
    ICRConfig,
    LookupMode,
    VictimPolicy,
    silent_store_hash,
)
from repro.core.icr_cache import ICRCache
from repro.core.placement import HashRing, build_placement
from repro.core.protocol import DL1Outcome
from repro.core.schemes import make_config

# ---------------------------------------------------------------------------
# outcome codes (table-driven classification)
# ---------------------------------------------------------------------------

#: Demand-access outcome codes returned by :meth:`ArrayDL1.access_code`.
#: The batched engine maps codes to latencies through
#: :attr:`ArrayDL1.latency_table` in one vectorized pass.
OUT_STORE_HIT = 0
OUT_LOAD_HIT_REP = 1
OUT_LOAD_HIT_UNREP = 2
OUT_REPLICA_FILL_STORE = 3
OUT_REPLICA_FILL_LOAD = 4
OUT_MISS = 5
N_OUTCOMES = 6

_PARITY = 0
_ECC = 1

_PROT_CODE = {ProtectionKind.PARITY: _PARITY, ProtectionKind.ECC: _ECC}


def _prot_code(kind: ProtectionKind) -> int:
    return _PROT_CODE[kind]


# ---------------------------------------------------------------------------
# stored words (bit-accurate mode)
# ---------------------------------------------------------------------------
#
# A stored word ("cell") is one int laid out as the error models number
# its bits: under parity the 64 data bits then the 8 parity bits above
# them, under ECC the 72-bit (72,64) codeword.  The helpers below are
# ProtectedWord's encode, raw_data and read over these ints.
#
# Both codes are linear over GF(2), and a fresh codeword has a zero
# syndrome and even parity.  So ArrayDL1 keeps, for a word that differs
# from its golden value under a fresh code, only its *error pattern*:
# the stored cell XOR that fresh cell.  A fault is ``error ^ 1 << bit``;
# reading the cell detects and corrects exactly what reading the error
# pattern does, and yields the golden value XOR the pattern's data.

_KIND = (ProtectionKind.PARITY, ProtectionKind.ECC)
_DATA_MASK = (1 << 64) - 1


def _encode(kind: int, data: int) -> int:
    """The cell holding *data* under a freshly computed code."""
    if kind == _PARITY:
        return data | byte_parity_bits(data) << 64
    return hamming.encode(data)


def _raw_data(kind: int, cell: int) -> int:
    """The cell's (possibly corrupted) data bits, without verification."""
    if kind == _PARITY:
        return cell & _DATA_MASK
    return hamming.extract_data(cell)


def _read(kind: int, cell: int) -> tuple[bool, bool, int]:
    """``(error_detected, corrected, data)``: a verified read of one cell."""
    if kind == _PARITY:
        data = cell & _DATA_MASK
        return byte_parity_bits(data) != cell >> 64, False, data
    result = hamming.decode(cell)
    status = result.status
    return (
        status is not hamming.DecodeStatus.OK,
        status is hamming.DecodeStatus.CORRECTED,
        result.data,
    )


def _recode(errors: dict, old: int, kind: int) -> dict:
    """Error patterns of words stored under *old*, re-encoded under *kind*.

    Re-encoding keeps a word's (possibly corrupted) data bits and
    computes fresh check bits, so only the data part of each pattern
    survives; words whose data is clean leave the overlay.
    """
    recoded = {}
    for word, error in errors.items():
        data = _raw_data(old, error)
        if data:
            recoded[word] = _encode(kind, data)
    return recoded


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------


def kernel_supported(config: ICRConfig) -> bool:
    """Can :class:`ArrayDL1` represent this config at all?

    The SoA kernel covers the full ICR design space, bit-accurate word
    storage (``track_data``) included, *except* the features that need
    per-line objects: software hints and the non-LRU replacement
    ablations (whose policy objects hold CacheBlock-keyed state).
    """
    return (
        isinstance(config, ICRConfig)
        and config.hints is None
        and config.replacement == "lru"
    )


def soa_supported(spec, config: ICRConfig) -> bool:
    """May this spec run :class:`ArrayDL1` under the normal hierarchy?

    Fault injection (``error_rate > 0``) runs here: the injector and
    error models drive the kernel's frame view.  Excluded are the
    observers that walk every word through CacheBlocks — scrubbing and
    vulnerability sampling — which need the object kernel.
    """
    return (
        kernel_supported(config)
        and not spec.measure_vulnerability
        and spec.scrub_period is None
    )


def batched_supported(spec, config: ICRConfig, machine) -> bool:
    """May this spec run the two-phase batched engine?

    Requires full timing-independence of the memory side: a write-back
    dL1 (no write-buffer stalls feeding back into latency), a decay
    window of 0 or None (the two windows whose dead-block predicate does
    not read cycle numbers), and no fault injection into either L1 (the
    injector strikes by cycle) — hence no bit-accurate storage.
    """
    return (
        soa_supported(spec, config)
        and spec.error_rate == 0.0
        and not config.track_data
        and config.write_policy == "writeback"
        and (config.decay_window is None or config.decay_window == 0)
        and spec.icache_error_rate == 0.0
        and not machine.hierarchy.protected_icache
    )


def resolve_kernel(spec) -> tuple[str, Optional[ICRConfig]]:
    """The kernel tier a spec runs on, and the ICR config it runs with.

    The one dispatch rule: :func:`repro.harness.experiment._run_spec`
    executes the tier returned here, so the tier :func:`backend_mode`
    reports is the tier that ran.  Tiers are ``array-batched``,
    ``array-soa`` and ``object``.  The config is ``None`` for schemes
    the registry builds as whole models (the rcache/victim-cache
    baselines and external entry-point schemes); those always run the
    object kernel.
    """
    if isinstance(spec.scheme, ICRConfig):
        if spec.scheme_kwargs:
            raise ValueError("pass scheme kwargs only with a scheme *name*")
        config = spec.scheme
    elif registry.scheme_info(spec.scheme).kind == "baseline":
        return "object", None
    else:
        try:
            config = make_config(spec.scheme, **scheme_kwargs_of(spec))
        except TypeError as exc:
            raise TypeError(f"scheme {spec.scheme!r}: {exc}") from None
        except registry.UnknownSchemeError:
            # Registered (the spec resolved the name) but not an
            # ICR-family config scheme: an external entry-point scheme.
            return "object", None
    if spec.backend == "array":
        from repro.harness.spec import MachineConfig

        if batched_supported(spec, config, spec.machine or MachineConfig()):
            return "array-batched", config
        if soa_supported(spec, config):
            return "array-soa", config
    return "object", config


def backend_mode(spec) -> str:
    """Which kernel a spec runs on: ``array-batched``/``array-soa``/``object``.

    Used by tests, benchmarks and the per-tier latency telemetry; never
    changes results (all three tiers are bit-identical).
    """
    return resolve_kernel(spec)[0]


def scheme_kwargs_of(spec) -> dict:
    """The keyword arguments a named scheme is built with for *spec*.

    Fault-injected runs need bit-accurate storage, so a nonzero
    ``error_rate`` turns ``track_data`` on unless the spec sets it.
    """
    kwargs = dict(spec.scheme_kwargs)
    if spec.error_rate > 0.0:
        kwargs.setdefault("track_data", True)
    return kwargs


# ---------------------------------------------------------------------------
# the struct-of-arrays dL1
# ---------------------------------------------------------------------------


class ArrayDL1:
    """Struct-of-arrays ICR dL1, bit-identical to :class:`ICRCache`.

    Frames are numbered ``set_index * associativity + way``; every piece
    of per-line state is one parallel array indexed by frame.  The
    access paths are line-by-line ports of the object kernel's
    ``_hit``/``_miss``/``_probe_replica``/``_fill_from_replica``/
    ``evict`` and of the replication policy's ``attempt``/``place`` —
    including every stat-counter increment, tag-probe charge, LRU stamp
    and tie-break — with CacheBlock references replaced by frame ints.
    The differential harness (``tests/differential/``) enforces the
    equivalence across the whole registered design space.

    With ``config.track_data``, ``ArrayDL1(config)`` returns a
    :class:`BitAccurateArrayDL1`, which adds bit-accurate words and the
    fault-injection surface on top of these state transitions.
    """

    name = "dl1"

    def __new__(cls, config: ICRConfig):
        if cls is ArrayDL1 and getattr(config, "track_data", False):
            cls = BitAccurateArrayDL1
        return super().__new__(cls)

    def __init__(self, config: ICRConfig):
        if not kernel_supported(config):
            raise ValueError(
                "ArrayDL1 does not support this config (needs hints=None, "
                "replacement='lru'); use ICRCache"
            )
        geometry = config.geometry
        self.config = config
        self.geometry = geometry
        self.stats = CacheStats()
        self.write_policy = config.write_policy

        n_sets = geometry.n_sets
        assoc = geometry.associativity
        n_frames = n_sets * assoc
        self._n_sets = n_sets
        self._assoc = assoc
        self._n_frames = n_frames
        self._set_mask = n_sets - 1
        self._way_mask = assoc - 1
        self._assoc_shift = assoc.bit_length() - 1
        self._block_shift = geometry.block_offset_bits

        # -- per-frame state arrays -------------------------------------
        self._tag = [-1] * n_frames
        self._valid = [False] * n_frames
        self._dirty = [False] * n_frames
        self._is_rep = [False] * n_frames
        self._lru = [0] * n_frames
        self._last = [0] * n_frames
        self._prot = [_PARITY] * n_frames
        # Replica map: primary frame of each replica (-1 for primaries
        # and invalid frames), and the list of replica frames per primary.
        self._prim = [-1] * n_frames
        self._reps: list[list[int]] = [[] for _ in range(n_frames)]

        self._lru_clock = 0
        self._tag_index: dict[int, int] = {}
        self._replica_index: dict[int, list[int]] = {}

        # -- hoisted per-lifetime constants (mirrors ICRCache) ----------
        self._writeback = config.write_policy == "writeback"
        self._prot_unrep = _prot_code(config.protection_for(replicated=False))
        self._prot_rep = _prot_code(config.protection_for(replicated=True))
        self._replicates = config.replicates
        self._trig_store = config.trigger.on_store
        self._trig_fill = config.trigger.on_fill
        self._leave_replicas = config.leave_replicas_on_evict
        self._parallel_lookup = config.lookup is LookupMode.PARALLEL
        self._victim_policy = config.victim_policy
        self._allow_invalid = config.replicate_into_invalid
        self._max_replicas = config.max_replicas

        # Replica placement comes from the same policy object the object
        # kernel builds (repro.core.placement), so both kernels walk the
        # same candidate sets.  Home-pure policies expose the distance
        # lists the walks below iterate; rings answer per line.
        placement = build_placement(config)
        self._ring = placement if isinstance(placement, HashRing) else None
        self._distances = placement.distances
        self._second_distances = placement.second_distances
        self._all_distances = placement.all_distances
        self._distance_pos = {d: i for i, d in enumerate(self._all_distances)}
        self._n_all_distances = len(self._all_distances)

        # Silent-store-aware ECC; the sequence counter lives outside the
        # stats so a warmup reset never perturbs which stores are silent.
        self._silent_sw = config.silent_store_suppression
        self._silent_threshold = int(config.silent_store_fraction * 65536)
        self._silent_seq = 0

        window = config.decay_window
        self._always_dead = window == 0
        self._never_dead = window is None
        self._tick = max(1, window // 4) if window else 1

        lat_rep = config.load_hit_latency(replicated=True)
        lat_unrep = config.load_hit_latency(replicated=False)
        self._outcomes = (
            DL1Outcome(hit=True, latency=1),                       # STORE_HIT
            DL1Outcome(hit=True, latency=lat_rep),                 # LOAD_HIT_REP
            DL1Outcome(hit=True, latency=lat_unrep),               # LOAD_HIT_UNREP
            DL1Outcome(hit=False, latency=1, replica_fill=True),   # RF_STORE
            DL1Outcome(hit=False, latency=2, replica_fill=True),   # RF_LOAD
            DL1Outcome(hit=False, latency=None),                   # MISS
        )
        #: code -> dL1-visible load latency (OUT_MISS maps to 0; the
        #: engine adds the L2/memory latency it measured separately).
        self.latency_table = np.array(
            [1, lat_rep, lat_unrep, 1, 2, 0], dtype=np.int64
        )

        # Eviction callback: (block_addr, dirty, was_replica) -> None.
        # set_evict_hook wraps hierarchy hooks; the batched engine
        # installs its own flat callable here directly.
        self._evict_cb: Optional[Callable[[int, bool, bool], None]] = None
        self._hook: Optional[Callable[[Eviction], None]] = None

    # -- hierarchy protocol --------------------------------------------

    def set_evict_hook(self, hook: Optional[Callable[[Eviction], None]]) -> None:
        self._hook = hook
        if hook is None:
            self._evict_cb = None
            return

        def cb(block_addr: int, dirty: bool, was_replica: bool) -> None:
            hook(
                Eviction(
                    block_addr=block_addr, dirty=dirty, was_replica=was_replica
                )
            )

        self._evict_cb = cb

    def access(self, addr: int, is_write: bool, now: int) -> DL1Outcome:
        """DataL1-protocol demand access (per-access mode)."""
        return self._outcomes[self.access_code(addr, is_write, now)]

    # -- demand path (code form) ---------------------------------------

    def access_code(self, addr: int, is_write: bool, now: int) -> int:
        """One demand access; returns an ``OUT_*`` outcome code."""
        stats = self.stats
        block_addr = addr >> self._block_shift
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        stats.tag_probes += 1
        f = self._tag_index.get(block_addr, -1)
        if f >= 0:
            return self._hit(f, is_write, now)
        if self._leave_replicas:
            r = self._probe_replica(block_addr)
            if r >= 0:
                return self._fill_from_replica(r, is_write, now)
        return self._miss(block_addr, is_write, now)

    def _hit(self, f: int, is_write: bool, now: int) -> int:
        stats = self.stats
        last = self._last
        if now > last[f]:
            last[f] = now
        self._lru_clock += 1
        self._lru[f] = self._lru_clock
        reps = self._reps[f]
        if is_write:
            stats.store_hits += 1
            if self._silent_sw:
                self._silent_seq += 1
                if (
                    silent_store_hash(self._tag[f], self._silent_seq)
                    < self._silent_threshold
                ):
                    stats.silent_stores += 1
                    stats.array_reads += 1
                    if self._prot[f] == _PARITY:
                        stats.parity_checks += 1
                    else:
                        stats.ecc_checks += 1
                    return OUT_STORE_HIT
            stats.array_writes += 1
            if self._writeback:
                self._dirty[f] = True
            if self._prot[f] == _PARITY:
                stats.parity_generates += 1
            else:
                stats.ecc_generates += 1
            if reps:
                self._update_replicas(f, now)
            elif self._trig_store:
                self._replicate(f, now)
            return OUT_STORE_HIT
        stats.load_hits += 1
        stats.array_reads += 1
        if self._prot[f] == _PARITY:
            stats.parity_checks += 1
        else:
            stats.ecc_checks += 1
        if reps:
            stats.load_hits_with_replica += 1
            if self._parallel_lookup:
                # PP reads primary and replica together and compares.
                stats.array_reads += 1
                stats.parity_checks += 1
            return OUT_LOAD_HIT_REP
        return OUT_LOAD_HIT_UNREP

    def _update_replicas(self, f: int, now: int) -> None:
        stats = self.stats
        last = self._last
        lru = self._lru
        for r in self._reps[f]:
            stats.array_writes += 1
            stats.replica_updates += 1
            stats.parity_generates += 1
            if now > last[r]:
                last[r] = now
            self._lru_clock += 1
            lru[r] = self._lru_clock

    # -- miss paths ----------------------------------------------------

    def _probe_replica(self, block_addr: int) -> int:
        """Frame of the winning (possibly orphaned) replica, or -1.

        Selection and ``tag_probes`` accounting replicate the candidate-
        distance walk exactly: earliest distance in the walk order wins,
        lowest way breaks ties; one probe per candidate set visited up
        to and including the hit, or all of them on a miss.
        """
        candidates = self._replica_index.get(block_addr)
        best = -1
        best_key = None
        if candidates:
            valid = self._valid
            is_rep = self._is_rep
            tag = self._tag
            live = [
                b
                for b in candidates
                if valid[b] and is_rep[b] and tag[b] == block_addr
            ]
            if len(live) != len(candidates):
                if live:
                    self._replica_index[block_addr] = live
                else:
                    del self._replica_index[block_addr]
            if live:
                shift = self._assoc_shift
                if self._ring is not None:
                    pos_of = self._ring.lookup(block_addr)[1].get
                    for b in live:
                        pos = pos_of(b >> shift)
                        if pos is None:
                            continue
                        key = (pos, b & self._way_mask)
                        if best_key is None or key < best_key:
                            best_key = key
                            best = b
                else:
                    home = block_addr & self._set_mask
                    n = self._n_sets
                    pos_of = self._distance_pos.get
                    for b in live:
                        pos = pos_of(((b >> shift) - home) % n)
                        if pos is None:
                            continue  # parked at a distance the walk skips
                        key = (pos, b & self._way_mask)
                        if best_key is None or key < best_key:
                            best_key = key
                            best = b
        if best < 0:
            if self._ring is not None:
                self.stats.tag_probes += len(self._ring.lookup(block_addr)[0])
            else:
                self.stats.tag_probes += self._n_all_distances
            return -1
        self.stats.tag_probes += best_key[0] + 1
        return best

    def _fill_from_replica(self, r: int, is_write: bool, now: int) -> int:
        stats = self.stats
        block_addr = self._tag[r]
        if is_write:
            stats.store_misses += 1
        else:
            stats.load_misses += 1
        stats.replica_fills += 1
        stats.array_reads += 1  # read the replica
        home = block_addr & self._set_mask
        v = self._lru_victim(home)
        if v == r:
            # Degenerate distance-0 case: promote the replica in place.
            self._is_rep[r] = False
            self._prim[r] = -1
            p = r
            self._tag_index[block_addr] = p
            self._prot[p] = self._prot_unrep
        else:
            self.evict_frame(v)
            self._fill(v, block_addr, now, is_replica=False, dirty=False)
            self._tag_index[block_addr] = v
            p = v
            self._prot[p] = self._prot_rep
            # The leftover replica stays, re-linked to the new primary.
            self._reps[p] = [r]
            self._prim[r] = p
        stats.array_writes += 1
        kind = self._prot_rep if self._reps[p] else self._prot_unrep
        if kind == _PARITY:
            stats.parity_generates += 1
        else:
            stats.ecc_generates += 1
        self._lru_clock += 1
        self._lru[p] = self._lru_clock
        if now > self._last[p]:
            self._last[p] = now
        if is_write:
            if self._writeback:
                self._dirty[p] = True
            if self._reps[p]:
                self._update_replicas(p, now)
            return OUT_REPLICA_FILL_STORE
        return OUT_REPLICA_FILL_LOAD

    def _miss(self, block_addr: int, is_write: bool, now: int) -> int:
        stats = self.stats
        if is_write:
            stats.store_misses += 1
        else:
            stats.load_misses += 1
        home = block_addr & self._set_mask
        v = self._lru_victim(home)
        self.evict_frame(v)
        self._fill(v, block_addr, now, is_replica=False, dirty=False)
        self._tag_index[block_addr] = v
        self._prot[v] = self._prot_unrep
        stats.array_writes += 1
        if self._prot_unrep == _PARITY:
            stats.parity_generates += 1
        else:
            stats.ecc_generates += 1
        self._lru_clock += 1
        self._lru[v] = self._lru_clock
        if self._trig_fill:
            self._replicate(v, now)
        if is_write:
            if self._writeback:
                self._dirty[v] = True
            stats.array_writes += 1
            # Fill-time replication may have upgraded the protection.
            if self._prot[v] == _PARITY:
                stats.parity_generates += 1
            else:
                stats.ecc_generates += 1
            if self._reps[v]:
                self._update_replicas(v, now)
            elif self._trig_store:
                self._replicate(v, now)
        return OUT_MISS

    # -- replication ---------------------------------------------------

    def _replicate(self, f: int, now: int) -> None:
        """Port of ``ReplicationPolicy.attempt`` (hints excluded)."""
        if not self._replicates or self._reps[f]:
            return
        stats = self.stats
        ring = self._ring
        if ring is not None:
            stats.replication_attempts += 1
            walks = ring.lookup(self._tag[f])[2]
            if self._place_sets(f, walks[0], now) < 0:
                return
            stats.replication_successes += 1
            for walk in walks[1:]:
                stats.second_replica_attempts += 1
                if self._place_sets(f, walk, now) >= 0:
                    stats.second_replica_successes += 1
            return
        stats.replication_attempts += 1
        placed = self._place(f, self._distances, now)
        if placed < 0:
            return
        stats.replication_successes += 1
        if self._max_replicas >= 2:
            stats.second_replica_attempts += 1
            second = self._place(f, self._second_distances, now)
            if second >= 0:
                stats.second_replica_successes += 1

    def _place(self, f: int, distances: tuple[int, ...], now: int) -> int:
        """Port of ``ReplicationPolicy.place``: walk candidate sets."""
        block_addr = self._tag[f]
        home = block_addr & self._set_mask
        n = self._n_sets
        for distance in distances:
            v = self._try_install(f, (home + distance) % n, now)
            if v >= 0:
                return v
        return -1

    def _place_sets(self, f: int, targets: tuple[int, ...], now: int) -> int:
        """Ring walk: candidate sets come precomputed from the policy."""
        for target in targets:
            v = self._try_install(f, target, now)
            if v >= 0:
                return v
        return -1

    def _try_install(self, f: int, target: int, now: int) -> int:
        """One placement attempt into one candidate set."""
        stats = self.stats
        block_addr = self._tag[f]
        stats.tag_probes += 1
        v = self._find_victim(target, now, f, block_addr)
        if v < 0:
            return -1
        if self._valid[v] and not self._is_rep[v]:
            if self._is_dead(v, now):
                stats.dead_evictions += 1
        self.evict_frame(v)
        self._fill(v, block_addr, now, is_replica=True, dirty=False)
        self._prot[v] = _PARITY
        self._prim[v] = f
        self._reps[f].append(v)
        self._index_replica(v, block_addr)
        self._lru_clock += 1
        self._lru[v] = self._lru_clock
        stats.array_writes += 1
        stats.parity_generates += 1
        # Replicated lines carry the replicated-state protection.
        if self._prot[f] != self._prot_rep:
            self._prot[f] = self._prot_rep
            if self._prot_rep == _PARITY:
                stats.parity_generates += 1
            else:
                stats.ecc_generates += 1
        return v

    def _find_victim(
        self, set_index: int, now: int, exclude_frame: int, exclude_addr: int
    ) -> int:
        """Port of :func:`repro.core.victim.find_replica_victim`."""
        base = set_index << self._assoc_shift
        valid = self._valid
        is_rep = self._is_rep
        tag = self._tag
        dead: list[int] = []
        replicas: list[int] = []
        always_dead = self._always_dead
        never_dead = self._never_dead
        for b in range(base, base + self._assoc):
            if b == exclude_frame:
                continue
            if not valid[b]:
                if self._allow_invalid:
                    return b
                continue
            if is_rep[b]:
                if tag[b] != exclude_addr:
                    replicas.append(b)
            elif always_dead:
                dead.append(b)
            elif not never_dead and self._is_dead(b, now):
                dead.append(b)
        policy = self._victim_policy
        if policy is VictimPolicy.DEAD_ONLY:
            return self._lru_of(dead)
        if policy is VictimPolicy.REPLICA_ONLY:
            return self._lru_of(replicas)
        if policy is VictimPolicy.DEAD_FIRST:
            v = self._lru_of(dead)
            return v if v >= 0 else self._lru_of(replicas)
        if policy is VictimPolicy.REPLICA_FIRST:
            v = self._lru_of(replicas)
            return v if v >= 0 else self._lru_of(dead)
        raise ValueError(f"unknown victim policy {policy!r}")

    def _lru_of(self, frames: list[int]) -> int:
        """min() by LRU stamp, first on ties (matches the object kernel)."""
        if not frames:
            return -1
        lru = self._lru
        best = frames[0]
        best_stamp = lru[best]
        for b in frames[1:]:
            stamp = lru[b]
            if stamp < best_stamp:
                best_stamp = stamp
                best = b
        return best

    def _is_dead(self, f: int, now: int) -> bool:
        """Dead-block predicate for a *valid* frame (aligned-tick decay)."""
        if self._always_dead:
            return True
        if self._never_dead:
            return False
        tick = self._tick
        return (now // tick - self._last[f] // tick) >= 4

    # -- fill / evict / links ------------------------------------------

    def _fill(
        self, f: int, block_addr: int, now: int, *, is_replica: bool, dirty: bool
    ) -> None:
        self._tag[f] = block_addr
        self._valid[f] = True
        self._dirty[f] = dirty
        self._is_rep[f] = is_replica
        self._last[f] = now
        if self._reps[f]:
            self._reps[f] = []
        self._prim[f] = -1

    def _lru_victim(self, set_index: int) -> int:
        """First invalid way, else the lowest LRU stamp (first on ties)."""
        base = set_index << self._assoc_shift
        valid = self._valid
        lru = self._lru
        best = base
        best_stamp = None
        for f in range(base, base + self._assoc):
            if not valid[f]:
                return f
            stamp = lru[f]
            if best_stamp is None or stamp < best_stamp:
                best_stamp = stamp
                best = f
        return best

    def evict_frame(self, f: int) -> None:
        """Port of ``ICRCache.evict`` (link maintenance + hook)."""
        if not self._valid[f]:
            return
        self._sever_links(f)
        was_replica = self._is_rep[f]
        block_addr = self._tag[f]
        dirty = self._dirty[f] and not was_replica
        if not was_replica and self._tag_index.get(block_addr, -1) == f:
            del self._tag_index[block_addr]
        self._invalidate(f)
        if dirty:
            self.stats.writebacks += 1
        elif self._evict_cb is None:
            return
        if self._evict_cb is not None:
            self._evict_cb(block_addr, dirty, was_replica)

    def _invalidate(self, f: int) -> None:
        self._tag[f] = -1
        self._valid[f] = False
        self._dirty[f] = False
        self._is_rep[f] = False
        self._last[f] = 0
        self._prot[f] = _PARITY
        self._prim[f] = -1
        if self._reps[f]:
            self._reps[f] = []

    def _sever_links(self, f: int) -> None:
        """Port of ``ICRCache._sever_links``."""
        if self._is_rep[f]:
            p = self._prim[f]
            if p >= 0 and self._valid[p]:
                reps = self._reps[p]
                try:
                    reps.remove(f)
                except ValueError:
                    pass
                if not reps:
                    self._on_lost_last_replica(p)
            self._prim[f] = -1
            self.stats.replica_evictions += 1
            return
        reps = self._reps[f]
        if reps:
            leave = self._leave_replicas
            for r in list(reps):
                if leave:
                    self._prim[r] = -1  # orphan, still addressable
                else:
                    self._prim[r] = -1
                    self._invalidate(r)
                    self.stats.replica_evictions += 1
            self._reps[f] = []

    def _on_lost_last_replica(self, p: int) -> None:
        kind = self._prot_unrep
        if self._prot[p] != kind:
            self._prot[p] = kind
            if kind == _PARITY:
                self.stats.parity_generates += 1
            else:
                self.stats.ecc_generates += 1

    def _index_replica(self, f: int, block_addr: int) -> None:
        """Register a just-installed replica, pruning stale entries."""
        entries = self._replica_index.get(block_addr)
        if entries is None:
            self._replica_index[block_addr] = [f]
            return
        valid = self._valid
        is_rep = self._is_rep
        tag = self._tag
        entries[:] = [
            b for b in entries if valid[b] and is_rep[b] and tag[b] == block_addr
        ]
        entries.append(f)

    # -- introspection -------------------------------------------------

    def state_arrays(self, now: int = 0) -> dict[str, np.ndarray]:
        """Numpy snapshot of the full SoA state (tests, tools, debugging).

        ``replica_map`` is the primary frame of each replica (-1
        elsewhere); ``decay_counter`` is the 2-bit saturating decay
        counter each line would show at cycle *now*.
        """
        lru = np.asarray(self._lru, dtype=np.int64)
        if self._never_dead:
            decay = np.zeros(self._n_frames, dtype=np.int64)
        elif self._always_dead:
            decay = np.full(self._n_frames, 4, dtype=np.int64)
        else:
            tick = self._tick
            last = np.asarray(self._last, dtype=np.int64)
            decay = np.clip(now // tick - last // tick, 0, 4)
        return {
            "tag": np.asarray(self._tag, dtype=np.int64),
            "valid": np.asarray(self._valid, dtype=np.bool_),
            "dirty": np.asarray(self._dirty, dtype=np.bool_),
            "is_replica": np.asarray(self._is_rep, dtype=np.bool_),
            "lru_stamp": lru,
            "lru_age": self._lru_clock - lru,
            "last_access": np.asarray(self._last, dtype=np.int64),
            "protection": np.asarray(self._prot, dtype=np.int8),
            "replica_map": np.asarray(self._prim, dtype=np.int64),
            "decay_counter": decay,
        }

    def contents_summary(self) -> dict[str, int]:
        """Census of line roles (same shape as the object kernel's)."""
        summary = {"valid": 0, "dirty": 0, "replicas": 0, "primaries": 0}
        for f in range(self._n_frames):
            if not self._valid[f]:
                continue
            summary["valid"] += 1
            if self._dirty[f]:
                summary["dirty"] += 1
            if self._is_rep[f]:
                summary["replicas"] += 1
            else:
                summary["primaries"] += 1
        return summary


class BitAccurateArrayDL1(ArrayDL1):
    """:class:`ArrayDL1` with bit-accurate word storage (``track_data``).

    ``ArrayDL1(config)`` builds one of these when ``config.track_data``
    is set, so the fault-free demand path — ``access_code`` and every
    method the batched engine calls — carries no data-tracking branch.

    Words are plain ints (DESIGN.md §11): ``_gold`` holds every frame's
    golden values (``words_per_block`` ints from ``f << _word_shift``)
    and ``_overlay[f]`` maps a word index to its error pattern for the
    few words that are *not* their golden value under a fresh code for
    the frame's current protection.  The data bookkeeping wraps the
    inherited state transitions:

    * a primary fill loads the golden words (:meth:`_fill`), a replica
      install or a fill from a leftover replica copies them
      (:meth:`_try_install`, :meth:`_fill_from_replica`);
    * a protection switch re-encodes the stored data (:meth:`_reprotect`);
    * a dirty eviction publishes the golden words (:meth:`evict_frame`);
    * a demand store writes the primary and its replicas, and a load hit
      on an overlay word runs the recovery ladder (:meth:`access`).

    Each lands in the same state as the matching ``self._track_data``
    branch of ``ICRCache``; ``tests/differential/test_fault_injection.py``
    checks the whole bit-accurate state against the object kernel.
    """

    # The memory image and the store values are ICRCache's own code (it
    # reads only ``_memory_image``, ``words_per_block`` and ``_store_seq``),
    # so the two kernels' golden values cannot drift apart.
    _golden_words = ICRCache._golden_words
    _next_store_value = ICRCache._next_store_value
    error_refetch_latency = ICRCache.error_refetch_latency

    def __init__(self, config: ICRConfig):
        super().__init__(config)
        wpb = self.words_per_block = config.geometry.block_size // 8
        self._word_mask = wpb - 1
        self._word_shift = wpb.bit_length() - 1
        # Golden values, one flat run of words per frame (meaningful for
        # valid frames only), and the sparse overlay: frame -> {word
        # index: nonzero error pattern}.
        self._gold: list[int] = [0] * (self._n_frames * wpb)
        self._overlay: dict[int, dict[int, int]] = {}
        self._memory_image: dict[int, list[int]] = {}
        self._store_seq = 0
        # InjectionTarget slots, consulted at the top of every access.
        self.injector = None
        self.monitor = None
        self.scrubber = None

    # -- demand access -------------------------------------------------

    def access(self, addr: int, is_write: bool, now: int) -> DL1Outcome:
        """Bit-accurate demand access: ``ICRCache.access``'s full path.

        Observers run first; the dispatch is :meth:`access_code`'s.  A
        store then writes its value into the line and its replicas, and
        a load hit on a word in the overlay runs :meth:`_verified_load`,
        as the last step of ``ICRCache._hit``.
        """
        if self.injector is not None:
            self.injector.advance(now)
        if self.scrubber is not None:
            self.scrubber.advance(now)
        if self.monitor is not None:
            self.monitor.observe(now)
        stats = self.stats
        block_addr = addr >> self._block_shift
        word = (addr >> 3) & self._word_mask
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        stats.tag_probes += 1
        f = self._tag_index.get(block_addr, -1)
        if f >= 0:
            if is_write:
                silent = stats.silent_stores
                code = self._hit(f, True, now)
                if stats.silent_stores == silent:
                    self._store_value(f, word)
                return self._outcomes[code]
            outcome = self._outcomes[self._hit(f, False, now)]
            errors = self._overlay.get(f)
            if errors is None or word not in errors:
                # The golden value under a fresh code: no error.
                return outcome
            extra = self._verified_load(f, word, errors[word])
            if extra:
                return DL1Outcome(hit=True, latency=outcome.latency + extra)
            return outcome
        code = -1
        if self._leave_replicas:
            r = self._probe_replica(block_addr)
            if r >= 0:
                code = self._fill_from_replica(r, is_write, now)
        if code < 0:
            code = self._miss(block_addr, is_write, now)
        if is_write:
            self._store_value(self._tag_index[block_addr], word)
        return self._outcomes[code]

    # -- data bookkeeping around the inherited transitions -------------
    #
    # Invariant: a word of a valid frame that is absent from the overlay
    # holds its golden value under a fresh code for the frame's current
    # protection.  The codecs run only on overlay words — flipped ones,
    # ones copied raw from a corrupted line, ones re-encoded over
    # corrupted data by a protection switch.

    def _fill(
        self, f: int, block_addr: int, now: int, *, is_replica: bool, dirty: bool
    ) -> None:
        ArrayDL1._fill(self, f, block_addr, now, is_replica=is_replica, dirty=dirty)
        if not is_replica:
            # A primary fill fetches the golden words under a fresh code.
            base = f << self._word_shift
            self._gold[base : base + self.words_per_block] = self._golden_words(
                block_addr
            )
            self._overlay.pop(f, None)

    def _fill_from_replica(self, r: int, is_write: bool, now: int) -> int:
        kind = self._prot[r]
        block_addr = self._tag[r]
        code = ArrayDL1._fill_from_replica(self, r, is_write, now)
        p = self._tag_index[block_addr]
        if p == r:
            # Promoted in place: the replica's data under the new code.
            self._reprotect(p, kind, self._prot[p])
        else:
            self._copy_words(r, kind, p)
        return code

    def _try_install(self, f: int, target: int, now: int) -> int:
        kind = self._prot[f]
        v = ArrayDL1._try_install(self, f, target, now)
        if v >= 0:
            # The replica copies the primary's raw data, then the primary
            # takes the replicated-state protection.
            self._copy_words(f, kind, v)
            self._reprotect(f, kind, self._prot[f])
        return v

    def _on_lost_last_replica(self, p: int) -> None:
        self._reprotect(p, self._prot[p], self._prot_unrep)
        ArrayDL1._on_lost_last_replica(self, p)

    def evict_frame(self, f: int) -> None:
        if self._valid[f] and self._dirty[f] and not self._is_rep[f]:
            # A dirty eviction publishes the line's golden contents to the
            # lower levels, which we model as error-free.
            base = f << self._word_shift
            self._memory_image[self._tag[f]] = self._gold[
                base : base + self.words_per_block
            ]
        ArrayDL1.evict_frame(self, f)

    # -- stored words --------------------------------------------------

    def _store_value(self, f: int, word: int) -> None:
        """A demand store writes the next store value into one word of the
        primary *f* and of each of its replicas.

        Write-through stores update the memory image too.
        """
        value = self._next_store_value()
        self._write_word(f, word, value)
        if not self._writeback:
            self._memory_image[self._tag[f]][word] = value
        for r in self._reps[f]:
            self._write_word(r, word, value)

    def _write_word(self, f: int, word: int, value: int) -> None:
        """``CacheBlock.write_word``: a new golden value under a fresh code."""
        self._gold[(f << self._word_shift) + word] = value
        if f in self._overlay:
            self._set_error(f, word, 0)

    def _set_error(self, f: int, word: int, error: int) -> None:
        """Record one word's error pattern (0: its golden value, fresh)."""
        errors = self._overlay.get(f)
        if error:
            if errors is None:
                self._overlay[f] = {word: error}
            else:
                errors[word] = error
        elif errors is not None and errors.pop(word, None) is not None:
            if not errors:
                del self._overlay[f]

    def _reprotect(self, f: int, old: int, kind: int) -> None:
        """``CacheBlock.reprotect``: re-encode data stored under *old* as
        *kind*.

        The recompute runs over the current, possibly corrupted data, so
        a latent error present at switch time is locked in.
        """
        if old == kind:
            return
        errors = self._overlay.pop(f, None)
        if errors:
            errors = _recode(errors, old, kind)
            if errors:
                self._overlay[f] = errors

    def _copy_words(self, src: int, src_kind: int, dst: int) -> None:
        """``materialize_words`` over *src*'s raw data (stored under
        *src_kind*), under *dst*'s code.

        Copies the golden values too: a replica install, or a fill from a
        leftover replica.
        """
        gold = self._gold
        wpb = self.words_per_block
        base = dst << self._word_shift
        src_base = src << self._word_shift
        gold[base : base + wpb] = gold[src_base : src_base + wpb]
        self._overlay.pop(dst, None)
        errors = self._overlay.get(src)
        if errors:
            errors = _recode(errors, src_kind, self._prot[dst])
            if errors:
                self._overlay[dst] = errors

    def _flip(self, f: int, word: int, bit: int) -> None:
        """Inject a transient fault into bit *bit* of one stored word."""
        if not 0 <= bit < hamming.CODEWORD_BITS:
            raise ValueError(f"bit index {bit} out of range for a stored word")
        errors = self._overlay.get(f)
        error = errors.get(word, 0) if errors is not None else 0
        self._set_error(f, word, error ^ 1 << bit)

    def _verified_load(self, f: int, word: int, error: int) -> int:
        """Port of ``ICRCache._verified_load`` for a word in the overlay.

        *error* is the word's error pattern; returns the extra latency.
        """
        stats = self.stats
        detected, corrected, flipped = _read(self._prot[f], error)
        if not detected:
            if flipped:
                # An even number of flips per byte slipped past the code.
                stats.silent_corruptions += 1
            return 0

        stats.load_errors_detected += 1
        if corrected:
            # SEC-DED fixed it; scrub the stored word (a miscorrection
            # stores its wrong data under a fresh code).
            stats.load_errors_corrected_ecc += 1
            self._set_error(f, word, _encode(self._prot[f], flipped))
            return 0

        # Detection without correction: try the replica first.
        shift = self._word_shift
        golden = self._gold[(f << shift) + word]
        extra = 0
        for r in self._reps[f]:
            extra += 1  # one extra cycle to reach the replica
            r_errors = self._overlay.get(r)
            r_error = r_errors.get(word, 0) if r_errors is not None else 0
            r_detected, _, r_flipped = _read(self._prot[r], r_error)
            if not r_detected and self._gold[(r << shift) + word] ^ r_flipped == golden:
                stats.load_errors_recovered_replica += 1
                self._set_error(f, word, 0)
                return extra

        if not self._dirty[f]:
            # Clean line: the lower levels still hold good data.
            stats.load_errors_recovered_l2 += 1
            base = f << shift
            self._gold[base : base + self.words_per_block] = self._golden_words(
                self._tag[f]
            )
            del self._overlay[f]
            return extra + self.error_refetch_latency

        # Dirty, no usable replica: the value is lost.
        stats.load_errors_unrecoverable += 1
        self._set_error(f, word, 0)  # repair to continue the run
        return extra

    # -- fault-injection surface ---------------------------------------

    @cached_property
    def sets(self) -> list[tuple["_FrameView", ...]]:
        """Read-only ``sets[set][way]`` view for the fault injector.

        Exposes what the error models and ``FaultInjector._apply`` read
        of a ``CacheBlock`` — ``valid``, ``words``, ``protection``,
        ``lru_stamp`` — over the live arrays.  Built on the first fault
        event, never on the demand path.
        """
        assoc = self._assoc
        return [
            tuple(_FrameView(self, f) for f in range(base, base + assoc))
            for base in range(0, self._n_frames, assoc)
        ]



class _FrameView:
    """One frame, as the error models read a ``CacheBlock``."""

    __slots__ = ("_cache", "_f", "_words")

    def __init__(self, cache: BitAccurateArrayDL1, f: int):
        self._cache = cache
        self._f = f
        self._words: Optional[tuple["_WordView", ...]] = None

    @property
    def valid(self) -> bool:
        return self._cache._valid[self._f]

    @property
    def protection(self) -> ProtectionKind:
        return _KIND[self._cache._prot[self._f]]

    @property
    def lru_stamp(self) -> int:
        return self._cache._lru[self._f]

    @property
    def words(self) -> Optional[tuple["_WordView", ...]]:
        """``None`` unless the frame is valid."""
        cache = self._cache
        if not cache._valid[self._f]:
            return None
        if self._words is None:
            self._words = tuple(
                _WordView(cache, self._f, i) for i in range(cache.words_per_block)
            )
        return self._words


class _WordView:
    __slots__ = ("_cache", "_f", "_index")

    def __init__(self, cache: BitAccurateArrayDL1, f: int, index: int):
        self._cache = cache
        self._f = f
        self._index = index

    def flip_bit(self, bit: int) -> None:
        """``ProtectedWord.flip_bit``: *bit* numbers the whole stored word."""
        self._cache._flip(self._f, self._index, bit)


# ---------------------------------------------------------------------------
# plain SoA cache (L2 / iL1 substrate of the batched engine)
# ---------------------------------------------------------------------------


class _PlainArrayCache:
    """SoA port of ``SetAssociativeCache.access`` (plain L2/iL1 path).

    Timing-independent by construction (true LRU over stamps), so it
    takes no ``now``; ``on_dirty_evict`` replaces the Eviction-object
    hook (only dirty L2 victims have an observable effect: one memory
    access).
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.stats = CacheStats()
        n_sets = geometry.n_sets
        assoc = geometry.associativity
        n_frames = n_sets * assoc
        self._assoc = assoc
        self._set_mask = n_sets - 1
        self._block_shift = geometry.block_offset_bits
        self._tag = [-1] * n_frames
        self._valid = [False] * n_frames
        self._dirty = [False] * n_frames
        self._lru = [0] * n_frames
        self._lru_clock = 0
        self._tag_index: dict[int, int] = {}
        self.on_dirty_evict: Optional[Callable[[], None]] = None

    def access(self, addr: int, is_write: bool) -> bool:
        stats = self.stats
        block_addr = addr >> self._block_shift
        stats.tag_probes += 1
        f = self._tag_index.get(block_addr, -1)
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        if f >= 0:
            if is_write:
                stats.store_hits += 1
                stats.array_writes += 1
                self._dirty[f] = True
            else:
                stats.load_hits += 1
                stats.array_reads += 1
            self._lru_clock += 1
            self._lru[f] = self._lru_clock
            return True
        # Miss path: evict the LRU way (invalid first), write-allocate.
        if is_write:
            stats.store_misses += 1
        else:
            stats.load_misses += 1
        valid = self._valid
        lru = self._lru
        base = (block_addr & self._set_mask) * self._assoc
        victim = base
        best_stamp = None
        for f in range(base, base + self._assoc):
            if not valid[f]:
                victim = f
                best_stamp = None
                break
            stamp = lru[f]
            if best_stamp is None or stamp < best_stamp:
                best_stamp = stamp
                victim = f
        if valid[victim]:
            old_addr = self._tag[victim]
            dirty = self._dirty[victim]
            if self._tag_index.get(old_addr, -1) == victim:
                del self._tag_index[old_addr]
            valid[victim] = False
            self._dirty[victim] = False
            if dirty:
                stats.writebacks += 1
                if self.on_dirty_evict is not None:
                    self.on_dirty_evict()
        self._tag[victim] = block_addr
        valid[victim] = True
        self._dirty[victim] = is_write
        self._tag_index[block_addr] = victim
        stats.array_writes += 1
        self._lru_clock += 1
        lru[victim] = self._lru_clock
        return False


# ---------------------------------------------------------------------------
# the batched two-phase engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _phase1_prestage(profile, n_instructions, seed_offset, fetch_shift):
    """Trace-pure phase-1 precomputation, memoized alongside the trace.

    The branch predictor and the instruction-fetch block boundaries
    depend only on the instruction trace — never on data-cache contents
    — so they are pure functions of the (already memoized) trace:

    * per-instruction mispredict flags and the final predictor counters,
      computed by driving the *real* :class:`CombinedPredictor` (one
      amortized pass; no duplicated predictor logic to diverge);
    * per-instruction "new fetch block" flags (``fetch_shift < 0``
      disables icache modelling: all zeros);
    * the sorted index list of instructions phase 1 must actually visit:
      memory ops and fetch-block boundaries.  Everything else is a plain
      ALU op (or an already-resolved branch) with no memory-side event.

    Keyed exactly like :func:`trace_for` plus the fetch-block shift, so
    scheme sweeps over one benchmark trace pay this once.  The returned
    containers are shared across runs — callers must not mutate them.
    """
    from repro.cpu.branch import CombinedPredictor
    from repro.cpu.isa import OP_BRANCH
    from repro.workloads.generator import trace_for

    trace = trace_for(profile, n_instructions, seed_offset)
    ops = trace.op
    pcs = trace.pc
    takens = trace.taken
    targets = trace.target
    n = len(ops)
    misp = bytearray(n)
    predictor = CombinedPredictor()
    pred_access = predictor.access
    ops_np = np.asarray(ops, dtype=np.int64)
    for i in np.nonzero(ops_np == OP_BRANCH)[0].tolist():
        if pred_access(pcs[i], takens[i], targets[i]):
            misp[i] = 1

    is_mem = (ops_np > 3) & (ops_np < 6)  # OP_LOAD / OP_STORE
    if fetch_shift < 0 or n == 0:
        new_block = bytes(n)
        interesting = np.nonzero(is_mem)[0].tolist()
    else:
        blocks = np.asarray(pcs, dtype=np.int64) >> fetch_shift
        nb_mask = np.empty(n, dtype=bool)
        nb_mask[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=nb_mask[1:])
        new_block = nb_mask.tobytes()
        interesting = np.nonzero(nb_mask | is_mem)[0].tolist()

    stats = predictor.stats
    # Byte-packed columns for the native phase-2 kernel (ops <= 6,
    # registers < 32, so every column fits uint8).
    columns = (
        bytes(ops),
        bytes(trace.dest),
        bytes(trace.src1),
        bytes(trace.src2),
    )
    return (
        bytes(misp),
        (stats.branches, stats.direction_mispredicts, stats.btb_misses),
        new_block,
        interesting,
        ops_np,
        columns,
    )


def run_batched(spec, profile, config: ICRConfig, machine):
    """Run one batch-eligible spec through the two-phase engine.

    Returns a :class:`~repro.harness.experiment.SimulationResult`
    bit-identical to the object path's (``SimulationResult.to_dict()``
    equality is what the differential harness asserts).
    """
    # Lazy imports: this module sits under repro.core; the harness and
    # energy layers import it lazily and vice versa.
    from repro.cache.stats import HierarchyStats
    from repro.cpu.branch import PredictorStats
    from repro.cpu.funits import _OP_TO_POOL, DEFAULT_SPECS
    from repro.cpu.isa import OP_BRANCH, OP_LOAD, OP_STORE
    from repro.cpu.pipeline import PipelineResult
    from repro.energy.accounting import EnergyParams, energy_of
    from repro.harness.experiment import SimulationResult
    from repro.workloads.generator import trace_for

    hier_cfg = machine.hierarchy
    pipe_cfg = machine.pipeline

    trace = trace_for(
        profile,
        spec.n_instructions + spec.warmup_instructions,
        seed_offset=spec.trace_seed,
    )
    ops = trace.op
    dests = trace.dest
    src1s = trace.src1
    src2s = trace.src2
    pcs = trace.pc
    addrs = trace.addr
    n = len(ops)

    dl1 = ArrayDL1(config)
    l1i = _PlainArrayCache(hier_cfg.l1i_geometry)
    l2 = _PlainArrayCache(hier_cfg.l2_geometry)
    mem_accesses = 0
    l2_latency = hier_cfg.l2_latency
    memory_latency = hier_cfg.memory_latency
    l2_access = l2.access

    def l2_dirty_evicted() -> None:
        nonlocal mem_accesses
        mem_accesses += 1

    l2.on_dirty_evict = l2_dirty_evicted

    dl1_shift = config.geometry.block_offset_bits

    def dl1_evicted(block_addr: int, dirty: bool, was_replica: bool) -> None:
        # Dirty dL1 victims are written back into L2 (misses go on to
        # memory), in-order with the demand access that evicted them.
        nonlocal mem_accesses
        if dirty and not l2_access(block_addr << dl1_shift, True):
            mem_accesses += 1

    dl1._evict_cb = dl1_evicted

    # ---- phase 1: program-order memory pass ---------------------------
    # The loop below is the fused fast path of the program-order engine.
    # The branch predictor and the fetch-block boundaries are pure
    # functions of the trace, so they come precomputed (and memoized per
    # trace) from :func:`_phase1_prestage`, which also supplies the index
    # list of instructions that can have a memory-side event at all —
    # the loop skips plain ALU ops entirely.  dL1 primary hits and iL1
    # fetch-block hits are inlined with *local* counters (flushed into
    # the stats objects at the end — pure increments commute with the
    # slow paths' own stats-object increments).  Everything rarer — dL1
    # misses, replica probes/fills, replication attempts, iL1 misses —
    # calls the corresponding ArrayDL1/_PlainArrayCache method, with the
    # shared LRU clock (whose *ordering* matters, unlike the counters)
    # synced around each slow call.  In batched mode every access
    # happens at now=0, so the decay timestamps need no maintenance at
    # all (the eligible decay windows never read them).
    l1i_latency = hier_cfg.l1i_latency
    fetch_lat = [l1i_latency] * n
    codes = bytearray(n)
    extra = [0] * n

    reset_at = spec.warmup_instructions
    model_icache = hier_cfg.model_icache
    fetch_shift = hier_cfg.l1i_geometry.block_offset_bits if model_icache else -1
    l1i_access = l1i.access
    l1i_miss_latency = l1i_latency + l2_latency
    l1i_mem_latency = l1i_latency + l2_latency + memory_latency

    misp, pred_counts, new_block, interesting, ops_np, columns = _phase1_prestage(
        profile,
        spec.n_instructions + spec.warmup_instructions,
        spec.trace_seed,
        fetch_shift,
    )

    # dL1 hot-path state, bound to locals.
    dshift = dl1._block_shift
    dtag_get = dl1._tag_index.get
    dlru = dl1._lru
    ddirty = dl1._dirty
    dprot = dl1._prot
    dreps = dl1._reps
    d_lru_clock = dl1._lru_clock
    trig_store = dl1._trig_store
    leave_replicas = dl1._leave_replicas
    parallel_lookup = dl1._parallel_lookup
    probe_replica = dl1._probe_replica
    fill_from_replica = dl1._fill_from_replica
    dl1_miss = dl1._miss
    dl1_replicate = dl1._replicate
    silent_sw = dl1._silent_sw
    silent_thr = dl1._silent_threshold
    silent_seq = dl1._silent_seq
    d_loads = d_stores = d_probes = d_lhits = d_shits = 0
    d_reads = d_writes = d_pchecks = d_pgens = d_echecks = d_egens = 0
    d_lhits_rep = d_rupdates = d_silent = 0

    # iL1 hot-path state.
    itag_get = l1i._tag_index.get
    ilru = l1i._lru
    i_lru_clock = l1i._lru_clock
    i_probes = i_loads = i_lhits = i_reads = 0

    pending_reset = reset_at if 0 < reset_at < n else -1
    for idx in interesting:
        if pending_reset >= 0 and idx >= pending_reset:
            # Warm-up exclusion: same boundary as the object pipeline.
            # The first visited instruction at or past the boundary
            # resets before any of its events; skipped instructions in
            # between had no hierarchy events by construction.  The slow
            # paths' increments live on the stats objects, the fast
            # paths' in the locals — zero both.
            pending_reset = -1
            dl1.stats.reset()
            l1i.stats.reset()
            l2.stats.reset()
            mem_accesses = 0
            d_loads = d_stores = d_probes = d_lhits = d_shits = 0
            d_reads = d_writes = d_pchecks = d_pgens = d_echecks = d_egens = 0
            d_lhits_rep = d_rupdates = d_silent = 0
            i_probes = i_loads = i_lhits = i_reads = 0
        if new_block[idx]:
            pc = pcs[idx]
            fi = itag_get(pc >> fetch_shift, -1)
            if fi >= 0:
                i_probes += 1
                i_loads += 1
                i_lhits += 1
                i_reads += 1
                i_lru_clock += 1
                ilru[fi] = i_lru_clock
            else:
                l1i._lru_clock = i_lru_clock
                l1i_access(pc, False)
                i_lru_clock = l1i._lru_clock
                if l2_access(pc, False):
                    fetch_lat[idx] = l1i_miss_latency
                else:
                    mem_accesses += 1
                    fetch_lat[idx] = l1i_mem_latency
        op = ops[idx]
        if op == OP_LOAD:
            addr = addrs[idx]
            d_loads += 1
            d_probes += 1
            ba = addr >> dshift
            f = dtag_get(ba, -1)
            if f >= 0:
                d_lhits += 1
                d_reads += 1
                d_lru_clock += 1
                dlru[f] = d_lru_clock
                if dprot[f]:
                    d_echecks += 1
                else:
                    d_pchecks += 1
                if dreps[f]:
                    d_lhits_rep += 1
                    if parallel_lookup:
                        # PP reads primary and replica together.
                        d_reads += 1
                        d_pchecks += 1
                    codes[idx] = OUT_LOAD_HIT_REP
                else:
                    codes[idx] = OUT_LOAD_HIT_UNREP
            else:
                dl1._lru_clock = d_lru_clock
                r = probe_replica(ba) if leave_replicas else -1
                if r >= 0:
                    code = fill_from_replica(r, False, 0)
                else:
                    code = dl1_miss(ba, False, 0)
                d_lru_clock = dl1._lru_clock
                codes[idx] = code
                if code == OUT_MISS:
                    if l2_access(addr, False):
                        extra[idx] = l2_latency
                    else:
                        mem_accesses += 1
                        extra[idx] = l2_latency + memory_latency
        elif op == OP_STORE:
            addr = addrs[idx]
            d_stores += 1
            d_probes += 1
            ba = addr >> dshift
            f = dtag_get(ba, -1)
            if f >= 0:
                d_shits += 1
                if silent_sw:
                    # Silent-store-aware ECC: the read-compare shows the
                    # value is unchanged; skip write/dirty/regenerate.
                    d_lru_clock += 1
                    dlru[f] = d_lru_clock
                    silent_seq += 1
                    if silent_store_hash(ba, silent_seq) < silent_thr:
                        d_silent += 1
                        d_reads += 1
                        if dprot[f]:
                            d_echecks += 1
                        else:
                            d_pchecks += 1
                    else:
                        d_writes += 1
                        ddirty[f] = True
                        if dprot[f]:
                            d_egens += 1
                        else:
                            d_pgens += 1
                    # Suppression implies a non-replicating scheme, so
                    # there is no replica/trigger work on this path.
                    continue
                d_writes += 1
                ddirty[f] = True
                d_lru_clock += 1
                dlru[f] = d_lru_clock
                if dprot[f]:
                    d_egens += 1
                else:
                    d_pgens += 1
                reps = dreps[f]
                if reps:
                    for r in reps:
                        d_writes += 1
                        d_rupdates += 1
                        d_pgens += 1
                        d_lru_clock += 1
                        dlru[r] = d_lru_clock
                elif trig_store:
                    dl1._lru_clock = d_lru_clock
                    dl1_replicate(f, 0)
                    d_lru_clock = dl1._lru_clock
            else:
                # Write-allocate: a store miss brings the line in off
                # the critical path (L2 traffic only; the pipeline sees
                # store_latency).
                dl1._lru_clock = d_lru_clock
                r = probe_replica(ba) if leave_replicas else -1
                if r >= 0:
                    code = fill_from_replica(r, True, 0)
                else:
                    code = dl1_miss(ba, True, 0)
                d_lru_clock = dl1._lru_clock
                if code == OUT_MISS:
                    if not l2_access(addr, False):
                        mem_accesses += 1

    if pending_reset >= 0:
        # Every instruction past the warm-up boundary was event-free —
        # the measured window saw nothing.
        dl1.stats.reset()
        l1i.stats.reset()
        l2.stats.reset()
        mem_accesses = 0
        d_loads = d_stores = d_probes = d_lhits = d_shits = 0
        d_reads = d_writes = d_pchecks = d_pgens = d_echecks = d_egens = 0
        d_lhits_rep = d_rupdates = d_silent = 0
        i_probes = i_loads = i_lhits = i_reads = 0

    # Flush the fast-path locals back into the shared state.
    dl1._lru_clock = d_lru_clock
    dl1._silent_seq = silent_seq
    ds = dl1.stats
    ds.loads += d_loads
    ds.stores += d_stores
    ds.tag_probes += d_probes
    ds.load_hits += d_lhits
    ds.store_hits += d_shits
    ds.array_reads += d_reads
    ds.array_writes += d_writes
    ds.parity_checks += d_pchecks
    ds.parity_generates += d_pgens
    ds.ecc_checks += d_echecks
    ds.ecc_generates += d_egens
    ds.load_hits_with_replica += d_lhits_rep
    ds.replica_updates += d_rupdates
    ds.silent_stores += d_silent
    l1i._lru_clock = i_lru_clock
    istats = l1i.stats
    istats.tag_probes += i_probes
    istats.loads += i_loads
    istats.load_hits += i_lhits
    istats.array_reads += i_reads
    predictor_stats = PredictorStats(*pred_counts)

    # ---- table-driven outcome -> execution-latency translation --------
    # One vectorized pass over the whole trace: every instruction's
    # execution latency is resolved up front — the functional-unit
    # latency by op class, the store latency for stores, and for loads
    # the scheme's latency-table entry for the recorded outcome code
    # plus the measured L2/memory latency for misses.
    fu_specs = dict(DEFAULT_SPECS)
    if pipe_cfg.fu_specs:
        fu_specs.update(pipe_cfg.fu_specs)
    op_latency = np.zeros(8, dtype=np.int64)
    for op, name in _OP_TO_POOL.items():
        op_latency[op] = fu_specs[name].latency

    store_latency = hier_cfg.store_latency
    op_latency[OP_STORE] = store_latency
    exec_np = op_latency[ops_np]
    load_mask = ops_np == OP_LOAD
    codes_np = np.frombuffer(bytes(codes), dtype=np.uint8)
    load_lat = dl1.latency_table[codes_np] + np.asarray(extra, dtype=np.int64)
    exec_np[load_mask] = load_lat[load_mask]

    # ---- phase 2: scoreboard timing loop ------------------------------
    width = pipe_cfg.issue_width
    ruu_size = pipe_cfg.ruu_size
    lsq_size = pipe_cfg.lsq_size
    penalty = pipe_cfg.mispredict_penalty

    # Mix counters are order-independent — take them off the hot loop and
    # let the C level count them.  (`misp` is only ever set on branches,
    # so its population count is exactly the mispredict count.)
    loads = ops.count(OP_LOAD)
    stores = ops.count(OP_STORE)
    branches = ops.count(OP_BRANCH)
    mispredicts = sum(misp)

    # The scoreboard's only output is the final cycle count, so it can
    # run in the optional compiled kernel (a line-for-line transcription
    # of the loop below — see repro.core._native).  Ops sharing a pool
    # (branches issue on the integer ALUs) share one slice of the flat
    # unit array, exactly like the shared list objects in `by_op`.
    pool_offsets: dict = {}
    total_units = 0
    for name, fu in fu_specs.items():
        pool_offsets[name] = total_units
        total_units += fu.count
    pool_off = np.zeros(8, dtype=np.int64)
    pool_cnt = np.ones(8, dtype=np.int64)
    pool_interval = np.ones(8, dtype=np.int64)
    for op, name in _OP_TO_POOL.items():
        pool_off[op] = pool_offsets[name]
        pool_cnt[op] = fu_specs[name].count
        pool_interval[op] = fu_specs[name].interval

    ops_b, dests_b, src1_b, src2_b = columns
    retire_cycle = _native.phase2_cycles(
        n,
        ops_b,
        dests_b,
        src1_b,
        src2_b,
        np.asarray(fetch_lat, dtype=np.int64),
        exec_np,
        misp,
        width,
        penalty,
        ruu_size,
        lsq_size,
        pool_off,
        pool_cnt,
        pool_interval,
        total_units,
    )
    if retire_cycle is None:
        retire_cycle = _phase2_python(
            ops, dests, src1s, src2s, fetch_lat, exec_np.tolist(), misp,
            fu_specs, width, ruu_size, lsq_size, penalty,
        )

    # ---- result packing ----------------------------------------------
    pipeline_result = PipelineResult(
        cycles=retire_cycle,
        instructions=n,
        loads=loads,
        stores=stores,
        branches=branches,
        mispredicts=mispredicts,
        predictor_stats=predictor_stats,
    )
    hierarchy_stats = HierarchyStats(
        l1d=dl1.stats,
        l1i=l1i.stats,
        l2=l2.stats,
        memory_accesses=mem_accesses,
    )
    params = EnergyParams.from_geometries(
        config.geometry,
        hier_cfg.l2_geometry,
        parity_fraction=machine.parity_fraction,
        ecc_fraction=machine.ecc_fraction,
    )
    stats = dl1.stats
    return SimulationResult(
        benchmark=profile.name,
        scheme=config.name,
        instructions=n,
        cycles=retire_cycle,
        pipeline=pipeline_result,
        dl1=stats.snapshot(),
        miss_rate=stats.miss_rate,
        load_miss_rate=stats.load_miss_rate,
        replication_ability=stats.replication_ability,
        second_replica_ability=stats.second_replica_ability,
        loads_with_replica=stats.loads_with_replica,
        unrecoverable_load_fraction=stats.unrecoverable_load_fraction,
        energy=energy_of(hierarchy_stats, params, cycles=retire_cycle),
        write_buffer_stalls=0,
        vulnerability=None,
        l1i=None,
    )


def _phase2_python(
    ops, dests, src1s, src2s, fetch_lat, exec_lat, misp,
    fu_specs, width, ruu_size, lsq_size, penalty,
):
    """Pure-Python phase-2 scoreboard (fallback for :mod:`._native`).

    Semantically identical to :meth:`OutOfOrderPipeline.run`'s timing
    loop against precomputed latency streams; the compiled kernel is a
    line-for-line transcription of this function.  Returns the final
    cycle count — phase 2's only output, every other statistic being
    order-independent and precomputed.
    """
    from repro.cpu.funits import _OP_TO_POOL

    pools = {name: [0] * fu.count for name, fu in fu_specs.items()}
    by_op: list = [None] * 8
    for op, name in _OP_TO_POOL.items():
        by_op[op] = (pools[name], fu_specs[name].interval)

    reg_ready = [0] * 64
    ruu_ring = [0] * ruu_size
    lsq_ring = [0] * lsq_size

    dispatch_cycle = 0
    dispatched_in_cycle = 0
    redirect_floor = 0
    retire_cycle = 0
    retired_in_cycle = 0
    ruu_at = 0
    lsq_at = 0

    for op, dest, s1, s2, fetch_latency, execution_latency, mp in zip(
        ops, dests, src1s, src2s, fetch_lat, exec_lat, misp
    ):
        # --- dispatch constraints ---
        earliest = redirect_floor
        ruu_free = ruu_ring[ruu_at]
        if ruu_free > earliest:
            earliest = ruu_free
        is_mem = 3 < op < 6  # OP_LOAD or OP_STORE
        if is_mem:
            lsq_free = lsq_ring[lsq_at]
            if lsq_free > earliest:
                earliest = lsq_free
        if earliest > dispatch_cycle:
            dispatch_cycle = earliest
            dispatched_in_cycle = 1
        else:
            dispatched_in_cycle += 1
            if dispatched_in_cycle > width:
                dispatch_cycle += 1
                dispatched_in_cycle = 1

        # --- instruction fetch (precomputed latency) ---
        if fetch_latency > 1:
            dispatch_cycle += fetch_latency - 1
            dispatched_in_cycle = 1

        # --- operand readiness and functional-unit issue (inlined) ---
        ready = dispatch_cycle
        t = reg_ready[s1]
        if t > ready:
            ready = t
        t = reg_ready[s2]
        if t > ready:
            ready = t
        free, interval = by_op[op]
        # First-free unit, first index on ties — list.index(min) keeps
        # the same tie-break as the linear scan it replaces.
        best_time = min(free)
        start = ready if ready >= best_time else best_time
        free[free.index(best_time)] = start + interval

        # --- execution (latency precomputed for every op class) ---
        complete = start + execution_latency
        if mp:
            floor = complete + penalty
            if floor > redirect_floor:
                redirect_floor = floor

        if dest:
            reg_ready[dest] = complete

        # --- in-order retirement, up to `width` per cycle ---
        # (`retire_cycle` is the last retirement time: the original's
        # separate `last_retire` provably equals it after every step.)
        if complete > retire_cycle:
            retire_cycle = complete
            retired_in_cycle = 1
        else:
            retired_in_cycle += 1
            if retired_in_cycle > width:
                retire_cycle += 1
                retired_in_cycle = 1
        ruu_ring[ruu_at] = retire_cycle
        ruu_at += 1
        if ruu_at == ruu_size:
            ruu_at = 0
        if is_mem:
            lsq_ring[lsq_at] = retire_cycle
            lsq_at += 1
            if lsq_at == lsq_size:
                lsq_at = 0
    return retire_cycle
