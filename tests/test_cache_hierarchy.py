"""Tests for the Table 1 memory hierarchy: latencies and traffic routing."""


from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.schemes import make_cache


def build(scheme="BaseP", **scheme_kwargs):
    dl1 = make_cache(scheme, **scheme_kwargs)
    hierarchy = MemoryHierarchy(dl1, HierarchyConfig())
    return dl1, hierarchy


class TestLoadLatencies:
    def test_parity_load_hit_is_one_cycle(self):
        _, h = build("BaseP")
        h.load(0x1000, 0)  # miss, warm
        assert h.load(0x1000, 10) == 1

    def test_ecc_load_hit_is_two_cycles(self):
        _, h = build("BaseECC")
        h.load(0x1000, 0)
        assert h.load(0x1000, 10) == 2

    def test_speculative_ecc_load_hit_is_one_cycle(self):
        _, h = build("BaseECC-spec")
        h.load(0x1000, 0)
        assert h.load(0x1000, 10) == 1

    def test_l2_hit_miss_latency(self):
        _, h = build("BaseP")
        # Cold miss: L1 miss + L2 miss -> 6 + 100.
        assert h.load(0x1000, 0) == 106
        # Evict it from L1 by conflicting fills, keep it in L2.
        for i in range(1, 6):
            h.load(0x1000 + i * 64 * 64, i)
        assert h.load(0x1000, 100) == 6

    def test_icr_replicated_load_hit_latencies(self):
        # ICR-ECC-PS: unreplicated lines 2 cycles, replicated lines 1.
        # (replicate_into_invalid lets the replica land in the cold cache.)
        dl1, h = build("ICR-ECC-PS(S)", decay_window=0, replicate_into_invalid=True)
        h.load(0x1000, 0)
        assert h.load(0x1000, 10) == 2  # not yet replicated
        h.store(0x1000, 20)  # triggers replication
        block = dl1.probe(dl1.geometry.block_addr(0x1000))
        assert block.has_replica
        assert h.load(0x1000, 30) == 1

    def test_icr_pp_replicated_load_is_two_cycles(self):
        dl1, h = build("ICR-P-PP(S)", decay_window=0, replicate_into_invalid=True)
        h.load(0x1000, 0)
        h.store(0x1000, 10)
        assert dl1.probe(dl1.geometry.block_addr(0x1000)).has_replica
        assert h.load(0x1000, 20) == 2


class TestStores:
    def test_store_is_one_cycle_even_on_miss(self):
        _, h = build("BaseP")
        assert h.store(0x5000, 0) == 1

    def test_store_miss_still_fetches_line_into_l2(self):
        _, h = build("BaseP")
        h.store(0x5000, 0)
        assert h.l2.stats.loads == 1

    def test_writethrough_store_reaches_l2(self):
        _, h = build("BaseP-WT")
        h.store(0x5000, 0)
        assert h.stats.l2_store_writes == 1

    def test_writethrough_blocks_stay_clean(self):
        dl1, h = build("BaseP-WT")
        h.store(0x5000, 0)
        block = dl1.probe(dl1.geometry.block_addr(0x5000))
        assert not block.dirty

    def test_writethrough_full_buffer_stalls(self):
        _, h = build("BaseP-WT")
        latencies = [h.store(i * 4096, 0) for i in range(12)]
        assert latencies[0] == 1
        assert max(latencies) > 1
        assert h.stats.write_buffer_stall_cycles > 0

    def test_writeback_never_stalls_on_buffer(self):
        _, h = build("BaseP")
        latencies = [h.store(i * 4096, 0) for i in range(12)]
        assert all(latency == 1 for latency in latencies)


class TestWritebackRouting:
    def test_dirty_dl1_victim_written_to_l2(self):
        dl1, h = build("BaseP")
        h.store(0x0, 0)  # dirty block in set 0
        # Fill set 0 (4 ways) with conflicting blocks to evict it.
        for i in range(1, 5):
            h.load(i * 64 * 64, i)
        assert dl1.stats.writebacks == 1
        assert h.l2.stats.stores >= 1

    def test_clean_victims_are_silent(self):
        dl1, h = build("BaseP")
        h.load(0x0, 0)
        for i in range(1, 5):
            h.load(i * 64 * 64, i)
        assert dl1.stats.writebacks == 0


class TestInstructionFetch:
    def test_fetch_hit_is_one_cycle_after_warm(self):
        _, h = build()
        h.fetch(0x400000, 0)
        assert h.fetch(0x400000, 1) == 1

    def test_fetch_charged_once_per_block(self):
        _, h = build()
        h.fetch(0x400000, 0)
        before = h.l1i.stats.accesses
        h.fetch(0x400004, 1)  # same 32-byte block
        assert h.l1i.stats.accesses == before

    def test_fetch_miss_goes_to_l2(self):
        _, h = build()
        latency = h.fetch(0x400000, 0)
        assert latency > 1

    def test_icache_can_be_disabled(self):
        dl1 = make_cache("BaseP")
        h = MemoryHierarchy(dl1, HierarchyConfig(model_icache=False))
        assert h.fetch(0x400000, 0) == 1
        assert h.l1i.stats.accesses == 0


class TestProtectedICache:
    def test_protected_icache_fetch_works(self):
        dl1 = make_cache("BaseP")
        h = MemoryHierarchy(dl1, HierarchyConfig(protected_icache=True))
        first = h.fetch(0x400000, 0)
        assert first > 1  # cold miss
        assert h.fetch(0x400000, 10) == 1  # warm hit

    def test_icache_errors_always_recoverable(self):
        from repro.errors.injector import FaultInjector

        dl1 = make_cache("BaseP")
        h = MemoryHierarchy(dl1, HierarchyConfig(protected_icache=True))
        h.fetch(0x400000, 0)
        injector = FaultInjector(h.l1i, 0.0)
        block = h.l1i.probe(h.l1i.geometry.block_addr(0x400000))
        block.words[0].flip_data_bit(3)
        h.l1i.stats.errors_injected += 1
        h._last_fetch_block = -1  # force a real iL1 access
        latency = h.fetch(0x400000, 100)
        assert latency > 1  # refetch charged
        assert h.l1i.stats.load_errors_recovered_l2 == 1
        assert h.l1i.stats.load_errors_unrecoverable == 0

    def test_plain_icache_still_default(self):
        dl1 = make_cache("BaseP")
        h = MemoryHierarchy(dl1, HierarchyConfig())
        from repro.cache.set_assoc import SetAssociativeCache

        assert type(h.l1i) is SetAssociativeCache
