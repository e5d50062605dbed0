"""Tests for the victim-cache comparator."""

import pytest

from repro.baselines.victim_cache import (
    VictimCache,
    VictimCacheDL1,
    run_victim_cache_baseline,
)
from repro.cache.hierarchy import MemoryHierarchy


class TestVictimCacheMechanics:
    def test_insert_extract(self):
        vc = VictimCache(entries=4)
        vc.insert(0x10, dirty=True)
        hit, dirty = vc.extract(0x10)
        assert hit and dirty

    def test_extract_removes(self):
        vc = VictimCache(entries=4)
        vc.insert(0x10, dirty=False)
        vc.extract(0x10)
        hit, _ = vc.extract(0x10)
        assert not hit

    def test_miss_probe(self):
        vc = VictimCache(entries=4)
        hit, dirty = vc.extract(0x99)
        assert not hit and not dirty
        assert vc.stats.probes == 1

    def test_lru_eviction(self):
        vc = VictimCache(entries=2)
        vc.insert(1, False)
        vc.insert(2, False)
        vc.insert(3, False)  # evicts 1
        assert not vc.extract(1)[0]
        assert vc.extract(2)[0]
        assert vc.stats.evictions == 1

    def test_reinsert_refreshes(self):
        vc = VictimCache(entries=2)
        vc.insert(1, False)
        vc.insert(2, False)
        vc.insert(1, True)  # refresh + dirty upgrade
        vc.insert(3, False)  # evicts 2, not 1
        assert vc.extract(1) == (True, True)

    def test_pushing_out_a_dirty_line_names_it(self):
        vc = VictimCache(entries=1)
        assert vc.insert(1, dirty=True) is None
        assert vc.insert(2, dirty=False) == 1  # dirty: write it back
        assert vc.insert(3, dirty=False) is None  # clean: just dropped

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            VictimCache(entries=0)


class TestWritebacks:
    def test_dirty_line_pushed_out_of_the_victim_cache_reaches_l2(self):
        dl1 = VictimCacheDL1(entries=1)
        h = MemoryHierarchy(dl1)
        geometry = dl1.geometry
        stride = geometry.n_sets * geometry.block_size  # same dL1 set
        h.store(0, 0)
        for way in range(1, geometry.associativity + 1):
            h.load(way * stride, 0)  # the last fill sends block 0 to the VC
        assert dl1.stats.writebacks == 1
        l2_writes = h.l2.stats.stores
        h.load((geometry.associativity + 1) * stride, 0)  # pushes block 0 out
        assert h.l2.stats.stores == l2_writes + 1
        assert h.l2.probe(0).dirty


class TestSwapBack:
    def test_a_full_victim_cache_keeps_the_line_it_swaps_back(self):
        dl1 = VictimCacheDL1(entries=1)
        geometry = dl1.geometry
        stride = geometry.n_sets * geometry.block_size  # same dL1 set
        for way in range(geometry.associativity + 1):
            dl1.access(way * stride, False, 0)  # the last fill sends 0 to the VC
        # Missing on block 0 displaces another line into the full VC;
        # the swap must still bring block 0 back from it.
        outcome = dl1.access(0, False, 0)
        assert outcome.replica_fill and outcome.latency == 2
        assert dl1.victim_cache.stats.hits == 1
        assert dl1.victim_cache.extract(geometry.block_addr(stride))[0]

    def test_a_swap_restores_the_dirty_state(self):
        dl1 = VictimCacheDL1(entries=2)
        geometry = dl1.geometry
        stride = geometry.n_sets * geometry.block_size
        dl1.access(0, True, 0)
        for way in range(1, geometry.associativity + 1):
            dl1.access(way * stride, False, 0)
        assert dl1.access(0, False, 0).replica_fill
        assert dl1.injection_target.peek(0).dirty

    def test_one_dl1_access_per_memory_op(self):
        from repro.harness.experiment import run_experiment
        from repro.harness.spec import ExperimentSpec

        result = run_experiment(
            ExperimentSpec.from_kwargs("mcf", "victim-cache", n_instructions=10_000)
        )
        assert result.dl1["replica_fills"] > 0  # swaps happened
        assert (
            result.dl1["loads"] + result.dl1["stores"]
            == result.pipeline.loads + result.pipeline.stores
        )


class TestBaselineRun:
    def test_produces_result(self):
        result = run_victim_cache_baseline("gzip", n_instructions=20_000)
        assert result.cycles > 0
        assert 0.0 <= result.victim_hit_rate <= 1.0

    def test_victim_cache_catches_conflict_misses(self):
        result = run_victim_cache_baseline("mcf", n_instructions=30_000)
        assert result.victim_hits > 0

    def test_helps_or_matches_base(self):
        from repro.harness.experiment import run_experiment
        from repro.harness.spec import ExperimentSpec

        base = run_experiment(
            ExperimentSpec.from_kwargs("mcf", "BaseP", n_instructions=30_000)
        )
        vc = run_victim_cache_baseline("mcf", n_instructions=30_000)
        assert vc.cycles <= base.cycles * 1.001

    def test_icr_leave_mode_in_victim_cache_league(self):
        """Section 5.6: ICR's free in-cache victim effect is comparable
        to a dedicated 16-entry victim cache on the conflict-heavy mcf."""
        from repro.harness.experiment import run_experiment
        from repro.harness.spec import ExperimentSpec

        base = run_experiment(
            ExperimentSpec.from_kwargs("mcf", "BaseP", n_instructions=40_000)
        )
        vc = run_victim_cache_baseline("mcf", n_instructions=40_000)
        icr = run_experiment(ExperimentSpec.from_kwargs(
            "mcf",
            "ICR-P-PS(S)",
            n_instructions=40_000,
            decay_window=1000,
            leave_replicas_on_evict=True,
        ))
        vc_gain = 1.0 - vc.cycles / base.cycles
        icr_gain = 1.0 - icr.cycles / base.cycles
        assert icr_gain > 0.3 * vc_gain
