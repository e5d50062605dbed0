"""Tests for the synthetic workload generator."""

import pytest

from repro.cpu.isa import OP_BRANCH, OP_LOAD, OP_STORE
from repro.workloads.generator import (
    CHASE_BASE,
    CODE_BASE,
    HOT_BASE,
    STACK_BASE,
    STREAM_BASE,
    WorkloadGenerator,
    WorkloadProfile,
    trace_for,
)


@pytest.fixture
def profile():
    return WorkloadProfile(name="unit", seed=1)


class TestDeterminism:
    def test_same_profile_same_trace(self, profile):
        a = WorkloadGenerator(profile).generate(5000)
        b = WorkloadGenerator(profile).generate(5000)
        assert a.op == b.op
        assert a.addr == b.addr
        assert a.taken == b.taken

    def test_different_seeds_differ(self, profile):
        from dataclasses import replace

        a = WorkloadGenerator(profile).generate(5000)
        b = WorkloadGenerator(replace(profile, seed=2)).generate(5000)
        assert a.addr != b.addr

    def test_seed_offset_differs(self, profile):
        a = WorkloadGenerator(profile).generate(5000, seed_offset=0)
        b = WorkloadGenerator(profile).generate(5000, seed_offset=1)
        assert a.addr != b.addr

    def test_trace_for_caches(self, profile):
        assert trace_for(profile, 2000) is trace_for(profile, 2000)

    @pytest.mark.parametrize("error_rate", [0.0, 1e-2])
    def test_batched_run_loads_its_trace_once(self, error_rate):
        """The engine and its prestage share one memoized trace.

        ``lru_cache`` keys positional and keyword spellings apart, so a
        caller passing ``seed_offset`` positionally would load (and keep)
        a second copy.
        """
        from repro.core.array_kernel import _phase1_prestage, backend_mode
        from repro.harness.experiment import run_experiment
        from repro.harness.spec import ExperimentSpec

        spec = ExperimentSpec(
            "gzip", "ICR-P-PS(S)", n_instructions=2_000, trace_seed=5,
            error_rate=error_rate, backend="array",
        )
        assert backend_mode(spec) == "array-batched"
        trace_for.cache_clear()
        _phase1_prestage.cache_clear()
        run_experiment(spec)
        info = trace_for.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


class TestInstructionMix:
    def test_mix_close_to_profile(self, profile):
        trace = WorkloadGenerator(profile).generate(40_000)
        assert trace.memory_fraction() == pytest.approx(
            profile.mem_fraction, abs=0.04
        )
        mix = trace.mix()
        assert mix["branch"] == pytest.approx(
            profile.branch_fraction, abs=0.06
        )

    def test_store_ratio(self, profile):
        trace = WorkloadGenerator(profile).generate(40_000)
        stores = sum(1 for op in trace.op if op == OP_STORE)
        loads = sum(1 for op in trace.op if op == OP_LOAD)
        assert stores / (stores + loads) == pytest.approx(
            profile.store_ratio, abs=0.06
        )

    def test_fp_profile_generates_fp_ops(self):
        profile = WorkloadProfile(name="fp", fp_fraction=0.6, seed=3)
        mix = WorkloadGenerator(profile).generate(20_000).mix()
        assert mix.get("fp_alu", 0) + mix.get("fp_mul", 0) > 0.1

    def test_trace_validates(self, profile):
        WorkloadGenerator(profile).generate(10_000).validate()


class TestAddressRegions:
    def test_memory_ops_in_known_regions(self, profile):
        trace = WorkloadGenerator(profile).generate(20_000)
        for op, addr in zip(trace.op, trace.addr):
            if op in (OP_LOAD, OP_STORE):
                assert addr >= HOT_BASE

    def test_region_shares_match_profile(self):
        profile = WorkloadProfile(
            name="regions", p_hot=0.4, p_stream=0.3, p_chase=0.2, p_stack=0.1,
            seed=5,
        )
        trace = WorkloadGenerator(profile).generate(60_000)
        counts = {"hot": 0, "stream": 0, "chase": 0, "stack": 0}
        total = 0
        for op, addr in zip(trace.op, trace.addr):
            if op not in (OP_LOAD, OP_STORE):
                continue
            total += 1
            if addr >= STACK_BASE:
                counts["stack"] += 1
            elif addr >= CHASE_BASE:
                counts["chase"] += 1
            elif addr >= STREAM_BASE:
                counts["stream"] += 1
            else:
                counts["hot"] += 1
        assert counts["hot"] / total == pytest.approx(0.4, abs=0.07)
        assert counts["stream"] / total == pytest.approx(0.3, abs=0.07)
        assert counts["chase"] / total == pytest.approx(0.2, abs=0.07)

    def test_streams_are_sequential(self):
        profile = WorkloadProfile(
            name="streams", p_hot=0.0, p_stream=1.0, p_stack=0.0, p_chase=0.0,
            n_streams=1, seed=7,
        )
        trace = WorkloadGenerator(profile).generate(5000)
        addrs = [
            a for op, a in zip(trace.op, trace.addr) if op in (OP_LOAD, OP_STORE)
        ]
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        # One stream advancing 8 bytes per access (modulo wraparound).
        assert all(d == 8 for d in deltas if 0 < d < 64)
        assert sum(1 for d in deltas if d == 8) > len(deltas) * 0.95

    def test_phases_shift_hot_region(self):
        profile = WorkloadProfile(
            name="phases", p_hot=1.0, p_stream=0.0, p_stack=0.0, p_chase=0.0,
            phase_instructions=1000, seed=9,
        )
        trace = WorkloadGenerator(profile).generate(3000)
        first = {
            a >> 6
            for op, a in zip(trace.op[:900], trace.addr[:900])
            if op in (OP_LOAD, OP_STORE)
        }
        last = {
            a >> 6
            for op, a in zip(trace.op[2100:], trace.addr[2100:])
            if op in (OP_LOAD, OP_STORE)
        }
        assert first and last and not (first & last)

    def test_phase_shift_preserves_set_mapping(self):
        profile = WorkloadProfile(
            name="phase-sets", p_hot=1.0, p_stream=0.0, p_stack=0.0,
            p_chase=0.0, phase_instructions=1000, seed=9,
        )
        trace = WorkloadGenerator(profile).generate(3000)
        first = {
            (a >> 6) % 64
            for op, a in zip(trace.op[:900], trace.addr[:900])
            if op in (OP_LOAD, OP_STORE)
        }
        last = {
            (a >> 6) % 64
            for op, a in zip(trace.op[2100:], trace.addr[2100:])
            if op in (OP_LOAD, OP_STORE)
        }
        # The phase copy is set-aligned: both windows sample the same span
        # of sets (subset relation allows for sampling noise).
        span = round(64 * profile.hot_set_fraction)
        assert first <= set(range(span))
        assert last <= set(range(span))

    def test_hot_set_concentration(self):
        profile = WorkloadProfile(
            name="conc", p_hot=1.0, p_stream=0.0, p_stack=0.0, p_chase=0.0,
            hot_set_fraction=0.25, hot_blocks=64, seed=11,
        )
        trace = WorkloadGenerator(profile).generate(10_000)
        sets = {
            (a >> 6) % 64
            for op, a in zip(trace.op, trace.addr)
            if op in (OP_LOAD, OP_STORE)
        }
        assert len(sets) <= 16


class TestBranchBehaviour:
    def test_pcs_stay_in_code_region(self, profile):
        trace = WorkloadGenerator(profile).generate(5000)
        for pc in trace.pc:
            assert CODE_BASE <= pc < CODE_BASE + 4 * profile.body_size

    def test_loopback_targets_segment_start(self, profile):
        trace = WorkloadGenerator(profile).generate(5000)
        for op, pc, taken, target in zip(
            trace.op, trace.pc, trace.taken, trace.target
        ):
            if op == OP_BRANCH and taken and target < pc:
                # Backward branches land on a segment boundary.
                assert (target - CODE_BASE) % (4 * profile.segment_length) == 0

    def test_predictable_profile_has_biased_branches(self):
        profile = WorkloadProfile(name="pred", branch_predictability=1.0, seed=13)
        trace = WorkloadGenerator(profile).generate(30_000)
        taken = sum(
            1 for op, t in zip(trace.op, trace.taken) if op == OP_BRANCH and t
        )
        branches = sum(1 for op in trace.op if op == OP_BRANCH)
        bias = taken / branches
        assert bias > 0.6 or bias < 0.4  # strongly skewed overall


class TestValidation:
    def test_bad_region_probabilities_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", p_hot=0.9, p_stream=0.9)

    def test_bad_mem_fraction_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", mem_fraction=1.5)

    def test_tiny_body_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", body_size=4)
