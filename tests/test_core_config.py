"""Tests for ICRConfig, distance resolution and the latency table."""

import pytest

from repro.cache.set_assoc import CacheGeometry
from repro.coding.protection import ProtectionKind
from repro.core.config import (
    ICRConfig,
    LookupMode,
    ReplicationTrigger,
    VictimPolicy,
    power2_distances,
    resolve_distance,
    variant,
)
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec


class TestResolveDistance:
    def test_fractions(self):
        assert resolve_distance("N/2", 64) == 32
        assert resolve_distance("N/4", 64) == 16
        assert resolve_distance("N/8", 64) == 8

    def test_zero(self):
        assert resolve_distance("0", 64) == 0
        assert resolve_distance(0, 64) == 0

    def test_literal_integers(self):
        assert resolve_distance(7, 64) == 7
        assert resolve_distance("7", 64) == 7

    def test_wraps_modulo_sets(self):
        assert resolve_distance(65, 64) == 1

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            resolve_distance("N/5", 64)  # 64 % 5 != 0


class TestPower2Distances:
    def test_sequence_shape(self):
        # N=64: 32, then 32 -/+ 16, then 32 -/+ 8, ...
        assert power2_distances(64, 5) == [32, 16, 48, 24, 40]

    def test_max_attempts_respected(self):
        assert len(power2_distances(64, 3)) == 3

    def test_deduplicates_small_caches(self):
        seq = power2_distances(4, 8)
        assert len(seq) == len(set(seq))

    def test_first_is_always_n_over_2(self):
        for n in (8, 16, 64, 256):
            assert power2_distances(n, 4)[0] == n // 2


class TestLoadHitLatency:
    def test_base_parity(self):
        config = ICRConfig(trigger=ReplicationTrigger.NONE)
        assert config.load_hit_latency(replicated=False) == 1

    def test_base_ecc(self):
        config = ICRConfig(
            trigger=ReplicationTrigger.NONE,
            protection_unreplicated=ProtectionKind.ECC,
        )
        assert config.load_hit_latency(replicated=False) == 2

    def test_speculative_ecc_hides_latency(self):
        config = ICRConfig(
            trigger=ReplicationTrigger.NONE,
            protection_unreplicated=ProtectionKind.ECC,
            speculative_ecc_loads=True,
        )
        assert config.load_hit_latency(replicated=False) == 1

    def test_ps_replicated_is_one_cycle(self):
        config = ICRConfig(lookup=LookupMode.SERIAL)
        assert config.load_hit_latency(replicated=True) == 1

    def test_pp_replicated_is_two_cycles(self):
        config = ICRConfig(lookup=LookupMode.PARALLEL)
        assert config.load_hit_latency(replicated=True) == 2

    def test_icr_ecc_unreplicated_is_two_cycles(self):
        config = ICRConfig(protection_unreplicated=ProtectionKind.ECC)
        assert config.load_hit_latency(replicated=False) == 2
        assert config.load_hit_latency(replicated=True) == 1


class TestProtectionFor:
    def test_replicated_lines_always_parity(self):
        config = ICRConfig(protection_unreplicated=ProtectionKind.ECC)
        assert config.protection_for(replicated=True) is ProtectionKind.PARITY

    def test_unreplicated_keeps_configured_kind(self):
        config = ICRConfig(protection_unreplicated=ProtectionKind.ECC)
        assert config.protection_for(replicated=False) is ProtectionKind.ECC

    def test_base_scheme_ignores_replicated_flag(self):
        config = ICRConfig(
            trigger=ReplicationTrigger.NONE,
            protection_unreplicated=ProtectionKind.ECC,
        )
        assert config.protection_for(replicated=True) is ProtectionKind.ECC


class TestValidation:
    def test_three_replicas_rejected(self):
        with pytest.raises(ValueError):
            ICRConfig(max_replicas=3)

    def test_two_replicas_need_second_distances(self):
        with pytest.raises(ValueError):
            ICRConfig(max_replicas=2)

    def test_two_replicas_ok_with_distances(self):
        config = ICRConfig(max_replicas=2, second_replica_distances=("N/4",))
        assert config.resolved_second_distances() == (16,)

    def test_bad_write_policy_rejected(self):
        with pytest.raises(ValueError):
            ICRConfig(write_policy="writearound")

    def test_base_cannot_request_replicas(self):
        with pytest.raises(ValueError):
            ICRConfig(
                trigger=ReplicationTrigger.NONE,
                max_replicas=2,
                second_replica_distances=("N/4",),
            )


class TestDistancesResolution:
    def test_default_distance_is_n_over_2(self):
        assert ICRConfig().resolved_distances() == (32,)

    def test_all_distances_merged_unique(self):
        config = ICRConfig(
            replica_distances=("N/2", "N/4"),
            second_replica_distances=("N/4",),
            max_replicas=2,
        )
        assert config.all_replica_distances() == (32, 16)

    def test_geometry_changes_resolution(self):
        config = ICRConfig(geometry=CacheGeometry(32 * 1024, 4, 64))  # 128 sets
        assert config.resolved_distances() == (64,)


class TestVariant:
    def test_variant_replaces_fields(self):
        config = ICRConfig()
        changed = variant(config, decay_window=1000, name="x")
        assert changed.decay_window == 1000
        assert changed.name == "x"
        assert config.decay_window == 0  # original untouched

    def test_triggers(self):
        assert ReplicationTrigger.STORES.on_store
        assert not ReplicationTrigger.STORES.on_fill
        assert ReplicationTrigger.LOADS_AND_STORES.on_fill
        assert not ReplicationTrigger.NONE.on_store


class TestEnumSpellings:
    def test_config_stores_members(self):
        spelled = ICRConfig(
            trigger="LS",
            lookup="PP",
            victim_policy="replica-first",
            protection_unreplicated="ecc",
        )
        assert spelled == ICRConfig(
            trigger=ReplicationTrigger.LOADS_AND_STORES,
            lookup=LookupMode.PARALLEL,
            victim_policy=VictimPolicy.REPLICA_FIRST,
            protection_unreplicated=ProtectionKind.ECC,
        )
        assert spelled.victim_policy is VictimPolicy.REPLICA_FIRST

    def test_unknown_spelling_rejected_at_build(self):
        with pytest.raises(ValueError, match="dead-frist"):
            ICRConfig(victim_policy="dead-frist")

    @pytest.mark.parametrize("backend", ["array", "object"])
    def test_string_knob_runs_like_the_enum(self, backend):
        """The string form runs end to end and equals the enum form."""

        def result(policy):
            spec = ExperimentSpec.from_kwargs(
                "gzip",
                "ICR-P-PS(S)",
                victim_policy=policy,
                decay_window=1000,
                n_instructions=4_000,
                backend=backend,
            )
            return run_experiment(spec).to_dict()

        assert result("dead-first") == result(VictimPolicy.DEAD_FIRST)
