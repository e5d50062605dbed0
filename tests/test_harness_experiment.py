"""Tests for the experiment runner."""

import pytest

from repro.core.schemes import make_config
from repro.harness.experiment import (
    MachineConfig,
    normalized_cycles,
    run_experiment,
)
from repro.harness.spec import ExperimentSpec
from repro.workloads.spec2000 import profile_for


class TestRunExperiment:
    def test_returns_complete_result(self):
        result = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "ICR-P-PS(S)", n_instructions=10_000)
        )
        assert result.benchmark == "gzip"
        assert result.scheme == "ICR-P-PS(S)"
        assert result.instructions == 10_000
        assert result.cycles > 0
        assert 0.0 <= result.miss_rate <= 1.0
        assert 0.0 <= result.loads_with_replica <= 1.0
        assert result.energy.total_nj > 0

    def test_accepts_profile_object(self):
        profile = profile_for("mesa")
        result = run_experiment(
            ExperimentSpec.from_kwargs(profile, "BaseP", n_instructions=5_000)
        )
        assert result.benchmark == "mesa"

    def test_accepts_prebuilt_config(self):
        config = make_config("BaseECC")
        result = run_experiment(
            ExperimentSpec.from_kwargs("gzip", config, n_instructions=5_000)
        )
        assert result.scheme == "BaseECC"

    def test_config_plus_kwargs_rejected(self):
        config = make_config("BaseECC")
        with pytest.raises(ValueError):
            run_experiment(
                ExperimentSpec.from_kwargs(
                    "gzip", config, n_instructions=5_000, decay_window=9
                )
            )

    def test_deterministic(self):
        a = run_experiment(
            ExperimentSpec.from_kwargs("vpr", "ICR-P-PS(S)", n_instructions=10_000)
        )
        b = run_experiment(
            ExperimentSpec.from_kwargs("vpr", "ICR-P-PS(S)", n_instructions=10_000)
        )
        assert a.cycles == b.cycles
        assert a.dl1 == b.dl1

    def test_error_injection_turns_on_tracking(self):
        result = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseP", n_instructions=10_000, error_rate=0.01
        ))
        assert result.dl1["errors_injected"] > 0

    def test_error_injection_with_config_requires_tracking(self):
        config = make_config("BaseP")  # track_data=False
        with pytest.raises(ValueError):
            run_experiment(
                ExperimentSpec.from_kwargs(
                    "gzip", config, n_instructions=5_000, error_rate=0.01
                )
            )

    def test_machine_config_energy_fractions(self):
        cheap = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseECC", n_instructions=10_000,
            machine=MachineConfig(ecc_fraction=0.10),
        ))
        costly = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseECC", n_instructions=10_000,
            machine=MachineConfig(ecc_fraction=0.50),
        ))
        assert costly.energy.l1_checks_nj > cheap.energy.l1_checks_nj
        assert costly.cycles == cheap.cycles  # energy model is offline


class TestNormalizedCycles:
    def test_normalized_cycles(self):
        results = {
            scheme: run_experiment(
                ExperimentSpec("gzip", scheme, n_instructions=10_000)
            )
            for scheme in ("BaseP", "BaseECC")
        }
        norm = normalized_cycles(results)
        assert norm["BaseP"] == 1.0
        assert norm["BaseECC"] > 1.0


class TestWarmupExclusion:
    def test_warmup_lowers_measured_miss_rate(self):
        cold = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "BaseP", n_instructions=20_000)
        )
        warm = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseP", n_instructions=20_000, warmup_instructions=30_000
        ))
        assert warm.miss_rate < cold.miss_rate

    def test_warmup_zero_is_identity(self):
        a = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "BaseP", n_instructions=10_000)
        )
        b = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseP", n_instructions=10_000, warmup_instructions=0
        ))
        assert a.cycles == b.cycles
        assert a.dl1 == b.dl1

    def test_warmup_counts_exclude_warm_phase(self):
        warm = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseP", n_instructions=10_000, warmup_instructions=10_000
        ))
        # Post-reset the dL1 sees only the measured phase's accesses.
        mem_ops = warm.dl1["loads"] + warm.dl1["stores"]
        assert mem_ops < 10_000  # ~34% of 10K instructions
