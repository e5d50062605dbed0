"""The full scheme matrix: object and array backends are bit-identical.

Runs every registered scheme on several independently-seeded traces
through both backends and compares the complete
``SimulationResult.to_dict()`` — cycles, every cache counter, predictor
stats, energy.  This is the golden-pin contract of the array kernel:
whichever dispatch tier a spec lands on (two-phase batched engine,
per-access SoA dL1, or the object fallback), the numbers must be the
ones the reference implementation produces.
"""

import pytest

from repro.core.array_kernel import backend_mode
from repro.core.registry import registered_schemes
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

N = 12_000

#: (benchmark, trace_seed): three genuinely different traces — distinct
#: mixes, distinct seeds — so agreement is not an artifact of one input.
TRACES = [("gzip", 0), ("vpr", 3), ("mcf", 11)]


def _pair(benchmark, scheme, trace_seed, **extra):
    spec = ExperimentSpec(
        benchmark,
        scheme,
        n_instructions=N,
        trace_seed=trace_seed,
        backend="object",
        **extra,
    )
    return spec, spec.replace(backend="array")


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("scheme", registered_schemes())
def test_all_schemes_bit_identical(scheme, bench, trace_seed):
    spec_obj, spec_arr = _pair(bench, scheme, trace_seed)
    reference = run_experiment(spec_obj).to_dict()
    candidate = run_experiment(spec_arr).to_dict()
    assert candidate == reference, (
        f"{scheme} on {bench} (seed {trace_seed}) diverges under the "
        f"{backend_mode(spec_arr)} tier"
    )


def test_warmup_window_bit_identical():
    """The mid-trace stats reset lands on the same instruction."""
    spec_obj, spec_arr = _pair(
        "gzip", "ICR-P-PS(S)", 0, warmup_instructions=3_000
    )
    assert run_experiment(spec_arr).to_dict() == run_experiment(
        spec_obj
    ).to_dict()


def test_backend_mode_tiers():
    """The reported dispatch tier matches the eligibility rules."""

    def mode(scheme, **extra):
        return backend_mode(
            ExperimentSpec("gzip", scheme, backend="array", **extra)
        )

    # Fault-free LRU schemes take the two-phase engine; write-through and
    # decay windows > 0 run it with phase 2 in lockstep.
    assert mode("BaseP") == "array-batched"
    assert mode("ICR-ECC-PP(LS)") == "array-batched"
    assert mode("BaseP-WT") == "array-batched"
    assert mode("ICR-P-PS(S)", scheme_kwargs={"decay_window": 2048}) == (
        "array-batched"
    )
    # dL1 fault injection is cycle-driven too: lockstep, on the SoA cache
    # with bit-accurate words.
    assert mode("ICR-P-PS(S)", error_rate=1e-3) == "array-batched"
    assert mode("BaseECC", error_rate=1e-2, error_model="burst") == "array-batched"
    assert mode("BaseP", scheme_kwargs={"track_data": True}) == "array-batched"
    # dL1 models without an SoA port run the engine's demand lane:
    # scrubbing and vulnerability sampling (on ICRCache), hints, non-LRU
    # replacement and the baselines the registry builds whole.
    assert mode("ICR-P-PS(S)", error_rate=1e-3, scrub_period=500) == (
        "array-batched"
    )
    assert mode("ICR-P-PS(S)", measure_vulnerability=True) == "array-batched"
    assert mode("ICR-P-PS(S)", scheme_kwargs={"replacement": "fifo"}) == (
        "array-batched"
    )
    assert mode("rcache") == "array-batched"
    assert mode("victim-cache") == "array-batched"
    # A protected or injected iL1 runs per access under the object
    # hierarchy: on ArrayDL1 where it applies, else on objects.
    assert mode("BaseP", error_rate=1e-3, icache_error_rate=1e-3) == "array-soa"
    assert mode("rcache", icache_error_rate=1e-3) == "object"
    assert mode("BaseP", icache_error_rate=1e-3, scrub_period=500) == "object"
