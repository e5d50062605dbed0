"""Fault-injected runs: the array kernel is bit-identical to the object kernel.

Every Fig. 14 number comes from runs with ``error_rate > 0``.  Under
``backend="array"`` they run on the ``array-batched`` tier with phase 2
in lockstep, where :class:`~repro.core.array_kernel.ArrayDL1` keeps
bit-accurate words as golden values plus a sparse overlay of error
patterns; the object kernel's ``track_data`` path is the reference.
The unchanged ``FaultInjector`` and error models drive both kernels, so
the fault sites — and with them the complete
``SimulationResult.to_dict()`` — must agree for every error model,
scheme and seed.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.protection import ProtectedWord, ProtectionKind
from repro.core import array_kernel
from repro.core.array_kernel import ArrayDL1, backend_mode
from repro.core.icr_cache import ICRCache
from repro.core.schemes import make_config
from repro.errors.injector import FaultInjector
from repro.errors.models import MODELS
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec
from tests import test_golden_fault_injection as pins

N = 3_000

#: case name -> (scheme, scheme kwargs).  BaseP-WT exercises the
#: write-through memory image, BaseECC-SW the silent stores that write
#: no data, ICR-Ring-2 ring placement with two replicas, and
#: leave-in-place replicas the raw copy of a leftover (possibly
#: corrupted) replica into a new primary.
SCHEMES = {
    "BaseP": ("BaseP", {}),
    "BaseECC": ("BaseECC", {}),
    "BaseECC-SW": ("BaseECC-SW", {}),
    "ICR-P-PS(S)": ("ICR-P-PS(S)", {}),
    "ICR-ECC-PS(S)": ("ICR-ECC-PS(S)", {}),
    "BaseP-WT": ("BaseP-WT", {}),
    "ICR-Ring-2": ("ICR-Ring-2", {}),
    "ICR-P-PS(S)/leave": ("ICR-P-PS(S)", {"leave_replicas_on_evict": True}),
}

#: (benchmark, error_seed): three distinct traces and fault histories.
SEEDS = [("gzip", 1), ("mcf", 77), ("vpr", 2024)]


def _pair(benchmark, scheme, kwargs, *, rate, seed, model):
    spec = ExperimentSpec.from_kwargs(
        benchmark,
        scheme,
        n_instructions=N,
        error_rate=rate,
        error_seed=seed,
        error_model=model,
        backend="object",
        **kwargs,
    )
    return spec, spec.replace(backend="array")


def _assert_identical(spec_obj, spec_arr):
    assert backend_mode(spec_arr) == "array-batched"
    reference = run_experiment(spec_obj).to_dict()
    candidate = run_experiment(spec_arr).to_dict()
    assert reference["dl1"]["errors_injected"] > 0
    assert candidate == reference, {
        key: (reference["dl1"][key], candidate["dl1"][key])
        for key in reference["dl1"]
        if reference["dl1"][key] != candidate["dl1"][key]
    }


@pytest.mark.parametrize("bench,seed", SEEDS)
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("case", sorted(SCHEMES))
def test_fault_injected_trial_bit_identical(case, model, bench, seed):
    scheme, kwargs = SCHEMES[case]
    _assert_identical(
        *_pair(bench, scheme, kwargs, rate=1e-2, seed=seed, model=model)
    )


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(sorted(SCHEMES)),
    model=st.sampled_from(sorted(MODELS)),
    rate=st.sampled_from([1e-3, 1e-2, 5e-2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fault_injection_sweep(case, model, rate, seed):
    scheme, kwargs = SCHEMES[case]
    _assert_identical(
        *_pair("gzip", scheme, kwargs, rate=rate, seed=seed, model=model)
    )


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize(
    "scheme,kwargs",
    [("BaseP", {"track_data": False}), (make_config("ICR-P-PS(S)"), {})],
    ids=["named", "prebuilt"],
)
def test_fault_spec_without_stored_words_is_refused(scheme, kwargs, backend):
    """Injecting into a dL1 without ``track_data`` raises on every tier."""
    spec = ExperimentSpec.from_kwargs(
        "gzip", scheme, n_instructions=N, error_rate=1e-2, backend=backend, **kwargs
    )
    expected_tier = "array-batched" if backend == "array" else "object"
    assert backend_mode(spec) == expected_tier
    with pytest.raises(ValueError, match="error injection requires track_data=True"):
        run_experiment(spec)


def test_overlay_copy_paths_are_exercised(monkeypatch):
    """The raw-copy and re-encode paths run on corrupted words.

    A replica install, a fill from a leftover replica and a protection
    switch copy or re-encode the *stored* data; the differential cases
    above only mean something if those paths see corrupted cells.
    """
    carried = []
    real = array_kernel._recode

    def spy(errors, old, kind):
        recoded = real(errors, old, kind)
        carried.append(len(recoded))
        return recoded

    monkeypatch.setattr(array_kernel, "_recode", spy)
    for scheme, kwargs in (
        ("ICR-ECC-PS(S)", {}),
        ("ICR-P-PS(S)", {"leave_replicas_on_evict": True}),
    ):
        spec = _pair("mcf", scheme, kwargs, rate=5e-2, seed=5, model="random")[1]
        run_experiment(spec)
    assert sum(1 for n in carried if n) > 0


@pytest.mark.parametrize("model", ["random", "burst"])
@pytest.mark.parametrize("case", sorted(SCHEMES))
def test_word_state_matches_object_kernel(case, model):
    """Kernel level: memory image, golden values and stored words agree.

    Drives both dL1s with one access stream under injection and compares
    the whole bit-accurate state — including the error-free memory image
    (dirty-eviction publishing, write-through store updates), which the
    run statistics alone cannot see.
    """
    scheme, kwargs = SCHEMES[case]
    config = make_config(scheme, track_data=True, **kwargs)
    obj, arr = ICRCache(config), ArrayDL1(config)
    for cache in (obj, arr):
        FaultInjector(cache, 2e-2, model=model, seed=11)
    rng = random.Random(3)
    lines = [rng.randrange(1 << 12) for _ in range(384)]
    for now in range(1, 4_000):
        addr = (rng.choice(lines) << 6) | (rng.randrange(8) << 3)
        is_write = rng.random() < 0.3
        for cache in (obj, arr):
            cache.access(addr, is_write, now)

    assert arr.stats.snapshot() == obj.stats.snapshot()
    assert arr._memory_image == obj._memory_image
    assoc = config.geometry.associativity
    for set_index, ways in enumerate(obj.sets):
        for way, block in enumerate(ways):
            f = set_index * assoc + way
            assert arr._valid[f] == block.valid
            if not block.valid:
                continue
            assert arr._tag[f] == block.block_addr
            assert arr._gold[f * 8 : f * 8 + 8] == block.golden
            code = arr._prot[f]
            errors = arr._overlay.get(f, {})
            for i, word in enumerate(block.words):
                cell = array_kernel._encode(code, block.golden[i]) ^ errors.get(i, 0)
                read = word.read()
                assert array_kernel._read(code, cell) == (
                    read.error_detected,
                    read.corrected,
                    read.data,
                )
                assert array_kernel._raw_data(code, cell) == word.raw_data


@pytest.mark.parametrize("kind", list(ProtectionKind))
def test_cells_match_protected_words(kind):
    """Stored-cell helpers agree with ``ProtectedWord`` under any flips."""
    code = array_kernel._prot_code(kind)
    rng = random.Random(kind.value)
    for _ in range(2_000):
        data = rng.getrandbits(64)
        word = ProtectedWord(kind, data)
        cell = array_kernel._encode(code, data)
        for bit in rng.sample(range(72), rng.randint(0, 4)):
            word.flip_bit(bit)
            cell ^= 1 << bit
        read = word.read()
        assert array_kernel._read(code, cell) == (
            read.error_detected,
            read.corrected,
            read.data,
        )
        assert array_kernel._raw_data(code, cell) == word.raw_data


@pytest.mark.parametrize("kind", list(ProtectionKind))
def test_error_patterns_read_like_cells(kind):
    """Reading a stored cell is reading its error pattern, data offset.

    The overlay keeps ``cell ^ fresh(golden)`` only; this is the
    linearity fact that makes it exact for both codes.
    """
    code = array_kernel._prot_code(kind)
    rng = random.Random(7)
    for _ in range(2_000):
        golden = rng.getrandbits(64)
        error = 0
        for bit in rng.sample(range(72), rng.randint(1, 5)):
            error ^= 1 << bit
        detected, corrected, flipped = array_kernel._read(code, error)
        cell = array_kernel._encode(code, golden) ^ error
        assert array_kernel._read(code, cell) == (
            detected,
            corrected,
            golden ^ flipped,
        )
        assert array_kernel._raw_data(code, cell) == golden ^ (
            array_kernel._raw_data(code, error)
        )


def _golden_spec(name, backend):
    kwargs = dict(pins.CONFIGS[name])
    scheme = kwargs.pop("scheme")
    return ExperimentSpec.from_kwargs(
        "gzip",
        scheme,
        n_instructions=pins.N,
        error_rate=pins.ERROR_RATE,
        error_seed=pins.ERROR_SEED,
        backend=backend,
        **kwargs,
    )


@pytest.mark.parametrize("name", sorted(pins.CONFIGS))
def test_fault_injection_golden_under_array_backend(name):
    """The fault-injection pins hold under ``backend="array"``.

    Every pin runs on the ``array-batched`` tier; the scrub pin runs its
    ICRCache (the scrubber walks CacheBlocks) in the demand lane.
    """
    spec = _golden_spec(name, "array")
    assert backend_mode(spec) == "array-batched"
    pinned = json.loads(pins.GOLDEN_PATH.read_text())
    got = json.loads(json.dumps(run_experiment(spec).to_dict()))
    assert got == pinned[name]
