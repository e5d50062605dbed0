"""Fault-injected runs on the batched engine's fused lane.

A bit-accurate ``ArrayDL1`` takes the fused hit and miss paths of
``run_batched``; three steps carry its extra work: an access stamped at
or past the injector's next strike applies the strikes first, a load
hit on a word in the error overlay runs the recovery ladder, and a
store writes its value into the primary and its replicas.  At a high
error rate (3e-2) every step runs many times per trial, so dropping any
of them changes the result or the final word state.  Both are compared
with the object kernel, for every error model, a leave-in-place replica
config, a warm-up boundary and the pure-Python scoreboard
(``REPRO_NATIVE=0``).
"""

import pytest

from repro.core import _native, array_kernel
from repro.core.array_kernel import ArrayDL1, BitAccurateArrayDL1, backend_mode
from repro.core.icr_cache import ICRCache
from repro.errors.models import MODELS
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

RATE = 3e-2

#: case name -> (benchmark, scheme, ExperimentSpec.from_kwargs extras)
CASES = {
    "ICR-ECC-PS(S)": ("gzip", "ICR-ECC-PS(S)", {}),
    "BaseP": ("mcf", "BaseP", {}),
    "leave": ("mcf", "ICR-P-PS(S)", {"leave_replicas_on_evict": True}),
    "warm-up": ("vpr", "ICR-P-PS(LS)", {"warmup_instructions": 1_500}),
}


def _spec(case, model):
    benchmark, scheme, extra = CASES[case]
    return ExperimentSpec.from_kwargs(
        benchmark,
        scheme,
        n_instructions=3_000,
        error_rate=RATE,
        error_seed=13,
        error_model=model,
        backend="object",
        **extra,
    )


def _word_state(dl1):
    """Per frame: ``None`` if invalid, else its tag, golden values and
    what each stored word reads as; plus the error-free memory image."""
    frames = []
    if isinstance(dl1, ICRCache):
        for ways in dl1.sets:
            for block in ways:
                if not block.valid:
                    frames.append(None)
                    continue
                words = []
                for word in block.words:
                    read = word.read()
                    words.append(
                        (read.error_detected, read.corrected, read.data,
                         word.raw_data)
                    )
                frames.append((block.block_addr, list(block.golden), words))
        return frames, dl1._memory_image
    wpb = dl1.words_per_block
    for f, valid in enumerate(dl1._valid):
        if not valid:
            frames.append(None)
            continue
        code = dl1._prot[f]
        golden = dl1._gold[f * wpb : (f + 1) * wpb]
        errors = dl1._overlay.get(f, {})
        words = []
        for i, value in enumerate(golden):
            cell = array_kernel._encode(code, value) ^ errors.get(i, 0)
            words.append(
                (*array_kernel._read(code, cell), array_kernel._raw_data(code, cell))
            )
        frames.append((dl1._tag[f], golden, words))
    return frames, dl1._memory_image


def _run(monkeypatch, spec):
    """``(to_dict(), final word state)`` of one run of *spec*."""
    built = []
    with monkeypatch.context() as patch:
        for cls in (ArrayDL1, ICRCache):

            def recording(self, config, _init=cls.__init__):
                _init(self, config)
                built.append(self)

            patch.setattr(cls, "__init__", recording)
        result = run_experiment(spec).to_dict()
    (dl1,) = built
    return result, _word_state(dl1)


def _assert_lane_identical(monkeypatch, spec):
    fused = spec.replace(backend="array")
    assert backend_mode(fused) == "array-batched"
    reference, reference_words = _run(monkeypatch, spec)
    candidate, candidate_words = _run(monkeypatch, fused)
    assert reference["dl1"]["errors_injected"] > 0
    assert candidate == reference
    assert candidate_words == reference_words


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_fault_lane_matches_object_kernel(monkeypatch, case, model):
    _assert_lane_identical(monkeypatch, _spec(case, model))


@pytest.mark.parametrize("model", ["random", "burst"])
@pytest.mark.parametrize("case", ["leave", "warm-up"])
def test_fused_fault_lane_without_native_kernel(monkeypatch, case, model):
    """``REPRO_NATIVE=0``: the Python scoreboard hands out the stamps."""
    reference = _run(monkeypatch, _spec(case, model))
    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(_native, "_STATE", [])
    assert not _native.available()
    assert _run(monkeypatch, _spec(case, model).replace(backend="array")) == reference


def test_fused_lane_never_takes_the_demand_lane(monkeypatch):
    """Strikes, overlay loads and misses all stay on the fused lane."""
    calls = []
    real = BitAccurateArrayDL1.access

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(BitAccurateArrayDL1, "access", counting)
    result = run_experiment(_spec("leave", "random").replace(backend="array"))
    assert result.dl1["errors_injected"] > 0
    assert result.dl1["load_errors_detected"] > 0
    assert calls == []
