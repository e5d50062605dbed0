"""Golden pins for fault-injected runs.

Every Fig. 14 number comes from runs with ``error_rate > 0``: bit-accurate
word storage, the fault injector, the error models and the recovery paths
of the cache.  The pins under ``tests/golden/fault_injection.json`` record
the full :meth:`SimulationResult.to_dict` of a short gzip run for each of
the five error models on each of the four Fig. 14 schemes, plus one run
with a background scrubber, at one fixed ``error_seed``.  Any change to
how faults are drawn, stored, detected, corrected or counted fails here.

The runs use ``backend="object"``, so these pins hold the object kernel
(the reference oracle) directly; ``tests/differential/`` holds the
array kernels to the same numbers.

To re-pin after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_fault_injection.py --update-golden

then inspect ``git diff tests/golden/`` and commit the new file together
with the change that caused it.
"""

import json
import pathlib

import pytest

from repro.errors.models import MODELS as ERROR_MODELS
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fault_injection.json"

N = 3_000
ERROR_RATE = 1e-2
ERROR_SEED = 2024
SCHEMES = ("BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)")
MODELS = ("random", "direct", "adjacent", "column", "burst")

#: pin name -> extra spec kwargs
CONFIGS = {
    f"{scheme}/{model}": dict(scheme=scheme, error_model=model)
    for scheme in SCHEMES
    for model in MODELS
}
CONFIGS["ICR-P-PS(S)/random/scrub"] = dict(
    scheme="ICR-P-PS(S)", error_model="random", scrub_period=500
)


def _run(name: str) -> dict:
    kwargs = dict(CONFIGS[name])
    scheme = kwargs.pop("scheme")
    spec = ExperimentSpec.from_kwargs(
        "gzip",
        scheme,
        n_instructions=N,
        error_rate=ERROR_RATE,
        error_seed=ERROR_SEED,
        backend="object",
        **kwargs,
    )
    return run_experiment(spec).to_dict()


def test_models_cover_registry():
    assert set(MODELS) == set(ERROR_MODELS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fault_injection_golden(name, update_golden):
    got = json.loads(json.dumps(_run(name)))
    assert got["dl1"]["errors_injected"] > 0
    pins = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if update_golden:
        pins = {key: pin for key, pin in pins.items() if key in CONFIGS}
        pins[name] = got
        GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name} in {GOLDEN_PATH}")
    assert name in pins, (
        f"no pin for {name} in {GOLDEN_PATH}; generate it with "
        "pytest tests/test_golden_fault_injection.py --update-golden"
    )
    assert got == pins[name]
