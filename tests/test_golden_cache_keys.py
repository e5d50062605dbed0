"""Golden pins for result-cache keys.

:meth:`ExperimentSpec.key` is the identity of every cached result: the
runner, the campaign engine and the service all look results up by it.
The pins under ``tests/golden/cache_keys.json`` hold the key of each
spec below with :func:`~repro.harness.cache.code_version` fixed, so the
pins follow the key's construction rather than the source digest.  A
refactor of how the key is built must leave every pin unchanged, or
every cache entry on disk silently stops being found.

The specs cover a benchmark given by name and as its profile object,
an alias spelling of a scheme, a prebuilt ``ICRConfig``, scheme kwargs,
an explicit default machine, both backends, one campaign trial and one
spec read from the service wire form.

To re-pin after an *intentional* change to the key::

    PYTHONPATH=src python -m pytest tests/test_golden_cache_keys.py --update-golden

then inspect ``git diff tests/golden/`` and commit the new file together
with the change that caused it.
"""

import json
import pathlib

import pytest

from repro.core.schemes import make_config
from repro.harness.campaign import CampaignConfig
from repro.harness.spec import ExperimentSpec, MachineConfig
from repro.workloads.spec2000 import profile_for

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cache_keys.json"

N = 5_000


def _campaign_trial() -> ExperimentSpec:
    config = CampaignConfig(
        benchmarks=("mcf",),
        schemes=("ICR-P-PS(S)",),
        error_rates=(1e-2,),
        trials=2,
        n_instructions=3_000,
        scheme_kwargs={"decay_window": 1000},
    )
    return config.trial_spec(config.cells()[0], index=1, attempt=0)


def _wire_spec() -> ExperimentSpec:
    spec = ExperimentSpec(
        "vpr",
        "ICR-ECC-PS(S)",
        n_instructions=N,
        error_rate=1e-3,
        error_model="burst",
        scheme_kwargs={"replica_distances": ["N/4", "N/2"]},
    )
    return ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


#: pin name -> spec factory
SPECS = {
    "name": lambda: ExperimentSpec("gzip", "BaseP", n_instructions=N),
    "profile-object": lambda: ExperimentSpec(
        profile_for("gzip"), "BaseP", n_instructions=N
    ),
    "alias-spelling": lambda: ExperimentSpec(
        "gzip", "icr-p-ps (s)", n_instructions=N
    ),
    "canonical-spelling": lambda: ExperimentSpec(
        "gzip", "ICR-P-PS(S)", n_instructions=N
    ),
    "prebuilt-config": lambda: ExperimentSpec(
        "gzip", make_config("ICR-P-PS(LS)"), n_instructions=N
    ),
    "replica-distances": lambda: ExperimentSpec(
        "gzip",
        "ICR-P-PS(S)",
        n_instructions=N,
        scheme_kwargs={"replica_distances": ("N/4",)},
    ),
    "ring-placement": lambda: ExperimentSpec(
        "gzip",
        "ICR-P-PS(S)",
        n_instructions=N,
        scheme_kwargs={"placement": "ring"},
    ),
    "machine-none": lambda: ExperimentSpec(
        "gzip", "BaseECC", n_instructions=N, machine=None
    ),
    "machine-default": lambda: ExperimentSpec(
        "gzip", "BaseECC", n_instructions=N, machine=MachineConfig()
    ),
    "backend-object": lambda: ExperimentSpec(
        "gzip", "ICR-ECC-PS(S)", n_instructions=N, backend="object"
    ),
    "backend-array": lambda: ExperimentSpec(
        "gzip", "ICR-ECC-PS(S)", n_instructions=N, backend="array"
    ),
    "campaign-trial": _campaign_trial,
    "wire-form": _wire_spec,
}


@pytest.fixture
def fixed_code_version(monkeypatch):
    import repro.harness.cache as cache_mod

    monkeypatch.setattr(cache_mod, "code_version", lambda: "0123456789abcdef")


def test_golden_cache_keys(fixed_code_version, update_golden):
    got = {name: factory().key() for name, factory in SPECS.items()}
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    pins = json.loads(GOLDEN_PATH.read_text())
    assert got == pins

