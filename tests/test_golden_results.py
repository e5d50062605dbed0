"""Golden-number regression tests.

Pins the headline counters — cycles, instructions, dL1 load/store misses —
for three canonical configurations against checked-in JSON files under
``tests/golden/``.  Any simulator change that shifts these numbers fails
here first, with a readable diff of exactly which counter moved.

The runs use ``backend="object"``, so these pins hold the object kernel
(the reference oracle) directly; ``tests/differential/test_golden_array.py``
pins the array kernels to the same files.

To re-pin after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_results.py --update-golden

then inspect ``git diff tests/golden/`` and commit the new files together
with the change that caused them.
"""

import json
import pathlib

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

N = 8_000

#: name -> (benchmark, scheme, extra kwargs).  BaseP is the unprotected
#: baseline, ICR-P-PS(S) the vertical-replication scheme, ICR-P-PS(LS)
#: the load-store variant (paper Sections 3-4).
CONFIGS = {
    "basep": ("gzip", "BaseP", {}),
    "icr_s_vertical": ("gzip", "ICR-P-PS(S)", {}),
    "icr_ls": ("gzip", "ICR-P-PS(LS)", {}),
}


def _snapshot(result):
    return {
        "benchmark": result.benchmark,
        "scheme": result.scheme,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "dl1_load_misses": result.dl1["load_misses"],
        "dl1_store_misses": result.dl1["store_misses"],
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden(name, update_golden):
    benchmark, scheme, kwargs = CONFIGS[name]
    result = run_experiment(
        ExperimentSpec.from_kwargs(
            benchmark, scheme, n_instructions=N, backend="object", **kwargs
        )
    )
    got = _snapshot(result)

    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2) + "\n")
        pytest.skip(f"regenerated {path}")

    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "pytest tests/test_golden_results.py --update-golden"
    )
    expected = json.loads(path.read_text())
    assert got == expected
