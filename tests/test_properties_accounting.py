"""Property-based accounting invariant of fault-injected runs.

Every load error the dL1 detects must land in exactly one outcome bucket:
recovered from a replica, recovered from L2, corrected by ECC, or counted
unrecoverable.  Hypothesis draws the Fig. 14 scheme, the error model, the
error rate and the ``error_seed`` of short runs and checks the identity on
the finished result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors.models import MODELS
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

N = 2_000

SCHEMES = st.sampled_from(["BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)"])
ERROR_MODELS = st.sampled_from(sorted(MODELS))
ERROR_RATES = st.sampled_from([1e-3, 1e-2, 5e-2])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(scheme=SCHEMES, model=ERROR_MODELS, rate=ERROR_RATES, seed=SEEDS)
def test_every_detected_load_error_lands_in_one_bucket(scheme, model, rate, seed):
    spec = ExperimentSpec.from_kwargs(
        "gzip",
        scheme,
        n_instructions=N,
        error_rate=rate,
        error_model=model,
        error_seed=seed,
    )
    dl1 = run_experiment(spec).dl1
    assert dl1["load_errors_detected"] == (
        dl1["load_errors_recovered_replica"]
        + dl1["load_errors_recovered_l2"]
        + dl1["load_errors_corrected_ecc"]
        + dl1["load_errors_unrecoverable"]
    ), dl1
