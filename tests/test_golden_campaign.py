"""Golden pins for campaign reports.

Every Fig. 14 reliability number comes out of a Monte Carlo campaign, so
the campaign engine's reports are pinned byte for byte.  The pins under
``tests/golden/campaign_reports.json`` hold :meth:`CampaignReport.to_dict`
for each config below, minus the ``"campaign"`` digest: the digest hashes
:func:`~repro.harness.cache.code_version`, so it changes with every source
edit while the records and statistics must not.

The configs cover a plain campaign, a small-batch grid, adaptive stopping
(every cell converges at ``min_trials``), trials that crash on every
attempt and its retry, and the per-cell circuit breaker.  Other tests
(``tests/test_harness_scheduler.py``, ``tests/chaos/test_breaker.py``)
compare the engine under other worker counts, lookahead depths and
interrupt/resume against the same pins through :func:`pinned`.

To re-pin after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_campaign.py --update-golden

then inspect ``git diff tests/golden/`` and commit the new file together
with the change that caused it.
"""

import json
import pathlib

import pytest

from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.runner import ParallelRunner

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "campaign_reports.json"

SMALL = dict(
    benchmarks=("gzip",),
    schemes=("BaseP", "ICR-P-PS(S)"),
    error_rates=(1e-2,),
    trials=6,
    batch_size=3,
    n_instructions=3_000,
)

#: Adaptive-stopping variant: a huge target makes every cell converge at
#: min_trials, so speculative lookahead work must get cancelled.
ADAPTIVE = dict(
    SMALL,
    trials=30,
    batch_size=3,
    min_trials=3,
    target_half_width=0.9,
)

#: The bogus knob crashes every ICR trial attempt in the worker while
#: BaseP sails through (the registry strips ICR knobs for Base schemes).
FAILING = dict(
    SMALL, trials=3, batch_size=3, scheme_kwargs={"nosuch_knob": 1}
)

#: Every ICR trial exhausts its (zero) retries, so the breaker trips at
#: the first batch boundary while BaseP runs its full budget.
BREAKER = dict(
    benchmarks=("gzip",),
    schemes=("BaseP", "ICR-P-PS(S)"),
    error_rates=(1e-2,),
    trials=6,
    batch_size=3,
    max_trial_retries=0,
    breaker_threshold=3,
    n_instructions=2_500,
    scheme_kwargs={"nosuch_knob": 1},
)

#: pin name -> (CampaignConfig kwargs, ParallelRunner kwargs)
CONFIGS = {
    "small": (SMALL, {}),
    "small-trials4-batch2": (dict(SMALL, trials=4, batch_size=2), {}),
    "small-trials2-batch2": (dict(SMALL, trials=2, batch_size=2), {}),
    "adaptive": (ADAPTIVE, {}),
    "failing-no-retries": (FAILING, {}),
    "breaker": (BREAKER, {}),
}


def report_dict(report) -> dict:
    """The pinned view of a report: everything but the code-bound digest."""
    data = json.loads(report.to_json())
    del data["campaign"]
    return data


def pinned(name: str) -> dict:
    """The pinned report of config *name*."""
    pins = json.loads(GOLDEN_PATH.read_text())
    assert name in pins, (
        f"no pin for {name} in {GOLDEN_PATH}; generate it with "
        "pytest tests/test_golden_campaign.py --update-golden"
    )
    return pins[name]


def config_for(name: str, **over) -> CampaignConfig:
    return CampaignConfig(**dict(CONFIGS[name][0], **over))


def runner_for(name: str, jobs: int = 1) -> ParallelRunner:
    return ParallelRunner(jobs=jobs, **CONFIGS[name][1])


def assert_matches_pin(report, name: str) -> None:
    """*report* renders byte for byte as the pin of *name* (own digest)."""
    want = {**pinned(name), "campaign": report.digest}
    assert report.to_json() == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_campaign_report_golden(name, update_golden):
    report = CampaignEngine(config_for(name), runner_for(name)).run()
    if update_golden:
        pins = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        pins = {key: pin for key, pin in pins.items() if key in CONFIGS}
        pins[name] = report_dict(report)
        GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {name} in {GOLDEN_PATH}")
    assert_matches_pin(report, name)
