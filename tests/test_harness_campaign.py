"""Tests for the Monte Carlo fault-injection campaign engine.

The properties a long unattended campaign leans on:

* the bootstrap CI agrees with the closed-form binomial interval on
  Bernoulli data and is a pure function of (sample, seed);
* adaptive stopping and the final report are deterministic for a fixed
  configuration — two engines given the same config produce the same
  bytes;
* a campaign resumed from a checkpoint finishes with a report
  byte-identical to an uninterrupted run;
* a trial that keeps crashing is recorded as failed (with retries under
  fresh seeds) instead of aborting the campaign.
"""

import json
import math
import random

import pytest

import repro.harness.campaign as campaign_module
from repro.harness.campaign import (
    CampaignConfig,
    CampaignEngine,
    run_campaign,
)
from repro.harness.runner import ParallelRunner
from repro.harness.stats import bootstrap_ci

#: A campaign small enough to run many times in a test, large enough to
#: exercise batching (trials spans several batches).
SMALL = dict(
    benchmarks=("gzip",),
    schemes=("BaseP", "ICR-P-PS(S)"),
    error_rates=(1e-2,),
    trials=6,
    batch_size=3,
    n_instructions=3_000,
)


def small_config(**over):
    merged = dict(SMALL)
    merged.update(over)
    return CampaignConfig(**merged)


class TestBootstrapCI:
    def test_matches_closed_form_binomial(self):
        # On a 0/1 sample the percentile bootstrap of the mean must land
        # close to the normal-approximation binomial interval.
        rng = random.Random(5)
        n, p = 200, 0.3
        values = [1.0 if rng.random() < p else 0.0 for _ in range(n)]
        ci = bootstrap_ci(values, level=0.95, n_resamples=4000, seed=1)
        phat = sum(values) / n
        half = 1.96 * math.sqrt(phat * (1.0 - phat) / n)
        assert ci.mean == pytest.approx(phat)
        assert ci.lo == pytest.approx(phat - half, abs=0.015)
        assert ci.hi == pytest.approx(phat + half, abs=0.015)
        assert ci.lo <= ci.mean <= ci.hi

    def test_pure_function_of_sample_and_seed(self):
        values = [0.1, 0.4, 0.2, 0.9, 0.3, 0.5]
        a = bootstrap_ci(values, seed=3)
        b = bootstrap_ci(list(values), seed=3)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        c = bootstrap_ci(values, seed=4)
        assert (a.lo, a.hi) != (c.lo, c.hi)

    def test_single_observation_degenerates_to_point(self):
        ci = bootstrap_ci([0.25])
        assert (ci.mean, ci.lo, ci.hi, ci.half_width) == (0.25, 0.25, 0.25, 0.0)

    def test_rejects_empty_and_bad_level(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], level=1.5)


class TestTrialSeeds:
    def test_seeds_unique_across_grid_and_attempts(self):
        config = small_config()
        seeds = {
            config.trial_spec(cell, index, attempt).error_seed
            for cell in config.cells()
            for index in range(config.trials)
            for attempt in range(3)
        }
        assert len(seeds) == len(config.cells()) * config.trials * 3

    def test_retry_gets_a_fresh_seed(self):
        config = small_config()
        cell = config.cells()[0]
        first = config.trial_spec(cell, 0, 0)
        retry = config.trial_spec(cell, 0, 1)
        assert retry.error_seed != first.error_seed
        assert retry.replace(error_seed=0) == first.replace(error_seed=0)

    def test_seeds_are_not_integer_offsets(self):
        # Consecutive trial indices must not map to neighbouring seeds
        # (neighbouring seeds can alias derived sub-streams).
        config = small_config()
        cell = config.cells()[0]
        seeds = [config.trial_spec(cell, i, 0).error_seed for i in range(8)]
        gaps = {abs(b - a) for a, b in zip(seeds, seeds[1:])}
        assert all(gap > 1000 for gap in gaps)


class TestCampaignRuns:
    def test_full_run_summarizes_every_cell(self):
        config = small_config()
        report = run_campaign(config)
        assert report.complete
        assert len(report.outcomes) == 2
        by_scheme = {}
        for outcome in report.outcomes:
            assert len(outcome.ok_records()) == config.trials
            assert outcome.failed_attempts() == 0
            ci = outcome.metric_ci("unrecoverable_load_fraction", config)
            assert ci is not None and ci.lo <= ci.mean <= ci.hi
            by_scheme[outcome.cell.scheme] = ci
        # The paper's claim at campaign scale: ICR is no less resilient.
        assert by_scheme["ICR-P-PS(S)"].mean <= by_scheme["BaseP"].mean + 1e-9
        table = report.to_table()
        assert "ulf_mean" in table and "ICR-P-PS(S)" in table

    def test_report_deterministic_across_engines(self):
        config = small_config()
        a = CampaignEngine(config).run().to_json()
        b = CampaignEngine(config).run().to_json()
        assert a == b

    def test_parallel_runner_reproduces_serial_report(self):
        config = small_config(trials=4, batch_size=4)
        serial = run_campaign(config).to_json()
        parallel = run_campaign(config, ParallelRunner(jobs=2)).to_json()
        assert parallel == serial

    def test_adaptive_stopping_is_deterministic_and_early(self):
        config = small_config(
            trials=12, min_trials=4, batch_size=2, target_half_width=0.9
        )
        first = CampaignEngine(config).run()
        second = CampaignEngine(config).run()
        assert first.to_json() == second.to_json()
        for outcome in first.outcomes:
            # A huge target stops every cell right at min_trials.
            assert outcome.stopped_early
            assert len(outcome.ok_records()) == config.min_trials
        assert first.complete

    def test_max_trials_reports_incomplete(self):
        config = small_config()
        engine = CampaignEngine(config)
        report = engine.run(max_trials=config.batch_size)
        assert not report.complete
        assert engine.telemetry()["trials_committed"] == config.batch_size


class TestReportSummaries:
    """A report bootstraps each cell's CIs once, however it is rendered."""

    #: The Fig. 14 grid of the perf tool's fault campaign: 8 cells.
    GRID = dict(
        benchmarks=("gzip", "mcf"),
        schemes=("BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)"),
        error_rates=(1e-2,),
        trials=2,
        min_trials=2,
        batch_size=2,
        n_instructions=3_000,
    )

    def test_renderings_share_one_bootstrap_pass(self, monkeypatch):
        engine = CampaignEngine(CampaignConfig(**self.GRID))
        engine.run()
        calls = []
        real = campaign_module.bootstrap_ci

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "bootstrap_ci", counting)
        report = engine.report()
        text = report.to_json()
        data = report.to_dict()
        report.to_table()
        # Four metrics carry values per cell (avf is off): one pass.
        assert len(calls) == 4 * len(engine.config.cells())
        assert json.loads(text) == data
        # The engine keeps nothing: a new report computes its own pass.
        engine.report().to_table()
        assert len(calls) == 8 * len(engine.config.cells())

    def test_to_dict_returns_fresh_data(self):
        report = CampaignEngine(small_config(trials=2, batch_size=2)).run()
        data = report.to_dict()
        data["cells"][0]["metrics"]["unrecoverable_load_fraction"]["mean"] = -1
        data["cells"][0]["trials_ok"] = -1
        assert report.to_dict() != data
        assert json.loads(report.to_json())["cells"][0]["trials_ok"] == 2


class TestCheckpointResume:
    def test_resume_is_byte_identical_to_uninterrupted(self, tmp_path):
        config = small_config()
        fresh = CampaignEngine(config).run().to_json()

        path = tmp_path / "campaign.json"
        interrupted = CampaignEngine(config, checkpoint_path=path)
        interrupted.run(max_trials=config.batch_size)

        resumed = CampaignEngine(config, checkpoint_path=path)
        assert resumed.resumed
        report = resumed.run()
        assert report.to_json() == fresh

    def test_mismatched_checkpoint_is_ignored(self, tmp_path):
        path = tmp_path / "campaign.json"
        CampaignEngine(small_config(), checkpoint_path=path).run(max_trials=3)
        other = CampaignEngine(
            small_config(trials=5), checkpoint_path=path
        )
        assert not other.resumed

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("{not json")
        engine = CampaignEngine(small_config(), checkpoint_path=path)
        assert not engine.resumed


class TestGracefulDegradation:
    def test_crashing_trials_recorded_not_raised(self):
        # Unknown scheme *names* now fail fast at config construction
        # (see test_unknown_scheme_rejected_at_config_time), so a bogus
        # ICR knob stands in as the run-time crash vector: it passes
        # spec construction and blows up inside the worker.
        config = CampaignConfig(
            benchmarks=("gzip",),
            schemes=("ICR-P-PS(S)",),
            trials=2,
            batch_size=2,
            max_trial_retries=1,
            n_instructions=3_000,
            scheme_kwargs={"nosuch_knob": 1},
        )
        report = run_campaign(config)
        assert report.complete
        (outcome,) = report.outcomes
        assert outcome.ok_records() == []
        # Each of the 2 trial indices burns its attempt plus one retry.
        assert outcome.failed_attempts() == 4
        summary = outcome.summary(config)
        assert summary["trials_ok"] == 0
        assert "unrecoverable_load_fraction" not in summary["metrics"]
        for record in outcome.records:
            assert record.status == "failed"
            assert record.error

    def test_failures_do_not_poison_healthy_cells(self):
        # BaseP ignores the ICR knobs (registry metadata) and stays
        # healthy; the ICR cell receives the bogus knob and crashes.
        config = CampaignConfig(
            benchmarks=("gzip",),
            schemes=("BaseP", "ICR-P-PS(S)"),
            trials=2,
            batch_size=2,
            max_trial_retries=0,
            n_instructions=3_000,
            scheme_kwargs={"nosuch_knob": 1},
        )
        report = run_campaign(config)
        by_scheme = {o.cell.scheme: o for o in report.outcomes}
        assert len(by_scheme["BaseP"].ok_records()) == 2
        assert by_scheme["ICR-P-PS(S)"].failed_attempts() == 2

    def test_unknown_scheme_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="registered schemes"):
            CampaignConfig(
                benchmarks=("gzip",),
                schemes=("nosuch-scheme",),
            )


class TestTrialLog:
    def test_jsonl_log_has_one_line_per_attempt(self, tmp_path):
        config = small_config(trials=2, batch_size=2)
        log = tmp_path / "trials.jsonl"
        report = run_campaign(config, trial_log_path=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        total = sum(len(o.records) for o in report.outcomes)
        assert len(lines) == total
        for line in lines:
            assert line["status"] == "ok"
            # Successful attempts carry the full result payload.
            assert line["result"]["format"] == 1
            assert line["result"]["dl1"]["errors_injected"] >= 0
