"""Tests for the work-stealing campaign engine.

The contract under test is the one DESIGN.md §12 argues for:

* the final report is **byte-identical** to the pins in
  ``tests/golden/campaign_reports.json`` — across worker counts, with
  failing trials, under adaptive stopping at every lookahead depth, and
  through interrupt/resume;
* once a cell converges it schedules zero further trials (queued work
  is revoked mid-flight, staged speculative results are discarded);
* two engines cooperating through a share directory partition the cell
  grid via file leases, adopt each other's published records, take over
  stale leases, and still render the pinned report;
* the checkpoint cadence batches writes instead of serializing the
  record set after every trial.
"""

import dataclasses
import json
import time

import pytest

from repro import recovery
from repro.chaos import runtime
from repro.chaos.plan import FaultPlan
from repro.harness.cache import FileLease, ResultCache
from repro.harness.campaign import CampaignConfig, CampaignEngine, create_engine
from repro.harness.runner import ParallelRunner, RunnerError
from repro.harness.spec import ExperimentSpec
from tests.test_golden_campaign import (
    assert_matches_pin,
    config_for,
    pinned,
    runner_for,
)


class TestByteIdenticalReports:
    def test_serial_matches_pin(self):
        out = CampaignEngine(config_for("small"), runner_for("small")).run()
        assert_matches_pin(out, "small")

    def test_pool_workers_match_pin(self):
        name = "small-trials4-batch2"
        for workers in (2, 3):
            out = CampaignEngine(
                config_for(name),
                runner_for(name, jobs=workers),
                workers=workers,
            ).run()
            assert_matches_pin(out, name)

    def test_pool_that_cannot_start_matches_pin(self, fork_refused):
        before = recovery.counter("pool_start_failures")
        out = CampaignEngine(
            config_for("small"), runner_for("small", jobs=2), workers=2
        ).run()
        assert_matches_pin(out, "small")
        assert recovery.counter("pool_start_failures") == before + 1

    def test_adaptive_stopping_matches_pin(self):
        out = CampaignEngine(config_for("adaptive"), runner_for("adaptive")).run()
        assert_matches_pin(out, "adaptive")
        assert all(o.stopped_early for o in out.outcomes)

    def test_adaptive_pool_matches_pin(self):
        # Convergence cancels queued lookahead work on a real pool, where
        # revoked trials may already be running in a worker.
        engine = CampaignEngine(
            config_for("adaptive"), runner_for("adaptive", jobs=2), workers=2
        )
        assert_matches_pin(engine.run(), "adaptive")
        assert engine.telemetry()["speculative_submits"] > 0

    def test_failing_trials_match_pin(self):
        # ICR schemes accept the knobs, so the bogus knob crashes every
        # ICR trial attempt in the worker while BaseP sails through —
        # the registry metadata strips it for Base schemes.
        name = "failing-no-retries"
        out = CampaignEngine(config_for(name), runner_for(name)).run()
        assert_matches_pin(out, name)
        failed = {
            o.cell.scheme: o.failed_attempts() for o in out.outcomes
        }
        assert failed["BaseP"] == 0
        assert failed["ICR-P-PS(S)"] > 0

    def test_lookahead_depths_identical(self):
        # Lookahead 0 submits nothing past the batch the stopping rule
        # has approved, so a cell's batches run one after another.
        for lookahead in (0, 1, 4):
            out = CampaignEngine(
                config_for("adaptive"),
                runner_for("adaptive"),
                lookahead_batches=lookahead,
            ).run()
            assert_matches_pin(out, "adaptive")


class TestInterruptResume:
    def test_interrupted_run_resumes(self, tmp_path):
        config = config_for("small")
        ck = tmp_path / "ck.json"
        first = CampaignEngine(
            config, ParallelRunner(jobs=1), checkpoint_path=ck
        )
        partial = first.run(max_trials=5)
        assert not partial.complete
        second = CampaignEngine(
            config, ParallelRunner(jobs=1), checkpoint_path=ck
        )
        assert second.resumed
        assert_matches_pin(second.run(), "small")

    def test_adaptive_resume_identical(self, tmp_path):
        config = config_for("adaptive")
        ck = tmp_path / "ck.json"
        CampaignEngine(
            config, ParallelRunner(jobs=1), checkpoint_path=ck
        ).run(max_trials=2)
        out = CampaignEngine(
            config, ParallelRunner(jobs=1), checkpoint_path=ck
        ).run()
        assert_matches_pin(out, "adaptive")


class TestConvergenceCancellation:
    def test_converged_cell_schedules_nothing_further(self):
        engine = CampaignEngine(config_for("adaptive"), ParallelRunner(jobs=1))
        engine.run()
        # Replay the engine's event trace: once a cell's "cell-done"
        # event fires, no submit event for it may follow.
        done = set()
        for event in engine.events:
            if event[0] == "cell-done":
                done.add(event[1])
            elif event[0] == "submit":
                assert event[1] not in done, (
                    f"trial submitted for converged cell {event[1]}"
                )

    def test_speculative_work_is_cancelled_and_discarded(self):
        engine = CampaignEngine(config_for("adaptive"), ParallelRunner(jobs=1))
        engine.run()
        t = engine.telemetry()
        # Every cell stops at min_trials=3 out of 30, so lookahead work
        # must have been revoked; nothing revoked may reach the report.
        assert t["speculative_submits"] > 0
        assert t["cancelled_savings"] > 0
        assert t["trials_committed"] == sum(
            len(o.records) for o in engine.outcomes.values()
        )

    def test_uncommitted_speculation_invisible_to_report(self):
        # The stopping decision must be a function of committed records
        # only: the run commits exactly the pinned trial set.
        out = CampaignEngine(config_for("adaptive"), ParallelRunner(jobs=1))
        out.run()
        pinned_cells = pinned("adaptive")["cells"]
        for cell, pin in zip(out.config.cells(), pinned_cells):
            assert pin["scheme"] == cell.scheme
            pin_keys = [(r["index"], r["attempt"]) for r in pin["records"]]
            out_keys = [
                (r.index, r.attempt) for r in out.outcomes[cell].records
            ]
            assert sorted(pin_keys) == sorted(out_keys)


class TestCheckpointCadence:
    def test_writes_batched_behind_dirty_threshold(self, tmp_path):
        config = config_for("small")
        engine = CampaignEngine(
            config,
            ParallelRunner(jobs=1),
            checkpoint_path=tmp_path / "ck.json",
            checkpoint_every_trials=1_000,
            checkpoint_interval=3_600.0,
        )
        engine.run()
        # Neither threshold fires at this scale: one forced flush only.
        assert engine.checkpoint_writes == 1

    def test_every_trial_cadence_upper_bound(self, tmp_path):
        config = config_for("small")
        engine = CampaignEngine(
            config,
            ParallelRunner(jobs=1),
            checkpoint_path=tmp_path / "ck.json",
            checkpoint_every_trials=1,
            checkpoint_interval=0.0,
        )
        engine.run()
        total = sum(len(o.records) for o in engine.outcomes.values())
        assert 1 <= engine.checkpoint_writes <= total + 1

    def test_forced_flush_makes_resume_exact(self, tmp_path):
        config = config_for("small")
        ck = tmp_path / "ck.json"
        engine = CampaignEngine(
            config,
            ParallelRunner(jobs=1),
            checkpoint_path=ck,
            checkpoint_every_trials=1_000_000,
            checkpoint_interval=3_600.0,
        )
        engine.run(max_trials=4)
        payload = json.loads(ck.read_text())
        persisted = sum(len(v) for v in payload["cells"].values())
        committed = sum(len(o.records) for o in engine.outcomes.values())
        assert persisted == committed == 4


class TestMultiHostCooperation:
    def test_two_engines_share_and_agree(self, tmp_path):
        config = config_for("small-trials4-batch2")
        cache = ResultCache(tmp_path / "cache")
        share = tmp_path / "share"
        kwargs = dict(
            share_dir=share,
            coop_interval=0.01,
            lease_ttl=10.0,
        )
        a = CampaignEngine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        b = CampaignEngine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        report_a = a.run()
        report_b = b.run()
        assert_matches_pin(report_a, "small-trials4-batch2")
        assert_matches_pin(report_b, "small-trials4-batch2")
        # The second engine found everything published and adopted it.
        assert b.telemetry()["records_adopted"] == sum(
            len(o.records) for o in b.outcomes.values()
        )

    def test_interleaved_engines_partition_cells(self, tmp_path):
        # Drive two engines in alternating slices against one share dir;
        # leases must keep them off each other's cells while both are
        # mid-flight, and the union must converge to the full report.
        config = config_for("small-trials4-batch2")
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            share_dir=tmp_path / "share",
            coop_interval=0.0,
            lease_ttl=30.0,
        )
        a = CampaignEngine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        b = CampaignEngine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        for _ in range(40):
            a.run(max_trials=1)
            b.run(max_trials=1)
            if a.report().complete and b.report().complete:
                break
        assert_matches_pin(a.report(), "small-trials4-batch2")
        assert_matches_pin(b.report(), "small-trials4-batch2")

    def test_stale_lease_takeover(self, tmp_path):
        config = config_for("small", trials=2, batch_size=2, schemes=("BaseP",))
        share = tmp_path / "share"
        # A dead peer holds every cell: fabricate unrenewed lease files.
        dead = CampaignEngine(
            config,
            ParallelRunner(jobs=1),
            share_dir=share,
            lease_ttl=0.05,
        )
        (share / "leases").mkdir(parents=True)
        (share / "cells").mkdir(parents=True)
        for cell in config.cells():
            lease = FileLease(
                share / "leases" / f"{dead._cell_hash(cell)}.lease",
                "ghost:1:deadbeef",
                ttl=0.05,
            )
            assert lease.acquire()
        time.sleep(0.1)  # let the ghost's leases go stale
        engine = CampaignEngine(
            config,
            ParallelRunner(jobs=1),
            share_dir=share,
            lease_ttl=0.05,
            coop_interval=0.0,
        )
        report = engine.run()
        assert report.complete
        assert engine.lease_takeovers == len(config.cells())

    def test_publish_survives_full_disk(self, tmp_path):
        # The first publish of every cell file hits ENOSPC once its temp
        # file exists: the failure is counted, the temp file removed, and
        # a later publish of the same cell lands.
        name = "small-trials4-batch2"
        cells = tmp_path / "share" / "cells"
        before = recovery.counter("publish_write_errors")
        runtime.install(FaultPlan(seed=0, disk_full_rate=1.0), tmp_path / "chaos")
        try:
            engine = CampaignEngine(
                config_for(name), runner_for(name), share_dir=tmp_path / "share"
            )
            assert not engine.run(max_trials=1).complete
            assert recovery.counter("publish_write_errors") > before
            assert list(cells.iterdir()) == []
            report = engine.run()
        finally:
            runtime.uninstall()
        assert_matches_pin(report, name)
        published = sorted(p.suffix for p in cells.iterdir())
        assert published == [".json"] * len(report.outcomes)


class TestFileLease:
    def test_exclusive_acquire_and_release(self, tmp_path):
        path = tmp_path / "x.lease"
        first = FileLease(path, "owner-a", ttl=30.0)
        second = FileLease(path, "owner-b", ttl=30.0)
        assert first.acquire()
        assert first.held()
        assert not second.acquire()
        assert second.holder() == "owner-a"
        first.release()
        assert second.acquire()
        assert second.held()

    def test_reacquire_is_idempotent(self, tmp_path):
        lease = FileLease(tmp_path / "x.lease", "owner-a")
        assert lease.acquire()
        assert lease.acquire()

    def test_stale_lease_broken(self, tmp_path):
        path = tmp_path / "x.lease"
        first = FileLease(path, "owner-a", ttl=0.05)
        second = FileLease(path, "owner-b", ttl=0.05)
        assert first.acquire()
        time.sleep(0.1)
        assert second.is_stale()
        assert second.acquire()
        assert second.holder() == "owner-b"
        # The usurped owner must not clobber the new lease.
        first.release()
        assert second.held()

    def test_renew_keeps_lease_fresh(self, tmp_path):
        lease = FileLease(tmp_path / "x.lease", "owner-a", ttl=0.2)
        assert lease.acquire()
        for _ in range(3):
            time.sleep(0.08)
            assert lease.renew()
        assert not lease.is_stale()


class TestRunnerSession:
    def _job(self, n=2_000, seed=0):
        return ExperimentSpec("gzip", "BaseP", n_instructions=n, trace_seed=seed)

    def test_submit_and_harvest_serial(self):
        runner = ParallelRunner(jobs=1)
        with runner.session() as session:
            handles = [self._job(seed=s) for s in (0, 1)]
            submitted = [session.submit(job, tag=i) for i, job in enumerate(handles)]
            seen = []
            while (handle := session.next_completed()) is not None:
                assert handle.ok
                seen.append(handle.tag)
            assert sorted(seen) == [0, 1]
            assert all(h.done for h in submitted)

    def test_cache_hit_completes_at_submit(self):
        runner = ParallelRunner(jobs=1)
        with runner.session() as session:
            session.submit(self._job())
            first = session.next_completed()
            assert first is not None and not first.cached
            again = session.submit(self._job())
            assert again.done and again.cached
            assert session.next_completed() is again

    def test_cancel_queued_job(self):
        runner = ParallelRunner(jobs=1)
        with runner.session() as session:
            keep = session.submit(self._job(seed=0))
            drop = session.submit(self._job(seed=1))
            assert session.cancel(drop)
            assert drop.cancelled and drop.done
            assert runner.stats.cancelled == 1
            done = session.next_completed()
            assert done is keep
            assert session.next_completed() is None

    def test_cannot_cancel_finished_job(self):
        runner = ParallelRunner(jobs=1)
        with runner.session() as session:
            handle = session.submit(self._job())
            assert session.next_completed() is handle
            assert not session.cancel(handle)

    def test_failure_surfaces_runner_error(self):
        runner = ParallelRunner(jobs=1)
        bad = ExperimentSpec(
            "gzip",
            "ICR-P-PS(S)",
            n_instructions=2_000,
            scheme_kwargs={"nosuch_knob": 1},
        )
        with runner.session() as session:
            session.submit(bad)
            handle = session.next_completed()
            assert handle is not None and not handle.ok
            assert isinstance(handle.result, RunnerError)

    def test_pool_results_match_serial(self):
        jobs = [self._job(seed=s) for s in range(3)]
        serial = ParallelRunner(jobs=1).run(jobs)
        runner = ParallelRunner(jobs=2)
        with runner.session(workers=2) as session:
            by_tag = {}
            for i, job in enumerate(jobs):
                session.submit(job, tag=i)
            while (handle := session.next_completed()) is not None:
                by_tag[handle.tag] = handle.result
        assert [by_tag[i] for i in range(3)] == serial


class TestBackendTierDispatch:
    def test_tier_resolves_per_cell(self):
        # Error-injection cells run on the batched engine in lockstep; a
        # scrubbing campaign walks CacheBlocks, so its cells run their
        # object dL1 in the engine's demand lane.
        config = config_for("small", backend="array")
        for cell in config.cells():
            assert config.trial_mode(cell) == "array-batched"
            assert config.trial_spec(cell, 0, 0).backend == "array"
        scrubbed = config_for("small", backend="array", scrub_period=500)
        for cell in scrubbed.cells():
            assert scrubbed.trial_mode(cell) == "array-batched"
            assert scrubbed.trial_spec(cell, 0, 0).backend == "array"

    def test_array_is_the_default_and_auto_an_alias(self):
        config = CampaignConfig(
            benchmarks=("gzip",),
            schemes=("BaseP",),
            error_rates=(0.0,),
            trials=2,
            n_instructions=3_000,
        )
        assert config.backend == "array"
        assert dataclasses.replace(config, backend="auto") == config
        assert config.trial_mode(config.cells()[0]) == "array-batched"
        oracle = dataclasses.replace(config, backend="object")
        assert oracle.trial_mode(oracle.cells()[0]) == "object"

    def test_rejected_spec_reports_unresolved_tier(self):
        # A knob the scheme rejects fails every trial before a kernel is
        # chosen; the tier probe says so instead of ending the run.
        config = config_for("small", scheme_kwargs={"nosuch_knob": 1})
        icr = [c for c in config.cells() if c.scheme.startswith("ICR")]
        assert icr
        for cell in icr:
            assert config.trial_mode(cell) == "unresolved"

    def test_object_report_matches_pin(self):
        # The pins run on the default array backend (the per-access SoA
        # tier for these error-injection cells); the object oracle must
        # reproduce the trial population exactly — only the digest
        # itself differs.
        config = config_for("small-trials2-batch2", backend="object")
        out = CampaignEngine(config, ParallelRunner(jobs=1)).run()
        assert out.to_dict()["cells"] == pinned("small-trials2-batch2")["cells"]


class TestEngineFactory:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="stealing"):
            create_engine(config_for("small"), scheduler="fifo")

    def test_round_scheduler_removed(self):
        with pytest.raises(ValueError, match="removed"):
            create_engine(config_for("small"), scheduler="round")

    def test_factory_builds_engine(self):
        assert isinstance(create_engine(config_for("small")), CampaignEngine)
        engine = create_engine(config_for("small"), scheduler="stealing")
        assert isinstance(engine, CampaignEngine)

    def test_telemetry_shape(self):
        engine = CampaignEngine(
            config_for("small-trials2-batch2"),
            ParallelRunner(jobs=1),
        )
        engine.run()
        t = engine.telemetry()
        for key in (
            "trials_committed",
            "checkpoint_writes",
            "utilization",
            "steals",
            "speculative_submits",
            "cancelled_savings",
            "discarded_results",
            "records_adopted",
            "helper_trials",
            "lease_takeovers",
            "backend_latency",
            "runner",
        ):
            assert key in t, key
        assert 0.0 <= t["utilization"] <= 1.0
        for summary in t["backend_latency"].values():
            assert summary["count"] == sum(
                summary["histogram"]["counts"]
            )
