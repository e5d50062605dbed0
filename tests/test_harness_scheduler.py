"""Tests for the work-stealing campaign scheduler.

The contract under test is the one DESIGN.md §12 argues for:

* the stealing scheduler's final report is **byte-identical** to the
  round scheduler's — across worker counts, with failing trials, under
  adaptive stopping, and through interrupt/resume in either direction;
* once a cell converges it schedules zero further trials (queued work
  is revoked mid-flight, staged speculative results are discarded);
* two engines cooperating through a share directory partition the cell
  grid via file leases, adopt each other's published records, take over
  stale leases, and still render the identical report;
* the checkpoint cadence batches writes instead of serializing the
  record set after every trial.
"""

import json
import time

import pytest

from repro.harness.cache import FileLease, ResultCache
from repro.harness.campaign import (
    CampaignConfig,
    CampaignEngine,
    create_engine,
)
from repro.harness.runner import Job, ParallelRunner, RunnerError
from repro.harness.scheduler import StealingCampaignEngine
from repro.harness.spec import ExperimentSpec

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


def small_config(**over):
    merged = dict(SMALL)
    merged.update(over)
    return CampaignConfig(**merged)


def round_report(config, **runner_kwargs):
    return CampaignEngine(config, ParallelRunner(**runner_kwargs)).run()


class TestByteIdenticalReports:
    def test_serial_matches_round(self):
        config = small_config()
        ref = round_report(config, jobs=1)
        out = create_engine(
            config, ParallelRunner(jobs=1), scheduler="stealing"
        ).run()
        assert ref.to_json() == out.to_json()

    def test_pool_workers_match_round(self):
        config = small_config(trials=4, batch_size=2)
        ref = round_report(config, jobs=1)
        for workers in (2, 3):
            out = create_engine(
                config,
                ParallelRunner(jobs=workers),
                scheduler="stealing",
                workers=workers,
            ).run()
            assert ref.to_json() == out.to_json(), f"workers={workers}"

    def test_adaptive_stopping_matches_round(self):
        config = small_config(**{k: ADAPTIVE[k] for k in ADAPTIVE})
        ref = round_report(config, jobs=1)
        engine = create_engine(
            config, ParallelRunner(jobs=1), scheduler="stealing"
        )
        out = engine.run()
        assert ref.to_json() == out.to_json()
        assert all(o.stopped_early for o in out.outcomes)

    def test_failing_trials_match_round(self):
        # ICR schemes accept the knobs, so the bogus knob crashes every
        # ICR trial attempt in the worker while BaseP sails through —
        # the registry metadata strips it for Base schemes.
        config = small_config(
            trials=3, batch_size=3, scheme_kwargs={"nosuch_knob": 1}
        )
        ref = round_report(config, jobs=1, retries=0)
        out = create_engine(
            config,
            ParallelRunner(jobs=1, retries=0),
            scheduler="stealing",
        ).run()
        assert ref.to_json() == out.to_json()
        failed = {
            o.cell.scheme: o.failed_attempts() for o in out.outcomes
        }
        assert failed["BaseP"] == 0
        assert failed["ICR-P-PS(S)"] > 0

    def test_lookahead_depths_identical(self):
        config = small_config(**{k: ADAPTIVE[k] for k in ADAPTIVE})
        ref = round_report(config, jobs=1)
        for lookahead in (0, 1, 4):
            out = create_engine(
                config,
                ParallelRunner(jobs=1),
                scheduler="stealing",
                lookahead_batches=lookahead,
            ).run()
            assert ref.to_json() == out.to_json(), f"lookahead={lookahead}"


class TestInterruptResume:
    def test_stealing_resumes_stealing(self, tmp_path):
        config = small_config()
        ref = round_report(config, jobs=1)
        ck = tmp_path / "ck.json"
        first = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=ck,
        )
        partial = first.run(max_trials=5)
        assert not partial.complete
        second = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=ck,
        )
        assert second.resumed
        assert ref.to_json() == second.run().to_json()

    def test_cross_scheduler_resume(self, tmp_path):
        # A stealing checkpoint can land mid-batch; the round engine
        # must refill to the same batch grid, and vice versa.
        config = small_config()
        ref = round_report(config, jobs=1)
        ck = tmp_path / "ck.json"
        create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=ck,
        ).run(max_trials=5)
        finished_by_round = CampaignEngine(
            config, ParallelRunner(jobs=1), checkpoint_path=ck
        ).run()
        assert ref.to_json() == finished_by_round.to_json()

        ck2 = tmp_path / "ck2.json"
        CampaignEngine(
            config, ParallelRunner(jobs=1), checkpoint_path=ck2
        ).run(max_rounds=1)
        finished_by_stealing = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=ck2,
        ).run()
        assert ref.to_json() == finished_by_stealing.to_json()

    def test_adaptive_resume_identical(self, tmp_path):
        config = small_config(**{k: ADAPTIVE[k] for k in ADAPTIVE})
        ref = round_report(config, jobs=1)
        ck = tmp_path / "ck.json"
        create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=ck,
        ).run(max_trials=2)
        out = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=ck,
        ).run()
        assert ref.to_json() == out.to_json()


class TestConvergenceCancellation:
    def test_converged_cell_schedules_nothing_further(self):
        config = small_config(**{k: ADAPTIVE[k] for k in ADAPTIVE})
        engine = create_engine(
            config, ParallelRunner(jobs=1), scheduler="stealing"
        )
        engine.run()
        # Replay the scheduler's event trace: once a cell's "cell-done"
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
        config = small_config(**{k: ADAPTIVE[k] for k in ADAPTIVE})
        engine = create_engine(
            config, ParallelRunner(jobs=1), scheduler="stealing"
        )
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
        # only: the stealing run commits exactly the round run's set.
        config = small_config(**{k: ADAPTIVE[k] for k in ADAPTIVE})
        ref = CampaignEngine(config, ParallelRunner(jobs=1))
        ref.run()
        out = create_engine(
            config, ParallelRunner(jobs=1), scheduler="stealing"
        )
        out.run()
        for cell in config.cells():
            ref_keys = [
                (r.index, r.attempt) for r in ref.outcomes[cell].records
            ]
            out_keys = [
                (r.index, r.attempt) for r in out.outcomes[cell].records
            ]
            assert sorted(ref_keys) == sorted(out_keys)


class TestCheckpointCadence:
    def test_writes_batched_behind_dirty_threshold(self, tmp_path):
        config = small_config()
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
        config = small_config()
        engine = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            checkpoint_path=tmp_path / "ck.json",
            checkpoint_every_trials=1,
            checkpoint_interval=0.0,
        )
        engine.run()
        total = sum(len(o.records) for o in engine.outcomes.values())
        assert 1 <= engine.checkpoint_writes <= total + 1

    def test_forced_flush_makes_resume_exact(self, tmp_path):
        config = small_config()
        ck = tmp_path / "ck.json"
        engine = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
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
        config = small_config(trials=4, batch_size=2)
        ref = round_report(config, jobs=1)
        cache = ResultCache(tmp_path / "cache")
        share = tmp_path / "share"
        kwargs = dict(
            scheduler="stealing",
            share_dir=share,
            coop_interval=0.01,
            lease_ttl=10.0,
        )
        a = create_engine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        b = create_engine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        report_a = a.run()
        report_b = b.run()
        assert ref.to_json() == report_a.to_json()
        assert ref.to_json() == report_b.to_json()
        # The second engine found everything published and adopted it.
        assert b.telemetry()["records_adopted"] == sum(
            len(o.records) for o in b.outcomes.values()
        )

    def test_interleaved_engines_partition_cells(self, tmp_path):
        # Drive two engines in alternating slices against one share dir;
        # leases must keep them off each other's cells while both are
        # mid-flight, and the union must converge to the full report.
        config = small_config(trials=4, batch_size=2)
        ref = round_report(config, jobs=1)
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            scheduler="stealing",
            share_dir=tmp_path / "share",
            coop_interval=0.0,
            lease_ttl=30.0,
        )
        a = create_engine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        b = create_engine(config, ParallelRunner(jobs=1, cache=cache), **kwargs)
        for _ in range(40):
            a.run(max_trials=1)
            b.run(max_trials=1)
            if a.report().complete and b.report().complete:
                break
        assert ref.to_json() == a.report().to_json()
        assert ref.to_json() == b.report().to_json()

    def test_stale_lease_takeover(self, tmp_path):
        config = small_config(trials=2, batch_size=2, schemes=("BaseP",))
        share = tmp_path / "share"
        # A dead peer holds every cell: fabricate unrenewed lease files.
        dead = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
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
        engine = create_engine(
            config,
            ParallelRunner(jobs=1),
            scheduler="stealing",
            share_dir=share,
            lease_ttl=0.05,
            coop_interval=0.0,
        )
        report = engine.run()
        assert report.complete
        assert engine.lease_takeovers == len(config.cells())


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
        return Job.from_spec(
            ExperimentSpec(
                "gzip", "BaseP", n_instructions=n, trace_seed=seed
            )
        )

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
        runner = ParallelRunner(jobs=1, retries=0)
        bad = Job.from_spec(
            ExperimentSpec(
                "gzip",
                "ICR-P-PS(S)",
                n_instructions=2_000,
                scheme_kwargs={"nosuch_knob": 1},
            )
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


class TestBackendAutoDispatch:
    def test_auto_resolves_per_cell(self):
        # Error-injection cells run on the per-access SoA kernel; a
        # scrubbing campaign walks CacheBlocks, so there "auto" must fall
        # back per cell rather than refusing the campaign.
        config = small_config(backend="auto")
        for cell in config.cells():
            assert config.trial_mode(cell) == "array-soa"
            assert config.trial_backend(cell) == "array"
            assert config.trial_spec(cell, 0, 0).backend == "array"
        scrubbed = small_config(backend="auto", scrub_period=500)
        for cell in scrubbed.cells():
            assert scrubbed.trial_backend(cell) == "object"
            assert scrubbed.trial_spec(cell, 0, 0).backend == "object"

    def test_auto_prefers_array_when_supported(self):
        config = CampaignConfig(
            benchmarks=("gzip",),
            schemes=("BaseP",),
            error_rates=(0.0,),
            trials=2,
            n_instructions=3_000,
            backend="auto",
        )
        cell = config.cells()[0]
        assert config.trial_mode(cell) != "object"
        assert config.trial_backend(cell) == "array"

    def test_auto_report_matches_object_backend(self):
        # Under "auto" error-injection campaigns run every cell on the
        # per-access SoA kernel; the trial population must match the
        # object backend's exactly — only the digest itself differs.
        base = small_config(trials=2, batch_size=2)
        auto = small_config(trials=2, batch_size=2, backend="auto")
        ref = round_report(base, jobs=1)
        out = create_engine(
            auto, ParallelRunner(jobs=1), scheduler="stealing"
        ).run()
        ref_cells = ref.to_dict()["cells"]
        out_cells = out.to_dict()["cells"]
        assert ref_cells == out_cells


class TestEngineFactory:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="round"):
            create_engine(small_config(), scheduler="fifo")

    def test_factory_builds_expected_types(self):
        assert isinstance(
            create_engine(small_config(), scheduler="round"), CampaignEngine
        )
        engine = create_engine(small_config(), scheduler="stealing")
        assert isinstance(engine, StealingCampaignEngine)
        assert engine.SCHEDULER == "stealing"

    def test_telemetry_shape(self):
        engine = create_engine(
            small_config(trials=2, batch_size=2),
            ParallelRunner(jobs=1),
            scheduler="stealing",
        )
        engine.run()
        t = engine.telemetry()
        for key in (
            "scheduler",
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
        assert t["scheduler"] == "stealing"
        assert 0.0 <= t["utilization"] <= 1.0
        for summary in t["backend_latency"].values():
            assert summary["count"] == sum(
                summary["histogram"]["counts"]
            )
