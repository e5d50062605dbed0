"""Tests for the parallel experiment runner.

The load-bearing property is *serial/parallel equivalence*: a
:class:`ParallelRunner` must return results field-for-field identical
to direct :func:`run_experiment` calls, for any worker count, including
under seeded fault injection — worker scheduling must never leak into
the simulation.
"""

import signal

import pytest

from repro import recovery
from repro.harness.cache import ResultCache
from repro.harness.experiment import run_experiment
from repro.harness.runner import (
    Job,
    ParallelRunner,
    RunnerError,
    RunnerStats,
)
from repro.harness.spec import ExperimentSpec

#: A small (benchmark, scheme, extra-kwargs) grid exercising base, S and
#: LS replication plus a non-default seed.
GRID = [
    ("gzip", "BaseP", {}),
    ("gzip", "ICR-P-PS(S)", {}),
    ("vpr", "ICR-P-PS(LS)", {"decay_window": 1000}),
    ("vpr", "BaseECC", {"trace_seed": 3}),
]
N = 4_000


def _jobs(extra=None):
    return [
        Job(bench, scheme, dict(n_instructions=N, **kwargs, **(extra or {})))
        for bench, scheme, kwargs in GRID
    ]


def _serial(extra=None):
    return [
        run_experiment(
            ExperimentSpec.from_kwargs(
                bench, scheme, n_instructions=N, **kwargs, **(extra or {})
            )
        )
        for bench, scheme, kwargs in GRID
    ]


class TestSerialParallelEquivalence:
    def test_parallel_identical_to_serial(self):
        serial = _serial()
        parallel = ParallelRunner(jobs=2).run(_jobs())
        assert len(parallel) == len(serial)
        for expected, got in zip(serial, parallel):
            # Dataclass equality covers every field (pipeline, dl1
            # counters, energy, ...); spot-check the headline numbers
            # so a failure names the culprit.
            assert got.cycles == expected.cycles
            assert got.dl1 == expected.dl1
            assert got.energy == expected.energy
            assert got == expected

    def test_equivalence_under_error_injection(self):
        # Seeded injection must not depend on worker scheduling.
        extra = {"error_rate": 0.01, "error_seed": 7}
        serial = _serial(extra)
        parallel = ParallelRunner(jobs=3).run(_jobs(extra))
        for expected, got in zip(serial, parallel):
            assert got.dl1["errors_injected"] == expected.dl1["errors_injected"]
            assert got == expected
        assert any(r.dl1["errors_injected"] > 0 for r in parallel)

    def test_result_order_matches_job_order(self):
        results = ParallelRunner(jobs=2).run(_jobs())
        assert [r.benchmark for r in results] == [b for b, _, _ in GRID]
        assert [r.scheme for r in results] == [
            "BaseP", "ICR-P-PS(S)", "ICR-P-PS(LS)", "BaseECC"
        ]

    def test_run_one_matches_run_experiment(self):
        direct = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "ICR-P-PS(S)", n_instructions=N)
        )
        via_runner = ParallelRunner(jobs=1).run_one(
            "gzip", "ICR-P-PS(S)", n_instructions=N
        )
        assert via_runner == direct


class TestInProcessFallback:
    def test_jobs1_never_spawns_a_pool(self, monkeypatch):
        import repro.harness.runner as runner_mod

        def _forbidden(*args, **kwargs):
            raise AssertionError("jobs=1 must stay in-process")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", _forbidden)
        results = ParallelRunner(jobs=1).run(_jobs())
        assert [r.cycles for r in results] == [r.cycles for r in _serial()]

    def test_single_pending_job_stays_in_process(self, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool used")),
        )
        job = Job("gzip", "BaseP", dict(n_instructions=N))
        results = ParallelRunner(jobs=8).run([job])
        assert results[0].scheme == "BaseP"


class TestPoolCannotStart:
    def test_run_falls_back_to_in_process(self, fork_refused):
        before = recovery.counter("pool_start_failures")
        runner = ParallelRunner(jobs=2)
        assert runner.run(_jobs()) == _serial()
        assert runner.stats.simulated == len(GRID)
        assert runner.stats.retries == 0
        assert recovery.counter("pool_start_failures") == before + 1


class TestBatchAccounting:
    """One mixed batch: a memo hit, a fresh job, its duplicate and
    (optionally) a job that fails its attempt and its retry."""

    BAD = Job("gzip", "ICR-P-PS(S)", dict(n_instructions=N, nosuch_knob=1))

    @classmethod
    def _counts(cls, workers, failing):
        runner = ParallelRunner(jobs=workers)
        memo_hit = Job("gzip", "BaseP", dict(n_instructions=N))
        runner.run([memo_hit])
        fresh = Job("gzip", "BaseECC", dict(n_instructions=N))
        duplicate = Job("gzip", "BaseECC", dict(n_instructions=N))
        batch = [memo_hit, fresh, duplicate]
        if failing:
            with pytest.raises(RunnerError, match="nosuch"):
                runner.run(batch + [cls.BAD])
        else:
            results = runner.run(batch)
            assert results[1] is results[2]
        counts = runner.stats.snapshot()
        del counts["elapsed"], counts["sims_per_sec"]
        return counts

    @pytest.mark.parametrize(
        "failing, expected",
        [
            (
                False,
                dict(jobs=4, completed=4, cache_hits=2, simulated=2,
                     retries=0, failures=0, hit_rate=0.5),
            ),
            (
                True,
                dict(jobs=5, completed=3, cache_hits=1, simulated=2,
                     retries=1, failures=1, hit_rate=0.2),
            ),
        ],
        ids=["clean", "failing"],
    )
    def test_same_counts_on_every_worker_count(self, failing, expected):
        expected = dict(expected, uncacheable=0, cancelled=0)
        assert self._counts(1, failing) == expected
        assert self._counts(2, failing) == expected


class TestRetryAndFailure:
    # Unknown scheme *names* are rejected by the registry before a job
    # ever reaches a worker, so a bogus ICR knob (caught only when the
    # worker builds the config) is the run-time failure vector here.

    def test_failing_job_raises_after_retry(self):
        runner = ParallelRunner(jobs=1)
        bad = Job("gzip", "ICR-P-PS(S)", dict(n_instructions=N, nosuch_knob=1))
        with pytest.raises(RunnerError, match="nosuch"):
            runner.run([bad])
        assert runner.stats.retries == 1
        assert runner.stats.failures == 1

    def test_pool_failure_retried_in_parent(self):
        runner = ParallelRunner(jobs=2)
        jobs = [
            Job("gzip", "BaseP", dict(n_instructions=N)),
            Job("gzip", "ICR-P-PS(S)", dict(n_instructions=N, nosuch_knob=1)),
        ]
        with pytest.raises(RunnerError):
            runner.run(jobs)
        assert runner.stats.retries == runner.stats.failures == 1

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs POSIX interval timers"
    )
    def test_timeout_enforced(self):
        runner = ParallelRunner(jobs=1, timeout=0.005)
        with pytest.raises(RunnerError, match="exceeded"):
            runner.run([Job("gzip", "BaseP", dict(n_instructions=2_000_000))])
        assert runner.stats.failures == 1


class TestCachingBehavior:
    def test_disk_cache_round_trip(self, tmp_path):
        first = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        a = first.run(_jobs())
        assert first.stats.simulated == len(GRID)

        second = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        b = second.run(_jobs())
        assert second.stats.simulated == 0
        assert second.stats.cache_hits == len(GRID)
        assert a == b

    def test_memo_serves_repeats_without_disk(self):
        runner = ParallelRunner(jobs=1)  # no disk cache at all
        first = runner.run(_jobs())
        second = runner.run(_jobs())
        assert first == second
        assert runner.stats.simulated == len(GRID)
        assert runner.stats.cache_hits == len(GRID)

    def test_duplicate_jobs_simulated_once(self):
        job = Job("gzip", "BaseP", dict(n_instructions=N))
        runner = ParallelRunner(jobs=1)
        results = runner.run([job, Job("gzip", "BaseP", dict(n_instructions=N))])
        assert runner.stats.simulated == 1
        assert results[0] == results[1]


class TestRunnerStats:
    def test_summary_mentions_every_headline_metric(self):
        stats = RunnerStats(jobs=10, cache_hits=9, simulated=1, elapsed=2.0)
        line = stats.summary()
        assert "10 jobs" in line
        assert "9 cache hits (90.0%)" in line
        assert "sims/s" in line

    def test_rates_guard_division_by_zero(self):
        stats = RunnerStats()
        assert stats.hit_rate == 0.0
        assert stats.sims_per_sec == 0.0

    def test_run_grid_keys(self):
        runner = ParallelRunner(jobs=1)
        grid = runner.run_grid(["gzip"], ["BaseP", "BaseECC"], n_instructions=N)
        assert set(grid) == {("gzip", "BaseP"), ("gzip", "BaseECC")}
