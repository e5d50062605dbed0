"""Parallel experiment execution with caching, timeouts and retries.

:class:`ParallelRunner` is the one execution engine behind the sweep
utilities, the figure functions and the CLI.  It fans independent
``(benchmark, scheme, kwargs)`` jobs out over a ``multiprocessing``
worker pool, consults the content-addressed result cache
(:mod:`repro.harness.cache`) before simulating anything, and guards
every job with a wall-clock timeout plus one retry — a crashed or hung
worker costs one job attempt, not the whole sweep.

Because every experiment is deterministic (seeded traces, seeded fault
injection), a parallel run returns results *bit-identical* to the serial
path regardless of worker scheduling; ``tests/test_harness_runner.py``
locks that equivalence.  With ``jobs=1`` everything runs in-process —
no fork, no pool — so coverage tools, profilers and ``pdb`` keep
working.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro import recovery
from repro.chaos import runtime as _chaos
from repro.core.config import ICRConfig
from repro.harness.cache import ResultCache, UncacheableJobError, job_key
from repro.harness.experiment import SimulationResult, _run_spec
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import WorkloadProfile


@dataclass
class Job:
    """One :func:`run_experiment` invocation, ready to ship to a worker."""

    benchmark: Union[str, WorkloadProfile]
    scheme: Union[str, ICRConfig]
    kwargs: dict = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "Job":
        """A job whose cache key is the spec's content hash."""
        return cls(spec.benchmark, spec.scheme, spec.run_kwargs())

    def spec(self) -> ExperimentSpec:
        """The :class:`ExperimentSpec` this job executes."""
        return ExperimentSpec.from_kwargs(
            self.benchmark, self.scheme, **self.kwargs
        )

    @property
    def label(self) -> str:
        bench = (
            self.benchmark if isinstance(self.benchmark, str) else self.benchmark.name
        )
        scheme = self.scheme if isinstance(self.scheme, str) else self.scheme.name
        return f"{bench}/{scheme}"

    def key(self) -> Optional[str]:
        """Cache key, or None when the job is uncacheable."""
        try:
            return job_key(self.benchmark, self.scheme, self.kwargs)
        except UncacheableJobError:
            return None


class JobTimeoutError(RuntimeError):
    """A job exceeded the runner's per-job wall-clock budget."""


class RunnerError(RuntimeError):
    """A job failed on both its first attempt and its retry."""

    def __init__(self, job: Job, detail: str):
        super().__init__(f"job {job.label} failed twice: {detail}")
        self.job = job
        self.detail = detail


@dataclass
class RunnerStats:
    """Aggregate counters for everything a runner executed."""

    jobs: int = 0
    completed: int = 0
    cache_hits: int = 0
    simulated: int = 0
    retries: int = 0
    failures: int = 0
    uncacheable: int = 0
    cancelled: int = 0
    elapsed: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0

    @property
    def sims_per_sec(self) -> float:
        return self.simulated / self.elapsed if self.elapsed > 0 else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-data counters (the service's telemetry payload)."""
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "retries": self.retries,
            "failures": self.failures,
            "uncacheable": self.uncacheable,
            "cancelled": self.cancelled,
            "elapsed": self.elapsed,
            "hit_rate": self.hit_rate,
            "sims_per_sec": self.sims_per_sec,
        }

    def summary(self) -> str:
        """The one-line metrics report emitted after a batch."""
        cancelled = f"{self.cancelled} cancelled · " if self.cancelled else ""
        return (
            f"[runner] {self.jobs} jobs · "
            f"{self.cache_hits} cache hits ({self.hit_rate * 100:.1f}%) · "
            f"{self.simulated} simulated · {self.retries} retries · "
            f"{cancelled}"
            f"{self.elapsed:.2f}s · {self.sims_per_sec:.2f} sims/s"
        )


#: Frames a timeout must not raise from: an exception raised inside a
#: GC callback is "unraisable" (it never reaches the caller, and pytest
#: escalates it to a warning), and one raised inside import/warning
#: machinery propagates out of whatever innocent allocation triggered
#: it, skipping the runner's except-and-retry entirely.  The interval
#: re-arm means declining here only defers the raise to the next alarm,
#: which lands in an ordinary frame.
_FRAGILE_FRAME_MARKERS = (
    "importlib",
    "warnings.py",
    "tracemalloc.py",
    "linecache.py",
    "unraisableexception.py",
)


def _frame_safe_to_raise(frame) -> bool:
    depth = 0
    while frame is not None and depth < 16:
        code = frame.f_code
        if code.co_name == "gc_callback":
            return False
        filename = code.co_filename
        if any(marker in filename for marker in _FRAGILE_FRAME_MARKERS):
            return False
        frame = frame.f_back
        depth += 1
    return True


def _inject_trial_fault(job: Job, last_attempt: bool = False) -> None:
    """Fire the chaos fault scheduled for this trial, if any.

    Sits at the top of every execution attempt — pool worker, in-parent
    retry, in-process path — keyed by the job's content hash, so the
    fault fires on exactly one attempt anywhere in the process tree and
    the retry of the *same* spec sails through.  That placement is what
    keeps chaos beneath the runner's retry boundary: the campaign never
    sees the fault, so the report stays byte-identical.

    With *last_attempt* nothing fires: the plan schedules *survivable*
    faults by contract, and an execution with no retry budget left has
    no way to survive one.  This matters for collateral damage — when a
    killed worker breaks the pool, every other in-flight job falls back
    to its single in-parent retry, and a fresh fault firing there would
    escalate into a permanent trial failure the reference run never saw.
    """
    if last_attempt or _chaos.active() is None:
        return
    fault = _chaos.check_trial(job.key() or job.label)
    if fault == "timeout":
        raise JobTimeoutError(f"chaos: job {job.label} forced timeout")
    if fault == "kill":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            # A real worker death: the pool observes a vanished process
            # (BrokenProcessPool), exactly like SIGKILL from outside.
            os._exit(137)
        raise _chaos.ChaosWorkerDeath(f"chaos: worker killed for {job.label}")


def _run_with_timeout(
    job: Job, timeout: Optional[float], last_attempt: bool = False
) -> SimulationResult:
    """Execute *job*, bounded by an interval timer where the OS has one."""
    _inject_trial_fault(job, last_attempt)
    spec = job.spec()
    if not timeout or not hasattr(signal, "SIGALRM"):
        return _run_spec(spec)

    # The armed flag closes the pending-delivery race: a signal that
    # arrived at the C level just before the disarm below can still be
    # delivered to the Python handler a few bytecodes *after* the try
    # block has exited, where a raise would escape the caller's
    # except-and-retry — so the handler only raises while armed.
    armed = True

    def _expired(signum, frame):
        if armed and _frame_safe_to_raise(frame):
            raise JobTimeoutError(f"job {job.label} exceeded {timeout}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    # Re-arm the timer rather than firing once: if the first SIGALRM
    # lands while the interpreter is inside a GC callback (or any other
    # frame that swallows exceptions raised by signal handlers), a
    # one-shot alarm is silently lost and the job runs unbounded.  With
    # a repeat interval the next alarm fires from a normal frame and
    # the timeout still lands.
    signal.setitimer(signal.ITIMER_REAL, timeout, min(timeout, 0.05))
    try:
        return _run_spec(spec)
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _worker(payload: tuple[Job, Optional[float]]) -> tuple[str, object]:
    """Pool entry point: never raises, always returns a tagged outcome."""
    job, timeout = payload
    try:
        return "ok", _run_with_timeout(job, timeout)
    except JobTimeoutError as exc:
        return "timeout", str(exc)
    except Exception:
        return "error", traceback.format_exc()


class ParallelRunner:
    """Cache-aware batch executor for experiment jobs.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.  With
        1 everything runs in the calling process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable persistence.
        An in-memory memo is always kept, so repeated identical jobs
        within one runner never re-simulate even without a disk cache.
    timeout:
        Per-job wall-clock budget in seconds (``None`` = unbounded).
    retries:
        Extra attempts after a crash or timeout (default 1).  Retries
        run *in the parent process*, so a poisoned worker pool cannot
        take the retry down with it.
    progress:
        When true, a compact progress line is written to *stream*
        (default ``sys.stderr``) as jobs complete.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        progress: bool = False,
        stream=None,
    ):
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, retries)
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.stats = RunnerStats()
        self._memo: dict[str, SimulationResult] = {}

    # -- single-job path (also the figures execution context) ------------

    def run_one(self, benchmark, scheme=None, **kwargs) -> SimulationResult:
        """Run one experiment in-process, through memo and disk cache.

        Accepts either an :class:`ExperimentSpec` as the sole argument
        or the legacy ``(benchmark, scheme, **kwargs)`` form.
        """
        if isinstance(benchmark, ExperimentSpec):
            if scheme is not None or kwargs:
                raise TypeError("run_one(spec) takes no further arguments")
            job = Job.from_spec(benchmark)
        else:
            job = Job(benchmark, scheme, kwargs)
        self.stats.jobs += 1
        started = time.monotonic()
        try:
            key = job.key()
            if key is None:
                self.stats.uncacheable += 1
            result = self._lookup(key)
            if result is None:
                result = self._execute_with_retry(job, key)
        finally:
            self.stats.elapsed += time.monotonic() - started
        self.stats.completed += 1
        return result

    # -- batch path -------------------------------------------------------

    def run(
        self, jobs: Sequence[Job], *, on_error: str = "raise"
    ) -> list[SimulationResult]:
        """Run a batch of jobs, returning results in input order.

        *on_error* controls what happens when a job fails its attempt
        *and* its retries: ``"raise"`` (default) propagates the
        :class:`RunnerError`; ``"return"`` places the error object in
        the result list at the job's position and keeps going, so one
        pathological job degrades its slot instead of aborting the
        batch.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        jobs = list(jobs)
        self.stats.jobs += len(jobs)
        started = time.monotonic()
        results: list[Optional[SimulationResult]] = [None] * len(jobs)
        pending: list[tuple[int, Job, Optional[str]]] = []
        scheduled: set[str] = set()
        duplicates: list[tuple[int, str]] = []
        failed: dict[str, RunnerError] = {}
        try:
            for index, job in enumerate(jobs):
                key = job.key()
                cached = self._lookup(key)
                if cached is not None:
                    results[index] = cached
                    self.stats.completed += 1
                    self._tick()
                elif key is not None and key in scheduled:
                    # Identical job already in this batch: simulate once,
                    # fill the duplicate from the memo afterwards.
                    duplicates.append((index, key))
                else:
                    if key is None:
                        self.stats.uncacheable += 1
                    else:
                        scheduled.add(key)
                    pending.append((index, job, key))

            if pending:
                if self.jobs <= 1 or len(pending) == 1:
                    for index, job, key in pending:
                        try:
                            results[index] = self._execute_with_retry(job, key)
                        except RunnerError as error:
                            if on_error == "raise":
                                raise
                            results[index] = error
                            if key is not None:
                                failed[key] = error
                        self.stats.completed += 1
                        self._tick()
                else:
                    self._run_pool(pending, results, on_error, failed)
            for index, key in duplicates:
                hit = self._memo.get(key)
                if hit is not None:
                    results[index] = hit
                    self.stats.cache_hits += 1
                else:
                    # The job this duplicated failed (on_error="return").
                    results[index] = failed[key]
                self.stats.completed += 1
                self._tick()
        finally:
            self.stats.elapsed += time.monotonic() - started
            self._finish_progress()
        return results  # type: ignore[return-value]

    def run_grid(
        self,
        benchmarks: Sequence[Union[str, WorkloadProfile]],
        schemes: Sequence[Union[str, ICRConfig]],
        **kwargs,
    ) -> dict[tuple[str, str], SimulationResult]:
        """Convenience: the full benchmark × scheme product, keyed by label."""
        grid = [Job(b, s, dict(kwargs)) for b in benchmarks for s in schemes]
        results = self.run(grid)
        return {
            (r.benchmark, r.scheme): r for r in results
        }

    # -- internals --------------------------------------------------------

    def _lookup(self, key: Optional[str]) -> Optional[SimulationResult]:
        if key is None:
            return None
        hit = self._memo.get(key)
        if hit is None and self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self._memo[key] = hit
        if hit is not None:
            self.stats.cache_hits += 1
        return hit

    def _store(self, key: Optional[str], result: SimulationResult) -> None:
        if key is not None:
            self._memo[key] = result
            if self.cache is not None:
                self.cache.put(key, result)

    def _execute_with_retry(self, job: Job, key: Optional[str]) -> SimulationResult:
        """In-process execution with the same retry budget as the pool."""
        attempts = 1 + self.retries
        last_error = "unknown"
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
            try:
                result = _run_with_timeout(
                    job, self.timeout, attempt == attempts - 1
                )
            except Exception:
                last_error = traceback.format_exc()
                continue
            self.stats.simulated += 1
            self._store(key, result)
            return result
        self.stats.failures += 1
        raise RunnerError(job, last_error)

    def _run_pool(
        self,
        pending: list[tuple[int, Job, Optional[str]]],
        results: list[Optional[SimulationResult]],
        on_error: str = "raise",
        failed: Optional[dict[str, "RunnerError"]] = None,
    ) -> None:
        workers = min(self.jobs, len(pending))
        needs_retry: list[tuple[int, Job, Optional[str], str]] = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_worker, (job, self.timeout)): (index, job, key)
                    for index, job, key in pending
                }
                outstanding = set(futures)
                while outstanding:
                    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, job, key = futures[future]
                        try:
                            status, payload = future.result()
                        except Exception as exc:  # worker died, pool broken, ...
                            status, payload = "error", repr(exc)
                        if status == "ok":
                            self.stats.simulated += 1
                            self.stats.completed += 1
                            self._store(key, payload)
                            results[index] = payload
                            self._tick()
                        else:
                            needs_retry.append((index, job, key, str(payload)))
        except Exception as exc:
            # The pool itself failed (fork bomb limits, broken executor
            # mid-shutdown, ...): salvage every unfinished job in-process.
            needs_retry.extend(
                (index, job, key, repr(exc))
                for index, job, key in pending
                if results[index] is None
                and not any(index == i for i, *_ in needs_retry)
            )
        for index, job, key, error in needs_retry:
            self.stats.retries += 1
            try:
                result = _run_with_timeout(job, self.timeout, True)
            except Exception:
                self.stats.failures += 1
                runner_error = RunnerError(
                    job, f"pool attempt: {error}\nretry: {traceback.format_exc()}"
                )
                if on_error == "raise":
                    raise runner_error from None
                results[index] = runner_error
                if failed is not None and key is not None:
                    failed[key] = runner_error
                self.stats.completed += 1
                self._tick()
                continue
            self.stats.simulated += 1
            self.stats.completed += 1
            self._store(key, result)
            results[index] = result
            self._tick()

    # -- incremental path (the campaign engine's substrate) --------------

    def session(self, *, workers: Optional[int] = None) -> "RunnerSession":
        """An incremental submit/cancel/as-completed execution session.

        Where :meth:`run` is a batch barrier (every job submitted up
        front, results returned together), a session keeps one worker
        pool alive and lets the caller feed it continuously: ``submit``
        returns immediately, ``next_completed`` harvests results one at
        a time in completion order, and ``cancel`` revokes work that has
        not started.  The campaign engine
        (:class:`~repro.harness.campaign.CampaignEngine`) is built on
        this API.
        """
        return RunnerSession(self, workers=workers)

    # -- progress ---------------------------------------------------------

    def _tick(self) -> None:
        if not self.progress:
            return
        s = self.stats
        line = (
            f"\r[runner] {s.completed}/{s.jobs} done · "
            f"{s.cache_hits} cache hits · {s.simulated} simulated"
        )
        print(line, end="", file=self.stream, flush=True)

    def _finish_progress(self) -> None:
        if self.progress:
            print(file=self.stream)


class TrialHandle:
    """One submitted job inside a :class:`RunnerSession`.

    ``result`` is a :class:`SimulationResult` on success or a
    :class:`RunnerError` when the job failed its pool attempt *and* the
    in-parent retry (mirroring ``run(on_error="return")``); it is only
    meaningful once ``done`` is true.  ``tag`` is an opaque caller
    payload carried through untouched (the campaign engine stores its
    (cell, index, attempt) bookkeeping there).
    """

    __slots__ = (
        "job", "key", "tag", "done", "result",
        "cached", "cancelled", "_future",
    )

    def __init__(self, job: Job, key: Optional[str], tag: Any = None):
        self.job = job
        self.key = key
        self.tag = tag
        self.done = False
        self.result: Union[SimulationResult, RunnerError, None] = None
        self.cached = False
        self.cancelled = False
        self._future = None

    @property
    def ok(self) -> bool:
        return self.done and not isinstance(self.result, RunnerError)


class RunnerSession:
    """Incremental executor over a persistent worker pool.

    With ``workers > 1`` jobs go to one long-lived
    :class:`ProcessPoolExecutor` (created lazily on the first
    uncached submit); with ``workers <= 1`` submitted jobs queue
    in-process and execute lazily inside :meth:`next_completed`, which
    keeps single-worker sessions deterministic *and* cancellable.

    The session shares the owning runner's memo, result cache, timeout,
    retry budget and stats; a cache hit at submit time completes the
    handle immediately (it is still delivered through
    :meth:`next_completed`, in submit order, ahead of simulated work).
    """

    def __init__(self, runner: ParallelRunner, *, workers: Optional[int] = None):
        self.runner = runner
        self.workers = workers if workers and workers > 0 else runner.jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: dict = {}  # Future -> TrialHandle
        self._queue: deque[TrialHandle] = deque()  # in-process pending
        self._ready: deque[TrialHandle] = deque()  # completed, unharvested
        self._started = time.monotonic()
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "RunnerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down, revoking anything still queued."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.runner.stats.elapsed += time.monotonic() - self._started

    # -- submission -------------------------------------------------------

    def submit(self, job: Job, tag: Any = None) -> TrialHandle:
        """Queue *job* for execution; returns immediately.

        A memo/disk-cache hit completes the handle on the spot (``done``
        and ``cached`` both true) — it still flows through
        :meth:`next_completed` so callers can use one harvest loop.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        key = job.key()
        handle = TrialHandle(job, key, tag)
        self.runner.stats.jobs += 1
        cached = self.runner._lookup(key)
        if cached is not None:
            handle.result = cached
            handle.done = True
            handle.cached = True
            self.runner.stats.completed += 1
            self._ready.append(handle)
            return handle
        if key is None:
            self.runner.stats.uncacheable += 1
        if self.workers <= 1:
            self._queue.append(handle)
        else:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                future = self._pool.submit(_worker, (job, self.runner.timeout))
            except BrokenExecutor:
                # A worker died hard enough to poison the executor (the
                # already-submitted futures surface their own errors
                # through next_completed's in-parent retry).  Rebuild
                # once and resubmit; a second failure is a real
                # environment problem and propagates.
                self._rebuild_pool()
                future = self._pool.submit(_worker, (job, self.runner.timeout))
            handle._future = future
            self._futures[future] = handle
        return handle

    def _rebuild_pool(self) -> None:
        """Replace a broken executor with a fresh one (session keeps going)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        recovery.count("pool_rebuilds")
        recovery.warn(
            "runner", "worker pool broke (worker died); rebuilt the pool"
        )

    def submit_spec(self, spec: ExperimentSpec, tag: Any = None) -> TrialHandle:
        """:meth:`submit` for an :class:`ExperimentSpec`.

        The convenience entry point of callers that live entirely in
        spec vocabulary — the simulation service feeds its job queue
        through here, one long-lived session per server process, from a
        dedicated execution thread (the session API is not thread-safe;
        confine each session to one thread and hand results off through
        your own queue).
        """
        return self.submit(Job.from_spec(spec), tag)

    def cancel(self, handle: TrialHandle) -> bool:
        """Revoke *handle* if its job has not started; True on success.

        A running or finished job cannot be revoked — the caller is free
        to ignore its result instead (results are side-effect-free
        beyond the shared cache, which only makes future lookups
        cheaper).
        """
        if handle.done or handle.cancelled:
            return False
        if handle._future is not None:
            if not handle._future.cancel():
                return False
            del self._futures[handle._future]
            handle._future = None
        else:
            try:
                self._queue.remove(handle)
            except ValueError:
                return False
        handle.cancelled = True
        handle.done = True
        self.runner.stats.cancelled += 1
        return True

    def outstanding(self) -> int:
        """Submitted handles not yet harvested (queued, running or ready)."""
        return len(self._queue) + len(self._futures) + len(self._ready)

    def in_flight(self) -> int:
        """Submitted handles not yet finished (queued or running)."""
        return len(self._queue) + len(self._futures)

    # -- harvesting -------------------------------------------------------

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[TrialHandle]:
        """The next finished handle, or None on timeout / empty session.

        Completion order: cache hits first (in submit order), then
        simulated jobs as their workers finish.  Failed jobs get one
        in-parent retry before surfacing a :class:`RunnerError` as the
        handle's result — exactly the batch path's degradation
        contract.
        """
        if self._ready:
            return self._ready.popleft()
        if self._queue:
            handle = self._queue.popleft()
            return self._finish(handle, *self._execute(handle.job, handle.key))
        if not self._futures:
            return None
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            return None
        for future in done:
            handle = self._futures.pop(future)
            handle._future = None
            try:
                status, payload = future.result()
            except Exception as exc:  # worker died, pool broken, ...
                status, payload = "error", repr(exc)
            if status == "ok":
                self.runner.stats.simulated += 1
                self.runner._store(handle.key, payload)
                self._ready.append(self._finish(handle, payload, None))
            else:
                # In-parent retry, mirroring the batch pool path: one
                # pool attempt has already failed, so this burns the
                # retry budget directly in the calling process.
                self.runner.stats.retries += 1
                try:
                    result = _run_with_timeout(
                        handle.job, self.runner.timeout, True
                    )
                except Exception:
                    self.runner.stats.failures += 1
                    error = RunnerError(
                        handle.job,
                        f"pool attempt: {payload}\n"
                        f"retry: {traceback.format_exc()}",
                    )
                    self._ready.append(self._finish(handle, None, error))
                else:
                    self.runner.stats.simulated += 1
                    self.runner._store(handle.key, result)
                    self._ready.append(self._finish(handle, result, None))
        return self._ready.popleft()

    # -- internals --------------------------------------------------------

    def _execute(self, job: Job, key: Optional[str]):
        """In-process execution with the runner's full retry budget."""
        try:
            return self.runner._execute_with_retry(job, key), None
        except RunnerError as error:
            return None, error

    def _finish(
        self,
        handle: TrialHandle,
        result: Optional[SimulationResult],
        error: Optional[RunnerError],
    ) -> TrialHandle:
        handle.result = error if error is not None else result
        handle.done = True
        self.runner.stats.completed += 1
        return handle
