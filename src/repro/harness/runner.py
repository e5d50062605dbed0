"""Parallel experiment execution with caching, timeouts and retries.

:class:`ParallelRunner` is the one execution engine behind the sweep
utilities, the figure functions, the campaign engine, the service and
the CLI.  Its unit of work is an
:class:`~repro.harness.spec.ExperimentSpec`: it consults the
content-addressed result cache (:mod:`repro.harness.cache`) under the
spec's :meth:`~repro.harness.spec.ExperimentSpec.key` before simulating
anything and fans independent specs out over a ``multiprocessing``
worker pool.

There is one dispatch path, :class:`RunnerSession`: the batch call
:meth:`ParallelRunner.run` is a loop over a session, and the campaign
engine and the service drive sessions directly.  Only
:meth:`ParallelRunner.run_one` (one spec, in-process) bypasses it.

There is one retry policy.  Every job gets one attempt, in a pool
worker or in-process, bounded by the runner's wall-clock timeout; a
failed attempt gets one retry in the calling process, so a poisoned
pool cannot take the retry down with it.  A job that fails both
becomes a :class:`RunnerError`.  A pool that cannot start at all
(``fork`` refused) degrades its session to in-process execution.

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
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro import recovery
from repro.chaos import runtime as _chaos
from repro.harness.cache import ResultCache, UncacheableJobError
from repro.harness.experiment import SimulationResult, _run_spec
from repro.harness.spec import ExperimentSpec


def _cache_key(spec: ExperimentSpec) -> Optional[str]:
    """The spec's cache key, or None when it is uncacheable."""
    try:
        return spec.key()
    except UncacheableJobError:
        return None


class JobTimeoutError(RuntimeError):
    """A job exceeded the runner's per-job wall-clock budget."""


class RunnerError(RuntimeError):
    """A job failed on both its attempt and its retry."""

    def __init__(self, spec: ExperimentSpec, detail: str):
        super().__init__(f"job {spec.label} failed twice: {detail}")
        self.spec = spec
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


def _inject_trial_fault(
    spec: ExperimentSpec, last_attempt: bool = False
) -> None:
    """Fire the chaos fault scheduled for this trial, if any.

    Sits at the top of every execution attempt — pool worker, in-parent
    retry, in-process path — keyed by the spec's content hash, so the
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
    fault = _chaos.check_trial(_cache_key(spec) or spec.label)
    if fault == "timeout":
        raise JobTimeoutError(f"chaos: job {spec.label} forced timeout")
    if fault == "kill":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            # A real worker death: the pool observes a vanished process
            # (BrokenProcessPool), exactly like SIGKILL from outside.
            os._exit(137)
        raise _chaos.ChaosWorkerDeath(f"chaos: worker killed for {spec.label}")


def _run_with_timeout(
    spec: ExperimentSpec, timeout: Optional[float], last_attempt: bool = False
) -> SimulationResult:
    """Execute *spec*, bounded by an interval timer where the OS has one."""
    _inject_trial_fault(spec, last_attempt)
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
            raise JobTimeoutError(f"job {spec.label} exceeded {timeout}s")

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


def _worker(
    payload: tuple[ExperimentSpec, Optional[float]]
) -> tuple[str, object]:
    """Pool entry point: never raises, always returns a tagged outcome."""
    spec, timeout = payload
    try:
        return "ok", _run_with_timeout(spec, timeout)
    except JobTimeoutError as exc:
        return "timeout", str(exc)
    except Exception:
        return "error", traceback.format_exc()


class ParallelRunner:
    """Cache-aware executor for :class:`ExperimentSpec` jobs.

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
        Per-attempt wall-clock budget in seconds (``None`` = unbounded).
    progress:
        When true, a compact progress line is written to *stream*
        (default ``sys.stderr``) as batch jobs complete.

    Every job runs under the module's one retry policy: one attempt,
    then one retry in the calling process.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        progress: bool = False,
        stream=None,
    ):
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.cache = cache
        self.timeout = timeout
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.stats = RunnerStats()
        self._memo: dict[str, SimulationResult] = {}

    # -- single-job path (also the figures execution context) ------------

    def run_one(self, spec: ExperimentSpec) -> SimulationResult:
        """Run one experiment in-process, through memo and disk cache."""
        self.stats.jobs += 1
        started = time.monotonic()
        try:
            key = _cache_key(spec)
            if key is None:
                self.stats.uncacheable += 1
            result = self._lookup(key)
            if result is None:
                result = self._execute(spec, key)
        finally:
            self.stats.elapsed += time.monotonic() - started
        self.stats.completed += 1
        return result

    # -- batch path -------------------------------------------------------

    def run(self, specs: Sequence[ExperimentSpec]) -> list[SimulationResult]:
        """Run a batch of specs through one :meth:`session`, in input order.

        Identical specs in the batch are simulated once; the copies are
        filled afterwards and count as cache hits.  The session gets
        ``min(jobs, distinct specs)`` workers, so a lone spec runs
        in-process.  Every spec runs to completion; then the first one
        (in input order) that failed its attempt and its retry raises
        its :class:`RunnerError`.
        """
        specs = list(specs)
        results: list = [None] * len(specs)
        runs: dict[str, int] = {}  # key -> index of the spec that runs it
        unique: list[int] = []
        duplicates: list[tuple[int, int]] = []
        for index, spec in enumerate(specs):
            key = _cache_key(spec)
            if key in runs:
                duplicates.append((index, runs[key]))
                continue
            if key is not None:
                runs[key] = index
            unique.append(index)
        self.stats.jobs += len(duplicates)
        try:
            with self.session(workers=min(self.jobs, len(unique))) as session:
                for index in unique:
                    session.submit(specs[index], tag=index)
                while (handle := session.next_completed()) is not None:
                    results[handle.tag] = handle.result
                    self._tick()
            for result in results:
                if isinstance(result, RunnerError):
                    raise result
            for index, source in duplicates:
                results[index] = results[source]
                self.stats.cache_hits += 1
                self.stats.completed += 1
                self._tick()
        finally:
            self._finish_progress()
        return results

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

    def _execute(
        self, spec: ExperimentSpec, key: Optional[str], failed: Optional[str] = None
    ) -> SimulationResult:
        """Run *spec* in this process under the one retry policy.

        One attempt, then one retry; only the retry is the chaos hook's
        ``last_attempt``.  *failed* is the error of an attempt a pool
        worker already made, in which case only the retry runs here.
        Raises :class:`RunnerError` when the retry fails too.
        """
        if failed is None:
            try:
                result = _run_with_timeout(spec, self.timeout)
            except Exception:
                failed = traceback.format_exc()
        if failed is not None:
            self.stats.retries += 1
            try:
                result = _run_with_timeout(spec, self.timeout, last_attempt=True)
            except Exception:
                self.stats.failures += 1
                raise RunnerError(
                    spec, f"attempt: {failed}\nretry: {traceback.format_exc()}"
                ) from None
        self.stats.simulated += 1
        self._store(key, result)
        return result

    # -- incremental path -------------------------------------------------

    def session(self, *, workers: Optional[int] = None) -> "RunnerSession":
        """An incremental submit/cancel/as-completed execution session.

        A session keeps one worker pool alive and lets the caller feed
        it continuously: ``submit`` returns immediately,
        ``next_completed`` harvests results one at a time in completion
        order, and ``cancel`` revokes work that has not started.
        :meth:`run`, the campaign engine
        (:class:`~repro.harness.campaign.CampaignEngine`) and the
        service are built on this API.
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
    """One submitted spec inside a :class:`RunnerSession`.

    ``result`` is a :class:`SimulationResult` on success or a
    :class:`RunnerError` when the job failed its attempt *and* its
    retry; it is only meaningful once ``done`` is true.  ``tag`` is an
    opaque caller payload carried through untouched (the campaign
    engine stores its (cell, index, attempt) bookkeeping there,
    :meth:`ParallelRunner.run` the spec's batch index).
    """

    __slots__ = (
        "spec", "key", "tag", "done", "result",
        "cached", "cancelled", "_future",
    )

    def __init__(self, spec: ExperimentSpec, key: Optional[str], tag: Any = None):
        self.spec = spec
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

    Every job runs under the module's one retry policy: a failed pool
    attempt is retried once in the calling process, an in-process job
    gets its attempt and its retry there.  A pool whose worker died is
    rebuilt on the next submit (``pool_rebuilds``); a fresh pool that
    cannot start at all turns the session in-process for the rest of
    its life (``pool_start_failures``).

    The session shares the owning runner's memo, result cache, timeout
    and stats; a cache hit at submit time completes the handle
    immediately (it is still delivered through :meth:`next_completed`,
    in submit order, ahead of simulated work).
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
        self._drop_pool()
        self.runner.stats.elapsed += time.monotonic() - self._started

    # -- submission -------------------------------------------------------

    def submit(self, spec: ExperimentSpec, tag: Any = None) -> TrialHandle:
        """Queue *spec* for execution; returns immediately.

        A memo/disk-cache hit completes the handle on the spot (``done``
        and ``cached`` both true) — it still flows through
        :meth:`next_completed` so callers can use one harvest loop.

        Sessions are not thread-safe: the service confines its
        long-lived session to one execution thread and hands results
        off through its own queue.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        key = _cache_key(spec)
        handle = TrialHandle(spec, key, tag)
        self.runner.stats.jobs += 1
        cached = self.runner._lookup(key)
        if cached is not None:
            handle.cached = True
            self._ready.append(self._finish(handle, cached))
            return handle
        if key is None:
            self.runner.stats.uncacheable += 1
        future = self._pool_submit(spec) if self.workers > 1 else None
        if future is None:
            self._queue.append(handle)
        else:
            handle._future = future
            self._futures[future] = handle
        return handle

    def _pool_submit(self, spec: ExperimentSpec):
        """Hand *spec* to the pool; None once no pool can start."""
        payload = (spec, self.runner.timeout)
        if self._pool is not None:
            try:
                return self._pool.submit(_worker, payload)
            except BrokenExecutor:
                # A worker died hard enough to poison the executor (the
                # futures already submitted surface their own errors
                # through next_completed's retry): start a fresh pool.
                self._drop_pool()
                recovery.count("pool_rebuilds")
                recovery.warn(
                    "runner", "worker pool broke (worker died); rebuilt the pool"
                )
        try:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool.submit(_worker, payload)
        except (OSError, BrokenExecutor) as exc:
            self._drop_pool()
            self.workers = 1
            recovery.count("pool_start_failures")
            recovery.warn(
                "runner",
                f"worker pool could not start ({exc!r}); running in-process",
            )
            return None

    def _drop_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    #: Older name of :meth:`submit`.
    submit_spec = submit

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
        simulated jobs as they finish.  A job that failed its attempt
        and its retry carries a :class:`RunnerError` as its result.
        """
        if self._ready:
            return self._ready.popleft()
        if self._queue:
            return self._run_here(self._queue.popleft())
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
                self._ready.append(self._finish(handle, payload))
            else:
                self._ready.append(self._run_here(handle, str(payload)))
        return self._ready.popleft()

    # -- internals --------------------------------------------------------

    def _run_here(
        self, handle: TrialHandle, failed: Optional[str] = None
    ) -> TrialHandle:
        """Finish *handle* in this process: its attempt or, after a
        failed pool attempt (*failed*), its retry."""
        try:
            result = self.runner._execute(handle.spec, handle.key, failed)
        except RunnerError as error:
            result = error
        return self._finish(handle, result)

    def _finish(
        self, handle: TrialHandle, result: Union[SimulationResult, RunnerError]
    ) -> TrialHandle:
        handle.result = result
        handle.done = True
        if not isinstance(result, RunnerError):
            self.runner.stats.completed += 1
        return handle
