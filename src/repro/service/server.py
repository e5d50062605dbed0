"""The simulation job server: many clients, one simulator, one cache.

:class:`SimulationService` turns the batch reproduction into a
long-running service.  Clients POST :class:`~repro.api.ExperimentSpec`
wire payloads (and campaign configs) over HTTP+JSON; the service levels
the load through a persistent on-disk job queue
(:mod:`repro.service.jobs`), dedupes identical specs in flight (the
spec's canonical ``key()`` is the job id, so N concurrent submissions
of one spec cost one simulation and N waiters), executes on the
existing runner substrate, and serves results from a sharded in-memory
read-through tier (:class:`~repro.api.ReadThroughCache`) so hot keys
never touch the simulator — or even the disk.

Threading model (three lanes, one owner each):

* the **asyncio event loop** owns every job record, the progress-event
  log and all HTTP handling; nothing else mutates them;
* one **execution thread** owns a single long-lived
  :meth:`~repro.api.ParallelRunner.session` (the campaign engine's
  substrate) and feeds it experiment jobs from a
  thread-safe queue, marshalling completions back to the loop with
  ``call_soon_threadsafe``;
* **campaign threads** (a small pool) each run one campaign to
  completion through :func:`~repro.api.create_engine` with its own
  runner — sharing the same disk cache, so campaign trials and ad-hoc
  jobs warm each other.

Because execution delegates to the same runner/cache/engine machinery
as local calls, a result served over HTTP is byte-identical to
``run_experiment(spec)`` run in-process — the concurrency test in
``tests/test_service.py`` pins exactly that.

The service builds and runs simulations exclusively through
:mod:`repro.api` — it is the facade's first consumer and the reason the
facade is frozen.  Its telemetry also reads two internals that never
touch the wire: the kernel-tier resolver
(:func:`repro.core.array_kernel.backend_mode`) and the latency summary
it shares with campaigns.
"""

from __future__ import annotations

import asyncio
import json
import queue as _thread_queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro import recovery
from repro.api import (
    CampaignConfig,
    ExperimentSpec,
    ParallelRunner,
    ReadThroughCache,
    ResultCache,
    UnknownSchemeError,
    create_engine,
    get_scheme,
    list_schemes,
)
from repro.core.array_kernel import backend_mode
from repro.harness.campaign import latency_summary
from repro.service import jobs as _jobs
from repro.service.http import (
    HttpError,
    Request,
    json_response,
    read_request,
    sse_event,
    sse_preamble,
)
from repro.service.jobs import JobRecord, PersistentJobQueue

#: Sentinel shutting the execution thread down.
_STOP = object()


@dataclass
class ServiceConfig:
    """Everything one server process needs to know."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: Worker processes for the runner session (1 = in-process, which
    #: keeps tests deterministic); ``None`` means all cores.
    workers: Optional[int] = 1
    #: Result cache directory (``None`` = $REPRO_CACHE_DIR / default).
    cache_dir: Union[str, Path, None] = None
    #: Job queue directory (records + campaign checkpoints).
    queue_dir: Union[str, Path] = ".repro-service"
    store_shards: int = 16
    store_capacity_per_shard: int = 256
    #: Concurrent-campaign cap.
    max_campaigns: int = 2
    #: Campaign checkpoint cadence (records-dirty / seconds-elapsed).
    #: Deliberately tighter than the library defaults: a service exists
    #: to be killed and restarted, and the checkpoint bounds how much
    #: work a restart repeats.
    checkpoint_every_trials: int = 8
    checkpoint_interval: float = 2.0
    #: Per-job wall-clock budget forwarded to the runner.
    timeout: Optional[float] = None
    #: In-memory retention bounds, so a long-running server does not
    #: grow linearly with every job ever submitted: latency samples per
    #: kernel tier, and terminal job records (+ their event logs) kept as
    #: the dedup index.
    max_latency_samples: int = 512
    max_terminal_jobs: int = 4096


class SimulationService:
    """The asyncio job server (see the module docstring for the design).

    Construct, then ``await start()`` inside a running event loop; the
    bound port is :attr:`port` (useful with ``port=0``).  ``await
    stop()`` drains cleanly.  ``start_execution=False`` boots the HTTP
    and queue layers without the execution thread — submissions persist
    and queue but never run, which is how the tests model a server
    killed before its backlog drains.
    """

    def __init__(self, config: ServiceConfig, *, start_execution: bool = True):
        self.config = config
        self.queue = PersistentJobQueue(config.queue_dir)
        cache = ResultCache(cache_dir=config.cache_dir)
        self.runner = ParallelRunner(
            jobs=config.workers, cache=cache, timeout=config.timeout
        )
        self.store = ReadThroughCache(
            cache,
            shards=config.store_shards,
            capacity_per_shard=config.store_capacity_per_shard,
        )
        self._start_execution = start_execution
        self._jobs: dict[str, JobRecord] = {}
        self._events: dict[str, list[dict[str, Any]]] = {}
        self._pending: _thread_queue.Queue = _thread_queue.Queue()
        self._latency: dict[str, deque] = {}
        self._campaign_telemetry: dict[str, dict[str, Any]] = {}
        self._campaign_tasks: set[asyncio.Task] = set()
        self._campaign_pool: Optional[ThreadPoolExecutor] = None
        self._execution_thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._changed: Optional[asyncio.Condition] = None
        self._stopping = False
        self._started_at = time.time()
        # -- telemetry counters (loop thread only) -----------------------
        self.submissions = 0
        self.dedup_hits = 0
        self.cache_served = 0
        self.jobs_done = 0
        self.jobs_failed = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound TCP port (after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._changed = asyncio.Condition()
        self._started_at = time.time()
        self._resume_backlog()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self._start_execution:
            self._execution_thread = threading.Thread(
                target=self._execution_loop,
                name="repro-service-execution",
                daemon=True,
            )
            self._execution_thread.start()

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._campaign_tasks):
            task.cancel()
        if self._campaign_pool is not None:
            self._campaign_pool.shutdown(wait=False, cancel_futures=True)
        if self._execution_thread is not None:
            self._pending.put(_STOP)
            self._execution_thread.join(timeout=10.0)
        async with self._changed:
            self._changed.notify_all()

    async def serve_forever(self) -> None:
        """``start()`` and block until cancelled (the CLI entry point)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    def _resume_backlog(self) -> None:
        """Reload persisted jobs; re-dispatch everything non-terminal.

        Three recovery mechanisms compose here:

        * the queue's crash-safe records bring every accepted job back;
        * each job's persisted event log is reloaded, so an SSE client
          reconnecting with ``?since=`` after the restart replays from
          its last committed event instead of a truncated stream;
        * a resumed *campaign* job finds its checkpoint beside the
          queue (the engine re-adopts it), so the restart re-runs only
          the uncheckpointed tail — the ``resumed`` event carries the
          committed trial count as proof.

        Dispatch is fault-isolated per record: a persisted payload that
        no longer validates (scheme removed, field renamed, spec format
        bump) marks that one record failed instead of raising out of
        :meth:`start` — the jobs-module contract that one bad file
        cannot brick the queue.
        """
        for record in self.queue.load():
            self._jobs[record.id] = record
            self._events[record.id] = self._load_event_log(record.id)
            if record.terminal:
                continue
            recovery.count("jobs_resumed")
            self._emit(record.id, "queued", resumed=True)
            if record.kind == "campaign":
                committed = self._checkpoint_trials(record.id)
                if committed:
                    recovery.count("campaigns_resumed")
                    recovery.warn(
                        "service",
                        f"resuming campaign {record.id} from checkpoint "
                        f"({committed} trials committed)",
                    )
                self._emit(record.id, "resumed", trials_committed=committed)
            try:
                self._dispatch(record)
            except Exception as exc:
                record.state = _jobs.FAILED
                record.finished = time.time()
                record.error = f"failed to resume: {exc}"[:4000]
                self.jobs_failed += 1
                self.queue.save(record)
                self._emit(record.id, "failed", error=record.error)
        self._prune_terminal()

    def _checkpoint_trials(self, job_id: str) -> int:
        """Committed trial records in a campaign job's checkpoint (0 if
        none/corrupt — the engine's own loader decides what to adopt;
        this is only the resume event's evidence)."""
        path = self.queue.root / f"{job_id}.ckpt.json"
        try:
            payload = json.loads(path.read_text())
            cells = payload.get("cells", {})
            return sum(len(v) for v in cells.values() if isinstance(v, list))
        except (OSError, ValueError, AttributeError, TypeError):
            return 0

    # -- submission and dispatch (loop thread) ----------------------------

    def _dispatch(self, record: JobRecord) -> None:
        """Hand a queued record to its execution lane."""
        if record.kind == "experiment":
            spec = ExperimentSpec.from_dict(record.payload["spec"])
            self._pending.put((record.id, spec))
        else:
            config = self._campaign_config(dict(record.payload["campaign"]))
            task = asyncio.ensure_future(self._campaign_job(record.id, config))
            self._campaign_tasks.add(task)
            task.add_done_callback(self._campaign_tasks.discard)

    def submit_experiment(self, payload: dict[str, Any]) -> tuple[JobRecord, str]:
        """Create (or dedup onto) the job for one spec submission.

        Returns the record plus how the submission was satisfied:
        ``"queued"`` (new work), ``"deduped"`` (identical spec already
        in flight — one simulation, N waiters) or ``"cached"`` (the
        read-through store already holds the result; the runner is
        never touched).
        """
        if not isinstance(payload, dict) or "spec" not in payload:
            raise HttpError(400, 'body must be {"spec": {...}}')
        try:
            spec = ExperimentSpec.from_dict(payload["spec"])
        except UnknownSchemeError as exc:
            raise HttpError(400, str(exc)) from None
        except (ValueError, TypeError, KeyError) as exc:
            raise HttpError(400, f"malformed spec: {exc}") from None
        self.submissions += 1
        job_id = spec.key()
        record = self._jobs.get(job_id)
        if record is not None and not record.terminal:
            self.dedup_hits += 1
            return record, "deduped"
        if record is not None and record.state == _jobs.DONE:
            if self.store.get(job_id) is not None:
                self.cache_served += 1
                return record, "cached"
            # The record says done but the result was evicted from
            # every tier: fall through and re-run the spec.
        # Fresh key (or a failed record being retried): a warm disk
        # cache can still answer without the runner.
        result = self.store.get(job_id)
        if result is not None:
            record = JobRecord(
                id=job_id,
                kind="experiment",
                payload={"spec": spec.to_dict()},
                state=_jobs.DONE,
                finished=time.time(),
            )
            self._jobs[job_id] = record
            self.queue.save(record)
            self._emit(job_id, "done", cached=True)
            self.cache_served += 1
            self._prune_terminal()
            return record, "cached"
        record = JobRecord(
            id=job_id, kind="experiment", payload={"spec": spec.to_dict()}
        )
        self._jobs[job_id] = record
        self.queue.save(record)
        self._emit(job_id, "queued")
        self._pending.put((job_id, spec))
        return record, "queued"

    def submit_campaign(self, payload: dict[str, Any]) -> tuple[JobRecord, str]:
        """Create (or dedup onto) a campaign job."""
        if not isinstance(payload, dict) or "campaign" not in payload:
            raise HttpError(400, 'body must be {"campaign": {...}}')
        config = self._campaign_config(dict(payload["campaign"]))
        self.submissions += 1
        job_id = f"campaign-{config.digest()}"
        record = self._jobs.get(job_id)
        if record is not None and not record.terminal:
            self.dedup_hits += 1
            return record, "deduped"
        if record is not None and record.state == _jobs.DONE:
            self.cache_served += 1
            return record, "cached"
        record = JobRecord(
            id=job_id, kind="campaign", payload={"campaign": payload["campaign"]}
        )
        self._jobs[job_id] = record
        self.queue.save(record)
        self._emit(job_id, "queued")
        task = asyncio.ensure_future(self._campaign_job(job_id, config))
        self._campaign_tasks.add(task)
        task.add_done_callback(self._campaign_tasks.discard)
        return record, "queued"

    def _campaign_config(self, payload: dict[str, Any]) -> CampaignConfig:
        if not isinstance(payload, dict):
            raise HttpError(400, "campaign config must be a JSON object")
        allowed = set(CampaignConfig.__dataclass_fields__)
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise HttpError(
                400, f"unknown campaign field(s): {', '.join(unknown)}"
            )
        if payload.get("machine") is not None:
            raise HttpError(400, "custom machines are not wire-serializable")
        try:
            return CampaignConfig(**payload)
        except UnknownSchemeError as exc:
            raise HttpError(400, str(exc)) from None
        except (ValueError, TypeError) as exc:
            raise HttpError(400, f"malformed campaign config: {exc}") from None

    # -- experiment execution (execution thread <-> loop) -----------------

    def _execution_loop(self) -> None:
        """The execution thread: one long-lived runner session."""
        stop = False
        with self.runner.session(workers=self.config.workers) as session:
            while not stop or session.outstanding():
                try:
                    item = self._pending.get(timeout=0.05)
                except _thread_queue.Empty:
                    item = None
                if item is _STOP:
                    stop = True
                elif item is not None:
                    job_id, spec = item
                    self._post(self._mark_running, job_id)
                    session.submit(spec, tag=job_id)
                while session.outstanding():
                    handle = session.next_completed(timeout=0.05)
                    if handle is None:
                        break
                    self._post(self._finish_experiment, handle.tag, handle)

    def _post(self, fn, *args) -> None:
        """Run *fn* on the event loop (execution thread -> loop lane)."""
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _mark_running(self, job_id: str) -> None:
        record = self._jobs.get(job_id)
        if record is None or record.terminal:
            return
        record.state = _jobs.RUNNING
        record.started = time.time()
        record.attempts += 1
        self.queue.save(record)
        self._emit(job_id, "started")

    def _finish_experiment(self, job_id: str, handle) -> None:
        record = self._jobs.get(job_id)
        if record is None:
            return
        record.finished = time.time()
        if handle.ok:
            record.state = _jobs.DONE
            record.error = None
            self.store.warm(job_id, handle.result)
            self.jobs_done += 1
            if record.started is not None:
                # Keyed by the kernel tier that ran, as campaigns do.
                tier = backend_mode(
                    ExperimentSpec.from_dict(record.payload["spec"])
                )
                self._latency.setdefault(
                    tier, deque(maxlen=self.config.max_latency_samples)
                ).append(record.finished - record.started)
            self._emit(job_id, "done", cached=handle.cached)
        else:
            record.state = _jobs.FAILED
            record.error = str(handle.result)[:4000]
            self.jobs_failed += 1
            self._emit(job_id, "failed", error=record.error)
        self.queue.save(record)
        self._prune_terminal()

    # -- campaign execution (loop task + worker thread) --------------------

    async def _campaign_job(self, job_id: str, config: CampaignConfig) -> None:
        if self._campaign_pool is None:
            self._campaign_pool = ThreadPoolExecutor(
                max_workers=self.config.max_campaigns,
                thread_name_prefix="repro-service-campaign",
            )
        record = self._jobs[job_id]
        record.state = _jobs.RUNNING
        record.started = time.time()
        record.attempts += 1
        self.queue.save(record)
        self._emit(job_id, "started")
        assert self._loop is not None
        try:
            report, telemetry = await self._loop.run_in_executor(
                self._campaign_pool, self._run_campaign, job_id, config
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            record.state = _jobs.FAILED
            record.error = f"{type(exc).__name__}: {exc}"[:4000]
            record.finished = time.time()
            self.jobs_failed += 1
            self.queue.save(record)
            self._emit(job_id, "failed", error=record.error)
            self._prune_terminal()
            return
        record.state = _jobs.DONE
        record.finished = time.time()
        record.report = report
        self._campaign_telemetry[job_id] = telemetry
        self.jobs_done += 1
        self.queue.save(record)
        self._emit(job_id, "done")
        self._prune_terminal()

    def _run_campaign(
        self, job_id: str, config: CampaignConfig
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Blocking campaign execution (campaign thread).

        Each campaign gets its own runner over the *same* disk cache —
        trials it simulates warm the service's read-through store for
        later single-spec submissions, and vice versa.  The checkpoint
        lives beside the job queue, so a killed server resumes the
        campaign instead of restarting it.
        """
        runner = ParallelRunner(
            jobs=self.config.workers,
            cache=ResultCache(cache_dir=self.config.cache_dir),
            timeout=self.config.timeout,
        )
        engine = create_engine(
            config,
            runner,
            checkpoint_path=self.queue.root / f"{job_id}.ckpt.json",
            checkpoint_every_trials=self.config.checkpoint_every_trials,
            checkpoint_interval=self.config.checkpoint_interval,
        )
        report = engine.run()
        telemetry = engine.telemetry()
        telemetry["runner"] = runner.stats.snapshot()
        return json.loads(report.to_json()), telemetry

    def _prune_terminal(self) -> None:
        """Bound retention of finished jobs (memory *and* queue files).

        The job table doubles as the dedup index, so terminal records
        stick around — but only the newest ``max_terminal_jobs`` of
        them.  Evicting an old done job is safe: its result still lives
        in the content-addressed cache, so a resubmission of the same
        spec is answered read-through without touching the runner.
        """
        cap = self.config.max_terminal_jobs
        terminal = [r for r in self._jobs.values() if r.terminal]
        if len(terminal) <= cap:
            return
        terminal.sort(key=lambda r: (r.finished or r.created, r.id))
        for record in terminal[: len(terminal) - cap]:
            del self._jobs[record.id]
            self._events.pop(record.id, None)
            self._campaign_telemetry.pop(record.id, None)
            self.queue.remove(record.id)
            for path in (
                self._events_path(record.id),
                self.queue.root / f"{record.id}.ckpt.json",
            ):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- progress events ---------------------------------------------------

    def _events_path(self, job_id: str) -> Path:
        safe = job_id.replace("/", "_").replace("\\", "_")
        return self.queue.root / f"{safe}.events.jsonl"

    def _load_event_log(self, job_id: str) -> list[dict[str, Any]]:
        """Reload a job's persisted progress events (restart survival).

        Tolerant line-by-line parse: a line torn by the kill that took
        the server down is dropped, everything before it survives, and
        ``seq`` keeps counting from what was kept.
        """
        events: list[dict[str, Any]] = []
        try:
            text = self._events_path(job_id).read_text()
        except OSError:
            return events
        for line in text.splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and entry.get("seq") == len(events):
                events.append(entry)
        return events

    def _emit(self, job_id: str, event: str, **data: Any) -> None:
        log = self._events.setdefault(job_id, [])
        entry = {
            "seq": len(log),
            "ts": time.time(),
            "job": job_id,
            "event": event,
            **data,
        }
        log.append(entry)
        try:
            with self._events_path(job_id).open("a") as fh:
                fh.write(json.dumps(entry) + "\n")
        except OSError:
            # The in-memory log keeps streaming; only restart replay
            # degrades.
            recovery.count("event_log_errors")
            recovery.warn("service", "event log append failed; continuing")
        if self._changed is not None:
            asyncio.ensure_future(self._notify())

    async def _notify(self) -> None:
        assert self._changed is not None
        async with self._changed:
            self._changed.notify_all()

    # -- telemetry ---------------------------------------------------------

    def telemetry(self) -> dict[str, Any]:
        states: dict[str, int] = {}
        for record in self._jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "uptime": time.time() - self._started_at,
            "queue_depth": states.get(_jobs.QUEUED, 0)
            + states.get(_jobs.RUNNING, 0),
            "jobs": states,
            "submissions": self.submissions,
            "dedup_hits": self.dedup_hits,
            "cache_served": self.cache_served,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "store": self.store.stats(),
            "runner": self.runner.stats.snapshot(),
            "backend_latency": {
                tier: latency_summary(list(vals))
                for tier, vals in sorted(self._latency.items())
            },
            "campaigns": self._campaign_telemetry,
            "recovery": recovery.snapshot(),
        }

    # -- HTTP --------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._route(request, writer)
            except HttpError as exc:
                writer.write(
                    json_response(exc.status, {"error": exc.message})
                )
            except (ConnectionError, asyncio.CancelledError):
                return
            except Exception as exc:  # never take the server down
                writer.write(
                    json_response(500, {"error": f"{type(exc).__name__}: {exc}"})
                )
            try:
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                return
        finally:
            # Close the transport fully so no socket outlives the
            # handler (a GC-time ResourceWarning elsewhere in the
            # process is not harmless noise — warning emission can run
            # arbitrary import machinery at a delicate moment).
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, req: Request, writer: asyncio.StreamWriter) -> None:
        parts = [p for p in req.path.split("/") if p]
        if req.path == "/healthz" and req.method == "GET":
            writer.write(json_response(200, {"ok": True}))
            return
        if parts[:1] != ["v1"]:
            raise HttpError(404, f"no such endpoint {req.path!r}")
        rest = parts[1:]
        if rest == ["schemes"] and req.method == "GET":
            writer.write(json_response(200, self._schemes_payload()))
        elif rest == ["telemetry"] and req.method == "GET":
            writer.write(json_response(200, self.telemetry()))
        elif rest == ["jobs"] and req.method == "POST":
            record, how = self.submit_experiment(req.json())
            writer.write(self._submission_response(record, how))
        elif rest == ["campaigns"] and req.method == "POST":
            record, how = self.submit_campaign(req.json())
            writer.write(self._submission_response(record, how))
        elif rest == ["jobs"] and req.method == "GET":
            writer.write(
                json_response(
                    200,
                    {
                        "jobs": [
                            r.summary()
                            for r in sorted(
                                self._jobs.values(),
                                key=lambda r: (r.created, r.id),
                            )
                        ]
                    },
                )
            )
        elif len(rest) == 2 and rest[0] == "jobs" and req.method == "GET":
            writer.write(self._job_response(rest[1]))
        elif (
            len(rest) == 3
            and rest[0] == "jobs"
            and rest[2] == "events"
            and req.method == "GET"
        ):
            try:
                since = int(req.query.get("since", 0))
            except ValueError:
                raise HttpError(400, "since must be an integer") from None
            await self._stream_events(writer, rest[1], since)
        elif len(rest) == 2 and rest[0] == "results" and req.method == "GET":
            result = self.store.get(rest[1])
            if result is None:
                raise HttpError(404, f"no cached result for key {rest[1]!r}")
            writer.write(json_response(200, {"result": result.to_dict()}))
        else:
            raise HttpError(404, f"no such endpoint {req.method} {req.path!r}")

    def _schemes_payload(self) -> dict[str, Any]:
        out = []
        for name in list_schemes():
            info = get_scheme(name)
            out.append(
                {
                    "name": info.name,
                    "kind": info.kind,
                    "description": info.description,
                    "protection": info.protection.name,
                    "replicates": info.replicates,
                    "accepts_icr_knobs": info.accepts_icr_knobs,
                    "aliases": list(info.aliases),
                }
            )
        return {"schemes": out}

    def _submission_response(self, record: JobRecord, how: str) -> bytes:
        payload: dict[str, Any] = {"job": record.summary(), "submission": how}
        if record.state == _jobs.DONE and record.kind == "experiment":
            result = self.store.get(record.id)
            if result is not None:
                payload["result"] = result.to_dict()
        status = 200 if record.terminal else 202
        return json_response(status, payload)

    def _job_response(self, job_id: str) -> bytes:
        record = self._jobs.get(job_id)
        if record is None:
            raise HttpError(404, f"no such job {job_id!r}")
        payload: dict[str, Any] = {"job": record.summary()}
        if record.state == _jobs.DONE:
            if record.kind == "experiment":
                result = self.store.get(record.id)
                payload["result"] = (
                    result.to_dict() if result is not None else None
                )
            else:
                payload["report"] = record.report
        return json_response(200, payload)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str, since: int
    ) -> None:
        if job_id not in self._jobs:
            raise HttpError(404, f"no such job {job_id!r}")
        writer.write(sse_preamble())
        await writer.drain()
        seq = max(0, since)
        assert self._changed is not None
        while True:
            log = self._events.get(job_id, ())
            while seq < len(log):
                entry = log[seq]
                seq += 1
                writer.write(
                    sse_event(entry["event"], entry, event_id=entry["seq"])
                )
            await writer.drain()
            record = self._jobs.get(job_id)
            done = record is None or record.terminal
            if (done and seq >= len(self._events.get(job_id, ()))) or (
                self._stopping
            ):
                return
            async with self._changed:
                try:
                    await asyncio.wait_for(self._changed.wait(), timeout=15.0)
                except asyncio.TimeoutError:
                    writer.write(b": keep-alive\n\n")  # SSE comment frame


class ServiceThread:
    """A :class:`SimulationService` on a background thread (tests, CLI).

    Owns a private event loop: ``start()`` returns once the server
    socket is bound (read :attr:`port`), ``stop()`` drains and joins.
    """

    def __init__(self, config: ServiceConfig, *, start_execution: bool = True):
        self.config = config
        self._start_execution = start_execution
        self.service: Optional[SimulationService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.service = SimulationService(
            self.config, start_execution=self._start_execution
        )
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.service.stop())
            # Drain whatever is still scheduled (SSE streams cut off
            # mid-wait, notify tasks) so closing the loop destroys no
            # pending task and leaks no transport.
            remaining = [
                t for t in asyncio.all_tasks(loop) if not t.done()
            ]
            for task in remaining:
                task.cancel()
            if remaining:
                loop.run_until_complete(
                    asyncio.gather(*remaining, return_exceptions=True)
                )
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(config: ServiceConfig) -> None:
    """Run a service in the foreground until interrupted (CLI entry)."""
    service = SimulationService(config)

    async def _run() -> None:
        await service.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
