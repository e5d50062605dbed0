"""Out-of-program span tracer for the traced benchmark run.

The tracer wraps public functions of each layer *where their callers
look them up* (a module attribute, or a method on its class), so the
program itself is untouched.  Every call into a wrapped target becomes
a span; a layer's self time is its span minus the spans of the wrapped
calls made inside it.  Nested calls into the same layer (for example
``ProtectedWord.read`` -> ``EccWord.read`` -> ``decode``) count once, as
the outermost call.

Spans stay in memory.  Aggregates (calls, total, self) are kept for
every layer; individual spans are kept only for the coarse layers that
run at most a few times per simulation, and are written at the end as
Chrome trace-event JSON (``traceEvents`` plus the aggregates under
``otherData``), which opens in Perfetto or ``chrome://tracing``.

Pool workers inherit the wrappers through ``fork``; the fork hook clears
the inherited records, and each worker rewrites its cumulative records
to ``spans-<pid>.json`` after every trial, so the parent can merge them
even though the pool never reports back.

A target that no longer exists is recorded as absent with the reason;
it never raises, so a moved internal cannot break a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

#: (layer, module, attribute path, keep individual spans).  A layer may
#: list several targets; they share one aggregate.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("harness.experiment.run", "repro.harness.runner", "_run_spec", True),
    ("harness.experiment.run", "repro.harness.experiment", "_run_spec", True),
    ("harness.runner.worker", "repro.harness.runner", "_worker", True),
    ("harness.experiment.serialize", "repro.harness.experiment",
     "SimulationResult.to_dict", False),
    ("harness.experiment.serialize", "repro.harness.experiment",
     "SimulationResult.from_dict", False),
    ("workloads.trace_for", "repro.harness.experiment", "trace_for", True),
    ("workloads.trace_for", "repro.workloads.generator", "trace_for", True),
    ("workloads.generate", "repro.workloads.generator",
     "WorkloadGenerator.generate", True),
    ("workloads.load_trace", "repro.workloads.trace_io", "load_trace", True),
    ("core.array_kernel.run_batched", "repro.core.array_kernel",
     "run_batched", True),
    ("core._native.phase2", "repro.core._native", "phase2_cycles", True),
    ("core.array_kernel.access", "repro.core.array_kernel",
     "ArrayDL1.access", False),
    ("cpu.pipeline", "repro.cpu.pipeline", "OutOfOrderPipeline.run", True),
    ("cache.hierarchy", "repro.cache.hierarchy", "MemoryHierarchy.load", False),
    ("cache.hierarchy", "repro.cache.hierarchy", "MemoryHierarchy.store", False),
    ("cache.hierarchy", "repro.cache.hierarchy", "MemoryHierarchy.fetch", False),
    ("core.icr_cache.access", "repro.core.icr_cache", "ICRCache.access", False),
    ("errors.injector.advance", "repro.errors.injector",
     "FaultInjector.advance", False),
    ("coding", "repro.coding.protection", "ProtectedWord.read", False),
    ("coding", "repro.coding.protection", "ProtectedWord.write", False),
    ("coding", "repro.coding.parity", "ParityWord.write", False),
    ("coding", "repro.coding.parity", "ParityWord.check", False),
    ("coding", "repro.coding.parity", "byte_parity_bits", False),
    ("coding", "repro.coding.parity", "check_parity", False),
    ("coding", "repro.coding.hamming", "EccWord.write", False),
    ("coding", "repro.coding.hamming", "EccWord.read", False),
    ("coding", "repro.coding.hamming", "encode", False),
    ("coding", "repro.coding.hamming", "decode", False),
    ("energy.accounting.energy_of", "repro.harness.experiment", "energy_of", True),
    ("energy.accounting.energy_of", "repro.energy.accounting", "energy_of", True),
    ("harness.cache.get", "repro.harness.cache", "ResultCache.get", True),
    ("harness.cache.put", "repro.harness.cache", "ResultCache.put", True),
    ("harness.runner.harvest", "repro.harness.runner",
     "RunnerSession.next_completed", False),
    ("harness.stats.bootstrap", "repro.harness.campaign", "bootstrap_ci", True),
    ("harness.stats.bootstrap", "repro.harness.stats", "bootstrap_ci", True),
)


class Tracer:
    """Per-process span recorder; install once, before any work runs."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.absent: dict[str, str] = {}
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        """Drop every record of this process (fork child, end of set-up)."""
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        #: per-op records from the run wrapper: (tier, dl1 counters, ...)
        self.ops: list[dict[str, Any]] = []
        #: (job key, end ns) of each trial a pool worker returned, and
        #: (job key, ns) of each handle the parent harvested: pool IPC
        self.worker_trials: list[tuple[Optional[str], int]] = []
        self.harvests: list[tuple[Optional[str], int]] = []
        self.cache_lookups = [0, 0]  # ResultCache.get: [hits, lookups]

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.stats, local.events
        except AttributeError:
            local.stack, local.stats, local.events = [], {}, []
            with self._lock:
                self._threads.append(
                    {"stats": local.stats, "events": local.events,
                     "tid": threading.get_ident()}
                )
            return local.stack, local.stats, local.events

    def _wrap(self, layer: str, fn: Callable, keep_events: bool,
              on_return: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats, events = self._thread_state()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                entry = stats.get(layer)
                if entry is None:
                    entry = stats[layer] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_events:
                    events.append((layer, start, duration))
            if on_return is not None:
                on_return(args, result, duration)
            return result

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear  # lru_cache callers
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "harness.experiment.run": self._after_run,
            "harness.runner.worker": self._after_worker,
            "harness.cache.get": self._after_cache_get,
            "harness.runner.harvest": self._after_harvest,
        }
        for layer, module_name, path, keep in TARGETS:
            self._patch(layer, module_name, path, keep, hooks.get(layer))

    def _patch(self, layer, module_name, path, keep, hook) -> None:
        where = f"{module_name}:{path}"
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = (
                owner.__dict__[name] if isinstance(owner, type)
                else getattr(owner, name)
            )
        except (ImportError, AttributeError, KeyError) as exc:
            self.absent.setdefault(layer, f"target {where} missing ({exc!r})")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(layer, raw.__func__, keep, hook))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(layer, raw.__func__, keep, hook))
        else:
            wrapped = self._wrap(layer, raw, keep, hook)
        setattr(owner, name, wrapped)

    # -- per-op hooks -----------------------------------------------------

    def _after_run(self, args, result, duration_ns: int) -> None:
        spec = args[0] if args else None
        tier = "unknown"
        try:
            from repro.core.array_kernel import backend_mode

            tier = backend_mode(spec)
        except Exception as exc:  # a moved internal must not end the run
            self.absent.setdefault("tier", f"backend_mode unavailable ({exc!r})")
        dl1 = getattr(result, "dl1", {}) or {}
        self.ops.append(
            {
                "tier": tier,
                "run_ns": duration_ns,
                "instructions": getattr(result, "instructions", 0),
                "cycles": getattr(result, "cycles", 0),
                "dl1_accesses": dl1.get("loads", 0) + dl1.get("stores", 0),
                "replication_attempts": dl1.get("replication_attempts", 0),
                "tag_probes": dl1.get("tag_probes", 0),
                "errors_injected": dl1.get("errors_injected", 0),
            }
        )

    def _after_worker(self, args, result, duration_ns: int) -> None:
        job = args[0][0] if args and args[0] else None
        try:
            key = job.key() if job is not None else None
        except Exception:
            key = None
        self.worker_trials.append((key, time.perf_counter_ns()))
        self.flush()

    def _after_harvest(self, args, handle, duration_ns: int) -> None:
        if handle is not None and not getattr(handle, "cached", False):
            self.harvests.append(
                (getattr(handle, "key", None), time.perf_counter_ns())
            )

    def _after_cache_get(self, args, result, duration_ns: int) -> None:
        self.cache_lookups[0] += result is not None
        self.cache_lookups[1] += 1

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        stats: dict[str, list[int]] = {}
        events: list = []
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            for layer, (calls, total, self_ns) in list(thread["stats"].items()):
                entry = stats.setdefault(layer, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_ns
            events.extend(
                (layer, start, dur, thread["tid"])
                for layer, start, dur in list(thread["events"])
            )
        return {
            "pid": os.getpid(),
            "stats": stats,
            "events": events,
            "ops": list(self.ops),
            "worker_trials": list(self.worker_trials),
            "harvests": list(self.harvests),
            "cache_lookups": list(self.cache_lookups),
            "absent": dict(self.absent),
        }

    def flush(self) -> Path:
        """Rewrite this process's cumulative records (atomic replace)."""
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)
        return path


def merge(out_dir: Path) -> dict[str, Any]:
    """Combine every process's flushed records under *out_dir*."""
    merged: dict[str, Any] = {
        "stats": {}, "events": [], "ops": [], "worker_trials": [],
        "harvests": [], "cache_lookups": [0, 0], "absent": {},
    }
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        for layer, values in data["stats"].items():
            entry = merged["stats"].setdefault(layer, [0, 0, 0])
            for i, value in enumerate(values):
                entry[i] += value
        merged["events"].extend(
            [data["pid"], *event] for event in data["events"]
        )
        merged["ops"].extend(data["ops"])
        merged["worker_trials"].extend(data["worker_trials"])
        merged["harvests"].extend(data["harvests"])
        for i, value in enumerate(data["cache_lookups"]):
            merged["cache_lookups"][i] += value
        for layer, reason in data["absent"].items():
            merged["absent"].setdefault(layer, reason)
    return merged


def write_chrome_trace(merged: dict[str, Any], path: Path,
                       summary: dict[str, Any]) -> None:
    """Chrome trace-event JSON: one complete ("X") event per kept span."""
    events = [
        {
            "name": layer,
            "ph": "X",
            "ts": start / 1000.0,
            "dur": dur / 1000.0,
            "pid": pid,
            "tid": tid,
        }
        for pid, layer, start, dur, tid in merged["events"]
    ]
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": summary,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
