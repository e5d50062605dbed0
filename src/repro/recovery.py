"""Process-wide recovery telemetry: counters plus rate-limited warnings.

Every layer of the execution stack degrades gracefully instead of
failing — corrupt cache entries are quarantined and recomputed, broken
worker pools are rebuilt, torn checkpoints are retired, dead lease
holders are taken over, full disks stop persistence but never stop the
run.  Each of those recoveries is deliberately quiet at the call site
(the caller sees a miss, a retry, a fresh start — never an exception),
which makes a central ledger essential: operators must be able to see
that the system *is* degrading, and how often.

This module is that ledger.  It is import-light (stdlib only), safe to
call from any thread, and deliberately process-global: the CLI prints
its snapshot on the stderr metrics line, the service exposes it under
``/v1/telemetry`` as the ``recovery`` section, and the chaos suite
asserts its counters moved when faults were injected.

Counters (all monotonic within a process):

``cache_quarantined``
    Corrupt/truncated result-cache entries renamed to ``*.corrupt`` and
    recomputed.
``cache_write_errors``
    Result-cache persists that failed (read-only or full disk) and were
    dropped without failing the run.
``checkpoint_quarantined``
    Campaign checkpoints that failed to load and were renamed to
    ``*.corrupt`` so the campaign restarts its cells cleanly.
``checkpoint_write_errors``
    Campaign checkpoint writes that failed and were skipped (the
    campaign continues, minus durability).
``publish_write_errors``
    Share-dir record publishes that failed and were retried on a later
    cooperation tick (peers only lose a head start).
``breaker_trips``
    Campaign cells failed by the per-cell circuit breaker after
    repeated exhausted trials.
``trial_log_errors``
    Trial-log appends that failed (observability only; the trial's
    record is unaffected).
``pool_rebuilds``
    Worker pools recreated after the previous pool broke (a worker
    died hard enough to poison the executor).
``native_fallbacks``
    Compiled phase-2 kernels that failed to build/load, silently
    replaced by the bit-identical pure-Python loop.
``lease_takeovers``
    Stale file leases broken and re-acquired after their holder died.
``queue_save_errors``
    Service job-queue persists that failed and degraded to
    memory-only records.
``event_log_errors``
    Service progress-event appends that failed (the stream continues
    from memory).
``jobs_resumed``
    Non-terminal service jobs re-dispatched from the persistent queue
    at boot.
``campaigns_resumed``
    Campaign engines that re-attached to an existing checkpoint instead
    of starting from scratch.
``client_retries``
    :class:`~repro.service.client.ServiceClient` requests retried after
    a retryable failure.
``sse_reconnects``
    Client SSE streams re-established mid-job via ``?since=``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional, TextIO

_lock = threading.Lock()
_counters: dict[str, int] = {}
_last_warn: dict[str, float] = {}

#: Minimum seconds between repeated warnings for the same component —
#: a cache with a thousand corrupt entries produces one line, not a
#: thousand.
WARN_INTERVAL = 5.0


def count(name: str, n: int = 1) -> int:
    """Increment counter *name* by *n*; returns the new value."""
    with _lock:
        value = _counters.get(name, 0) + n
        _counters[name] = value
        return value


def counter(name: str) -> int:
    """The current value of counter *name* (0 if never incremented)."""
    with _lock:
        return _counters.get(name, 0)


def snapshot() -> dict[str, int]:
    """A copy of every counter (the telemetry payload)."""
    with _lock:
        return dict(sorted(_counters.items()))


def reset() -> None:
    """Zero every counter (tests only)."""
    with _lock:
        _counters.clear()
        _last_warn.clear()


def warn(component: str, message: str, *, stream: Optional[TextIO] = None) -> bool:
    """Emit one ``[recover]`` line to stderr, rate-limited per component.

    Returns True when the line was actually printed (the chaos suite
    asserts on the counters, never on the lines, so suppression is
    always safe).
    """
    now = time.monotonic()
    with _lock:
        last = _last_warn.get(component, -WARN_INTERVAL)
        if now - last < WARN_INTERVAL:
            return False
        _last_warn[component] = now
    out = stream if stream is not None else sys.stderr
    try:
        print(f"[recover] {component}: {message}", file=out)
    except Exception:
        return False  # a broken stderr must never break recovery itself
    return True


def summary() -> str:
    """One compact line of the nonzero counters (CLI stderr metrics)."""
    snap = {k: v for k, v in snapshot().items() if v}
    if not snap:
        return ""
    parts = [f"{v} {k.replace('_', ' ')}" for k, v in snap.items()]
    return "[recover] " + " · ".join(parts)
