"""Optional native (C, via cffi) implementation of the phase-2 scoreboard.

The batched engine's phase 2 (:func:`repro.core.array_kernel.run_batched`)
reduces to pure integer arithmetic over flat arrays, which makes it an
ideal candidate for a tiny C kernel: the function below is a
line-for-line transcription of the Python twin
(:func:`repro.core.array_kernel._scoreboard` — same state variables,
same comparisons, same first-index-on-tie unit selection), so the two
are bit-identical by construction and the differential harness
exercises whichever one is active.

The scoreboard keeps its state in a struct so it can stop and resume:
each instruction *issues* (dispatch, fetch, operand readiness, unit
choice — everything but its own latency) and then *completes* with
``exec_lat[i]``.  :func:`scoreboard` returns a ``step`` callable that
runs up to a memory op and returns its issue cycle, which is the
``now`` timing-coupled specs (decay windows > 0, write-through) feed
to phase 1; :func:`phase2_cycles` runs the whole trace in one call
and returns the final cycle count.

The kernel is compiled once per machine with the system C compiler and
cached as a shared library under the repro cache directory
(``$REPRO_CACHE_DIR/native`` or ``~/.cache/repro/native``, keyed by a
hash of the C source).  Everything degrades gracefully: no cffi, no C
compiler, a read-only cache directory, or ``REPRO_NATIVE=0`` all fall
back to the pure-Python loop with identical results.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

#: The scoreboard's inputs and its resumable state, shared by the C
#: source and the cffi declarations.
_STRUCT = """
typedef struct {
    long long n;
    const unsigned char *ops;
    const unsigned char *dests;
    const unsigned char *src1;
    const unsigned char *src2;
    const unsigned char *misp;
    const long long *fetch_lat;
    const long long *exec_lat;
    long long width;
    long long penalty;
    long long ruu_size;
    long long lsq_size;
    const long long *pool_off;
    const long long *pool_cnt;
    const long long *pool_interval;
    long long *free_times;
    long long *reg_ready;
    long long *ruu_ring;
    long long *lsq_ring;
    long long i;
    long long issued;
    long long start;
    long long dispatch_cycle;
    long long dispatched_in_cycle;
    long long redirect_floor;
    long long retire_cycle;
    long long retired_in_cycle;
    long long ruu_at;
    long long lsq_at;
} icr_scoreboard;
"""

_C_SOURCE = _STRUCT + r"""
/* Run the scoreboard from instruction s->i.  Returns the issue cycle of
   instruction `stop`, leaving it issued but not completed (the next call
   completes it once exec_lat[stop] is written), or the final retire
   cycle when the trace ends first (stop >= n). */
long long icr_phase2(icr_scoreboard *s, long long stop)
{
    const unsigned char *ops = s->ops, *dests = s->dests;
    const unsigned char *src1 = s->src1, *src2 = s->src2, *misp = s->misp;
    const long long *fetch_lat = s->fetch_lat, *exec_lat = s->exec_lat;
    const long long *pool_off = s->pool_off, *pool_cnt = s->pool_cnt;
    const long long *pool_interval = s->pool_interval;
    long long *free_times = s->free_times, *reg_ready = s->reg_ready;
    long long *ruu_ring = s->ruu_ring, *lsq_ring = s->lsq_ring;
    long long n = s->n, width = s->width, penalty = s->penalty;
    long long ruu_size = s->ruu_size, lsq_size = s->lsq_size;
    long long i = s->i, issued = s->issued, start = s->start;
    long long dispatch_cycle = s->dispatch_cycle;
    long long dispatched_in_cycle = s->dispatched_in_cycle;
    long long redirect_floor = s->redirect_floor;
    long long retire_cycle = s->retire_cycle;
    long long retired_in_cycle = s->retired_in_cycle;
    long long ruu_at = s->ruu_at, lsq_at = s->lsq_at;
    long long v;
    for (; i < n; i++) {
        int op = ops[i];
        int is_mem = (op == 4) || (op == 5); /* OP_LOAD / OP_STORE */
        if (!issued) {
            /* issue: dispatch constraints */
            long long earliest = redirect_floor;
            v = ruu_ring[ruu_at];
            if (v > earliest) earliest = v;
            if (is_mem) {
                v = lsq_ring[lsq_at];
                if (v > earliest) earliest = v;
            }
            if (earliest > dispatch_cycle) {
                dispatch_cycle = earliest;
                dispatched_in_cycle = 1;
            } else {
                dispatched_in_cycle += 1;
                if (dispatched_in_cycle > width) {
                    dispatch_cycle += 1;
                    dispatched_in_cycle = 1;
                }
            }
            /* instruction fetch (precomputed latency) */
            v = fetch_lat[i];
            if (v > 1) {
                dispatch_cycle += v - 1;
                dispatched_in_cycle = 1;
            }
            /* operand readiness and functional-unit issue */
            long long ready = dispatch_cycle;
            v = reg_ready[src1[i]];
            if (v > ready) ready = v;
            v = reg_ready[src2[i]];
            if (v > ready) ready = v;
            long long off = pool_off[op];
            long long end = off + pool_cnt[op];
            long long best = off;
            long long best_time = free_times[off];
            long long k;
            for (k = off + 1; k < end; k++) {
                if (free_times[k] < best_time) {  /* first index on ties */
                    best_time = free_times[k];
                    best = k;
                }
            }
            start = ready >= best_time ? ready : best_time;
            free_times[best] = start + pool_interval[op];
            if (i == stop) {
                issued = 1;
                break;
            }
        }
        issued = 0;
        /* complete: execution latency, written by now for every op */
        long long complete = start + exec_lat[i];
        if (misp[i]) {
            v = complete + penalty;
            if (v > redirect_floor) redirect_floor = v;
        }
        if (dests[i]) reg_ready[dests[i]] = complete;
        /* in-order retirement, up to `width` per cycle */
        if (complete > retire_cycle) {
            retire_cycle = complete;
            retired_in_cycle = 1;
        } else {
            retired_in_cycle += 1;
            if (retired_in_cycle > width) {
                retire_cycle += 1;
                retired_in_cycle = 1;
            }
        }
        ruu_ring[ruu_at] = retire_cycle;
        ruu_at += 1;
        if (ruu_at == ruu_size) ruu_at = 0;
        if (is_mem) {
            lsq_ring[lsq_at] = retire_cycle;
            lsq_at += 1;
            if (lsq_at == lsq_size) lsq_at = 0;
        }
    }
    s->i = i;
    s->issued = issued;
    s->start = start;
    s->dispatch_cycle = dispatch_cycle;
    s->dispatched_in_cycle = dispatched_in_cycle;
    s->redirect_floor = redirect_floor;
    s->retire_cycle = retire_cycle;
    s->retired_in_cycle = retired_in_cycle;
    s->ruu_at = ruu_at;
    s->lsq_at = lsq_at;
    return issued ? start : retire_cycle;
}
"""

_CDEF = _STRUCT + """
long long icr_phase2(icr_scoreboard *s, long long stop);
"""

#: tri-state: unset / (ffi, lib) / None (permanently unavailable)
_STATE: list = []


def _cache_dir() -> Path:
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return Path(base).expanduser() / "native"
    return Path.home() / ".cache" / "repro" / "native"


def _build(directory: Path) -> Path:
    """Compile the kernel into *directory*; returns the .so path."""
    digest = hashlib.blake2b(_C_SOURCE.encode(), digest_size=8).hexdigest()
    so_path = directory / f"icr_phase2-{digest}.so"
    if so_path.exists():
        return so_path
    directory.mkdir(parents=True, exist_ok=True)
    c_path = directory / f"icr_phase2-{digest}.c"
    c_path.write_text(_C_SOURCE)
    with tempfile.NamedTemporaryFile(
        suffix=".so", dir=directory, delete=False
    ) as tmp:
        tmp_path = Path(tmp.name)
    try:
        subprocess.run(
            ["cc", "-O2", "-fPIC", "-shared", str(c_path), "-o", str(tmp_path)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_path, so_path)  # atomic: concurrent builders race safely
    finally:
        if tmp_path.exists():
            try:
                tmp_path.unlink()
            except OSError:
                pass
    return so_path


def _load():
    """The (ffi, lib) pair, or None when native support is unavailable."""
    if _STATE:
        return _STATE[0]
    result = None
    if os.environ.get("REPRO_NATIVE", "") != "0":
        try:
            import cffi

            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            lib = ffi.dlopen(str(_build(_cache_dir())))
            result = (ffi, lib)
        except Exception:
            # no cffi / no compiler / read-only cache: the pure-Python
            # loop is bit-identical, so this only costs speed.
            from repro import recovery

            recovery.count("native_fallbacks")
            recovery.warn(
                "native",
                "compiled phase-2 kernel unavailable; "
                "using the pure-Python loop",
            )
            result = None
    _STATE.append(result)
    return result


def available() -> bool:
    """Whether the compiled phase-2 kernel can be used on this machine."""
    return _load() is not None


def scoreboard(
    n: int,
    ops_b: bytes,
    dests_b: bytes,
    src1_b: bytes,
    src2_b: bytes,
    fetch_lat,
    exec_lat,
    misp: bytes,
    width: int,
    penalty: int,
    ruu_size: int,
    lsq_size: int,
    pool_off,
    pool_cnt,
    pool_interval,
    n_units: int,
) -> Optional[Callable[[int], int]]:
    """A resumable compiled scoreboard; ``None`` when native is unavailable.

    Returns ``step``: ``step(i)`` runs the scoreboard up to instruction
    *i* and returns *i*'s issue cycle, leaving *i* issued but not
    completed; ``step(n)`` runs to the end and returns the final cycle
    count.  ``fetch_lat``/``exec_lat`` are writable int64 buffers
    (``array('q')``) read in place, so the caller may write latencies
    between steps: ``step(i)`` needs ``fetch_lat[:i + 1]`` and
    ``exec_lat[:i]``.  ``pool_off``/``pool_cnt``/``pool_interval`` are
    8-entry int64 numpy arrays mapping each op class to its slice of the
    shared unit pool.
    """
    loaded = _load()
    if loaded is None:
        return None
    ffi, lib = loaded
    s = ffi.new("icr_scoreboard *")
    owned = (
        ffi.from_buffer("unsigned char[]", ops_b),
        ffi.from_buffer("unsigned char[]", dests_b),
        ffi.from_buffer("unsigned char[]", src1_b),
        ffi.from_buffer("unsigned char[]", src2_b),
        ffi.from_buffer("unsigned char[]", misp),
        ffi.from_buffer("long long[]", fetch_lat),
        ffi.from_buffer("long long[]", exec_lat),
        ffi.from_buffer("long long[]", pool_off),
        ffi.from_buffer("long long[]", pool_cnt),
        ffi.from_buffer("long long[]", pool_interval),
        ffi.new("long long[]", n_units),
        ffi.new("long long[]", 64),
        ffi.new("long long[]", ruu_size),
        ffi.new("long long[]", lsq_size),
    )
    if any(len(column) != n for column in owned[:7]) or any(
        len(pool) != 8 for pool in owned[7:10]
    ):
        raise ValueError("scoreboard columns need n entries, pool arrays 8")
    (
        s.ops, s.dests, s.src1, s.src2, s.misp, s.fetch_lat, s.exec_lat,
        s.pool_off, s.pool_cnt, s.pool_interval, s.free_times, s.reg_ready,
        s.ruu_ring, s.lsq_ring,
    ) = owned
    s.n = n
    s.width = width
    s.penalty = penalty
    s.ruu_size = ruu_size
    s.lsq_size = lsq_size
    step = functools.partial(lib.icr_phase2, s)
    step.buffers = owned  # the struct only points at them: keep them alive
    return step


def phase2_cycles(n: int, *args) -> Optional[int]:
    """Run the compiled scoreboard to the end in one call.

    Takes :func:`scoreboard`'s arguments; returns the final cycle count,
    or ``None`` when native is unavailable.
    """
    step = scoreboard(n, *args)
    return None if step is None else step(n)
