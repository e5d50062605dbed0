"""Shared fixtures for the figure-reproduction benchmark suite.

Every ``bench_fig*.py`` module regenerates one figure of the paper via
:mod:`repro.harness.figures`, records the table under
``benchmarks/results/`` and asserts the figure's *shape* (who wins, in
which direction).  Timing is collected with pytest-benchmark in a single
round — the interesting output is the table, not the wall-clock.

The suite runs on the parallel execution engine
(:mod:`repro.harness.runner`), configured through the environment:

``REPRO_BENCH_JOBS``
    Worker processes (default 1 = serial, in-process).  With more than
    one, each figure's job grid runs as one batch through the worker
    pool before the benchmarked call replays the figure
    (:func:`repro.harness.figures.prefetched`, the same path as
    ``repro figure --jobs N``), so the recorded tables are
    bit-identical either way.
``REPRO_BENCH_CACHE``
    Set to ``1`` to persist results in the content-addressed cache
    (``REPRO_CACHE_DIR`` or ``~/.cache/repro``); re-running the suite
    after an interrupted run then only simulates the missing figures.
    Off by default so benchmark timings stay honest.
``REPRO_PERF_SMOKE``
    Set to ``1`` by the CI perf-smoke job: forces serial in-process
    execution with no result cache, overriding the two knobs above, so
    the recorded throughput numbers measure the simulator and nothing
    else.
"""

import os
import pathlib

import pytest

from repro.harness import figures as figures_mod
from repro.harness.cache import ResultCache
from repro.harness.figures import ALL_FIGURES
from repro.harness.runner import ParallelRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Trace length used by the figure benchmarks.  Large enough for stable
#: metrics (see tests/test_integration_convergence.py), small enough that
#: the whole suite finishes in minutes.
BENCH_INSTRUCTIONS = 60_000


def _engine_from_env():
    """The session's ParallelRunner, or None for plain serial execution."""
    if os.environ.get("REPRO_PERF_SMOKE", "") == "1":
        # Perf-smoke runs time the simulator itself: serial, uncached.
        return None
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    cache_on = os.environ.get("REPRO_BENCH_CACHE", "") == "1"
    if jobs <= 1 and not cache_on:
        return None
    cache = ResultCache() if cache_on else None
    return ParallelRunner(jobs=jobs, cache=cache)


@pytest.fixture(scope="session")
def engine():
    """Session-wide execution engine (None = direct serial calls)."""
    runner = _engine_from_env()
    yield runner
    if runner is not None and runner.stats.jobs:
        print("\n" + runner.stats.summary())


def _figure_id_for(module_name: str):
    """Map ``bench_fig05_vertical_horizontal`` -> ``fig05`` (or None)."""
    stem = module_name.removeprefix("bench_")
    candidates = [fid for fid in ALL_FIGURES if stem.startswith(fid)]
    return max(candidates, key=len) if candidates else None


@pytest.fixture(autouse=True)
def _parallel_prefetch(request, engine):
    """Run this module's figure under the suite's engine.

    With ``REPRO_BENCH_JOBS > 1`` the figure's job grid is fanned out
    over the worker pool *before* the benchmarked call, which then
    replays from the in-memory memo; a serial engine runs the figure
    directly.  Either way every job is counted once.
    """
    if engine is None:
        yield
        return
    figure_id = _figure_id_for(request.node.module.__name__)
    if figure_id is not None:
        engine = figures_mod.prefetched(figure_id, engine, n=BENCH_INSTRUCTIONS)
    with figures_mod.execution_context(engine):
        yield


@pytest.fixture
def record():
    """Persist a FigureResult table and echo it to the terminal."""

    def _record(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        stem = result.figure_id.replace(" ", "").lower()
        table = result.to_table()
        (RESULTS_DIR / f"{stem}.txt").write_text(table + "\n")
        (RESULTS_DIR / f"{stem}.json").write_text(result.to_json() + "\n")
        print("\n" + table)
        return result

    return _record


@pytest.fixture
def n_instructions():
    return BENCH_INSTRUCTIONS


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
