"""Generic parameter sweeps over the experiment runner.

The figure functions in :mod:`repro.harness.figures` cover the paper's
plots; this module provides the free-form sweep utilities used by the
examples and by exploratory work (new decay windows, distance lists,
scheme subsets, machine variations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.registry import normalize_scheme_name
from repro.harness.experiment import SimulationResult
from repro.harness.report import format_table
from repro.harness.runner import ParallelRunner
from repro.harness.spec import DEFAULT_INSTRUCTIONS, ExperimentSpec, MachineConfig


@dataclass
class SweepResult:
    """Results of a sweep, indexed by (benchmark, point label)."""

    parameter: str
    results: dict[tuple[str, str], SimulationResult] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[tuple[tuple[str, str], SimulationResult]]:
        """Iterate ``((benchmark, label), result)`` pairs in insertion order."""
        return iter(self.results.items())

    def metric(self, name: str) -> dict[tuple[str, str], float]:
        """Extract one metric (attribute name) across all points."""
        return {key: getattr(r, name) for key, r in self.results.items()}

    def table(self, metrics: Sequence[str]) -> str:
        columns = ["benchmark", self.parameter] + list(metrics)
        rows = []
        for (bench, label), r in sorted(self.results.items()):
            rows.append([bench, label] + [getattr(r, m) for m in metrics])
        return format_table(columns, rows)


def _resolve_runner(
    runner: Optional[ParallelRunner], jobs: Optional[int]
) -> ParallelRunner:
    """The engine a sweep runs on: the caller's, or a plain serial one."""
    if runner is not None:
        return runner
    return ParallelRunner(jobs=jobs or 1)


def sweep(
    parameter: str,
    points: Iterable[tuple[str, dict]],
    benchmarks: Sequence[str],
    scheme: str = "ICR-P-PS(S)",
    *,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    machine: Optional[MachineConfig] = None,
    base_kwargs: Optional[dict] = None,
    jobs: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
) -> SweepResult:
    """Run *scheme* on each benchmark at every sweep point.

    *points* is an iterable of ``(label, kwargs)`` pairs; each ``kwargs``
    dict is merged over *base_kwargs* and forwarded to
    :func:`~repro.harness.experiment.run_experiment`.  The whole grid is
    executed through a :class:`~repro.harness.runner.ParallelRunner` —
    pass *jobs* (worker count) or a preconfigured *runner* (e.g. with a
    result cache attached); the default is serial, uncached, in-process.
    """
    engine = _resolve_runner(runner, jobs)
    points = list(points)
    out = SweepResult(parameter=parameter)
    grid: list[tuple[tuple[str, str], ExperimentSpec]] = []
    for bench in benchmarks:
        for label, kwargs in points:
            merged: dict[str, Any] = dict(base_kwargs or {})
            merged.update(kwargs)
            spec = ExperimentSpec.from_kwargs(
                bench,
                scheme,
                n_instructions=n_instructions,
                machine=machine,
                **merged,
            )
            grid.append(((bench, str(label)), spec))
    for (key, _), result in zip(grid, engine.run([spec for _, spec in grid])):
        out.results[key] = result
    return out


def decay_window_sweep(
    benchmarks: Sequence[str],
    windows: Sequence[int] = (0, 250, 1000, 4000, 10000),
    scheme: str = "ICR-P-PS(S)",
    **kwargs,
) -> SweepResult:
    """The Section 5.3 sweep generalized to any benchmark set."""
    points = [(str(w), {"decay_window": w}) for w in windows]
    return sweep("decay_window", points, benchmarks, scheme, **kwargs)


def replication_factor_sweep(
    benchmarks: Sequence[str],
    factors: Sequence[int] = (1, 2, 3),
    scheme: str = "ICR-P-PS(S)",
    *,
    virtual_nodes: int = 8,
    ring_attempts: int = 4,
    **kwargs,
) -> SweepResult:
    """Hash-ring placement: sweep the replication factor N.

    Runs *scheme* with ``placement="ring"`` at each factor (the
    ring-placement analogue of the paper's distance ablation); pair it
    with the plain scheme run to compare against the Distance-N/2 walk.
    """
    points = [
        (
            str(n),
            {
                "placement": "ring",
                "replication_factor": n,
                "virtual_nodes": virtual_nodes,
                "ring_attempts": ring_attempts,
            },
        )
        for n in factors
    ]
    return sweep("replication_factor", points, benchmarks, scheme, **kwargs)


def scheme_sweep(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    *,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    scheme_kwargs: Optional[Callable[[str], dict]] = None,
    jobs: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
    **kwargs,
) -> SweepResult:
    """Run a set of schemes; sweep point label = scheme name."""
    engine = _resolve_runner(runner, jobs)
    out = SweepResult(parameter="scheme")
    grid: list[tuple[tuple[str, str], ExperimentSpec]] = []
    # Canonicalize up front: the per-scheme kwargs callback and the
    # result keys both see registry spellings, whatever the caller wrote.
    schemes = [normalize_scheme_name(s) for s in schemes]
    for bench in benchmarks:
        for scheme in schemes:
            extra = scheme_kwargs(scheme) if scheme_kwargs else {}
            spec = ExperimentSpec.from_kwargs(
                bench,
                scheme,
                n_instructions=n_instructions,
                **extra,
                **kwargs,
            )
            grid.append(((bench, scheme), spec))
    for (key, _), result in zip(grid, engine.run([spec for _, spec in grid])):
        out.results[key] = result
    return out
