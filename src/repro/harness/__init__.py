"""Experiment harness: runners, per-figure reproduction, sweeps, reports."""

from repro.harness.cache import (
    ResultCache,
    UncacheableJobError,
    code_version,
    result_from_dict,
    result_to_dict,
)
from repro.harness.campaign import (
    CampaignConfig,
    CampaignEngine,
    CampaignReport,
    create_engine,
    run_campaign,
)
from repro.harness.experiment import (
    SimulationResult,
    normalized_cycles,
    run_experiment,
)
from repro.harness.figures import (
    AGGRESSIVE,
    ALL_FIGURES,
    RELAXED,
    FigureResult,
    execution_context,
    run_figure,
)
from repro.harness.report import format_table, percent, relative
from repro.harness.runner import (
    ParallelRunner,
    RunnerError,
    RunnerSession,
    RunnerStats,
    TrialHandle,
)
from repro.harness.spec import (
    DEFAULT_INSTRUCTIONS,
    ExperimentSpec,
    MachineConfig,
)
from repro.harness.stats import BootstrapCI, bootstrap_ci
from repro.harness.sweeps import (
    SweepResult,
    decay_window_sweep,
    replication_factor_sweep,
    scheme_sweep,
    sweep,
)

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "ExperimentSpec",
    "MachineConfig",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignReport",
    "create_engine",
    "run_campaign",
    "BootstrapCI",
    "bootstrap_ci",
    "SimulationResult",
    "normalized_cycles",
    "run_experiment",
    "ALL_FIGURES",
    "AGGRESSIVE",
    "RELAXED",
    "FigureResult",
    "execution_context",
    "run_figure",
    "format_table",
    "percent",
    "relative",
    "SweepResult",
    "decay_window_sweep",
    "replication_factor_sweep",
    "scheme_sweep",
    "sweep",
    "ParallelRunner",
    "RunnerError",
    "RunnerSession",
    "RunnerStats",
    "TrialHandle",
    "ResultCache",
    "UncacheableJobError",
    "code_version",
    "result_from_dict",
    "result_to_dict",
]
