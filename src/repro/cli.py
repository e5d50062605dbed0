"""Command-line interface: run experiments and figures from the shell.

Installed as the ``repro-icr`` console script::

    repro-icr list
    repro-icr run gzip "ICR-P-PS(S)" --instructions 100000
    repro-icr run vortex BaseP --error-rate 1e-2
    repro-icr compare mcf --relaxed
    repro-icr figure fig09 --instructions 40000 --jobs 4
    repro-icr campaign --benchmark mcf --schemes "ICR-P-PS(S),BaseP" --trials 50

``campaign`` runs a Monte Carlo fault-injection campaign: N seeded
trials per (benchmark, scheme, error-rate) cell, reported as means with
bootstrap confidence intervals (see :mod:`repro.harness.campaign`).  It
checkpoints as trials commit and resumes automatically when re-run
with the same configuration.

``run``, ``compare`` and ``figure`` all execute through the parallel
runner (:mod:`repro.harness.runner`): ``--jobs N`` fans the experiment
grid over N worker processes (``--jobs 1`` stays fully in-process, so
pdb/coverage keep working), and results are persisted in the
content-addressed cache under ``~/.cache/repro`` (``--cache-dir`` to
relocate, ``--no-cache`` to bypass).  A one-line metrics summary — jobs,
cache hits, sims/sec — is printed to stderr so stdout stays a clean,
serial-identical table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import recovery
from repro.core.config import VictimPolicy
from repro.core.registry import (
    normalize_scheme_name,
    registered_schemes,
    scheme_info,
)
from repro.core.schemes import ALL_SCHEMES
from repro.errors.models import MODELS
from repro.harness.cache import ResultCache
from repro.harness.figures import AGGRESSIVE, ALL_FIGURES, RELAXED, run_figure
from repro.harness.report import format_table, percent
from repro.harness.runner import ParallelRunner
from repro.harness.spec import ExperimentSpec
from repro.workloads.spec2000 import BENCHMARKS


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: all cores; 1 = in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("object", "array"),
        default="array",
        help="simulation kernel: 'array' (default: the struct-of-arrays "
        "kernels wherever they support the run, the object kernel "
        "elsewhere) or 'object' (the CacheBlock reference implementation); "
        "both give bit-identical results",
    )


def _make_runner(args: argparse.Namespace) -> ParallelRunner:
    cache = None
    if not args.no_cache:
        cache = ResultCache(cache_dir=args.cache_dir)
    return ParallelRunner(jobs=args.jobs, cache=cache, progress=sys.stderr.isatty())


def _report_metrics(runner: ParallelRunner) -> None:
    print(runner.stats.summary(), file=sys.stderr)
    recovered = recovery.summary()
    if recovered:
        print(recovered, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-icr",
        description="ICR (DSN 2003) reproduction: simulate dL1 schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, schemes and figures")

    run = sub.add_parser("run", help="run one (benchmark, scheme) experiment")
    run.add_argument("benchmark", choices=BENCHMARKS)
    run.add_argument("scheme")
    run.add_argument("--instructions", type=int, default=100_000)
    run.add_argument("--decay-window", type=int, default=None)
    run.add_argument(
        "--victim",
        choices=[p.value for p in VictimPolicy],
        default=None,
    )
    run.add_argument("--leave-replicas", action="store_true")
    run.add_argument(
        "--placement",
        choices=("distance", "power2", "ring"),
        default=None,
        help="replica placement policy (default: the paper's distance walk)",
    )
    run.add_argument(
        "--replication-factor",
        type=int,
        default=None,
        metavar="N",
        help="ring placement: replicas per line",
    )
    run.add_argument(
        "--virtual-nodes",
        type=int,
        default=None,
        help="ring placement: ring points per set",
    )
    run.add_argument(
        "--ring-attempts",
        type=int,
        default=None,
        help="placement fallback walk length (ring/power2)",
    )
    run.add_argument(
        "--ring-hash",
        choices=("mix", "identity"),
        default=None,
        help="ring position hash (identity = distance-equivalent layout)",
    )
    run.add_argument("--error-rate", type=float, default=0.0)
    run.add_argument(
        "--error-model",
        choices=sorted(MODELS),
        default="random",
    )
    run.add_argument("--vulnerability", action="store_true")
    _add_backend_flag(run)
    run.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation with cProfile; top-20 cumulative "
        "entries go to stderr (results are unaffected)",
    )
    _add_runner_flags(run)

    compare = sub.add_parser("compare", help="run all ten schemes on a benchmark")
    compare.add_argument("benchmark", choices=BENCHMARKS)
    compare.add_argument("--instructions", type=int, default=100_000)
    compare.add_argument(
        "--relaxed",
        action="store_true",
        help="decay window 1000 + dead-first (Section 5.4) instead of aggressive",
    )
    _add_backend_flag(compare)
    _add_runner_flags(compare)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure_id", choices=sorted(ALL_FIGURES))
    figure.add_argument("--instructions", type=int, default=60_000)
    _add_runner_flags(figure)

    campaign = sub.add_parser(
        "campaign",
        help="Monte Carlo fault-injection campaign with confidence intervals",
    )
    campaign.add_argument(
        "--benchmark",
        action="append",
        required=True,
        metavar="NAME[,NAME...]",
        help="benchmark(s); repeat the flag or comma-separate",
    )
    campaign.add_argument(
        "--schemes",
        action="append",
        required=True,
        metavar="SCHEME[,SCHEME...]",
        help="scheme(s); repeat the flag or comma-separate",
    )
    campaign.add_argument(
        "--error-rate",
        action="append",
        type=float,
        default=None,
        metavar="P",
        help="per-cycle fault probability cell(s); default 1e-2",
    )
    campaign.add_argument("--trials", type=int, default=50, metavar="N")
    campaign.add_argument("--min-trials", type=int, default=8, metavar="N")
    campaign.add_argument("--batch-size", type=int, default=10, metavar="N")
    campaign.add_argument(
        "--target-half-width",
        type=float,
        default=None,
        metavar="W",
        help="adaptive stopping: stop a cell when the CI half-width of "
        "the unrecoverable-load fraction drops below W",
    )
    campaign.add_argument("--ci-level", type=float, default=0.95)
    campaign.add_argument("--instructions", type=int, default=40_000)
    campaign.add_argument(
        "--error-model", choices=sorted(MODELS), default="random"
    )
    campaign.add_argument("--seed", type=int, default=20_000)
    campaign.add_argument("--vulnerability", action="store_true")
    campaign.add_argument("--scrub-period", type=int, default=None)
    campaign.add_argument(
        "--relaxed",
        action="store_true",
        help="apply the Section 5.4 relaxed knobs to non-Base schemes",
    )
    campaign.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial wall-clock budget (crashed/hung trials are "
        "retried with a fresh seed)",
    )
    campaign.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file (default: .repro-campaign/<digest>.json; "
        "an interrupted campaign resumes from it)",
    )
    campaign.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable checkpointing entirely",
    )
    campaign.add_argument(
        "--trial-log",
        default=None,
        metavar="PATH",
        help="append raw per-trial results as JSONL",
    )
    campaign.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the full campaign report as JSON",
    )
    campaign.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="cap on queued+running trials (default 4x the worker count)",
    )
    _add_backend_flag(campaign)
    _add_runner_flags(campaign)

    serve = sub.add_parser(
        "serve",
        help="run the simulation job server (HTTP+JSON, see repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--queue-dir",
        default=".repro-service",
        metavar="DIR",
        help="persistent job queue directory (jobs survive restarts)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    _add_runner_flags(serve)

    submit = sub.add_parser(
        "submit", help="submit one experiment to a running server"
    )
    submit.add_argument("benchmark", choices=BENCHMARKS)
    submit.add_argument("scheme")
    submit.add_argument("--instructions", type=int, default=100_000)
    submit.add_argument("--error-rate", type=float, default=0.0)
    submit.add_argument(
        "--error-model", choices=sorted(MODELS), default="random"
    )
    submit.add_argument("--vulnerability", action="store_true")
    _add_backend_flag(submit)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8642)
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return instead of waiting for the result",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long to wait for the result (with waiting enabled)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection scenario suite "
        "(byte-identical reports under injected failures)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-plan seed (every scenario replays deterministically)",
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run only NAME (repeatable; default: every scenario)",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    chaos.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="scenario sandbox directory (default: a fresh temp dir)",
    )

    status = sub.add_parser(
        "status", help="inspect a running server (jobs, telemetry)"
    )
    status.add_argument(
        "job_id",
        nargs="?",
        default=None,
        help="job id to inspect (omit for the job table + telemetry)",
    )
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=8642)

    return parser


def _cmd_list() -> int:
    print("benchmarks:", ", ".join(BENCHMARKS))
    print("schemes   :")
    for name in registered_schemes():
        info = scheme_info(name)
        print(f"  {name:<16} {info.description}")
    print("figures   :", ", ".join(sorted(ALL_FIGURES)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scheme_kwargs = {}
    if args.decay_window is not None:
        scheme_kwargs["decay_window"] = args.decay_window
    if args.victim is not None:
        scheme_kwargs["victim_policy"] = VictimPolicy(args.victim)
    if args.leave_replicas:
        scheme_kwargs["leave_replicas_on_evict"] = True
    if args.placement is not None:
        scheme_kwargs["placement"] = args.placement
    if args.replication_factor is not None:
        scheme_kwargs["replication_factor"] = args.replication_factor
    if args.virtual_nodes is not None:
        scheme_kwargs["virtual_nodes"] = args.virtual_nodes
    if args.ring_attempts is not None:
        scheme_kwargs["ring_attempts"] = args.ring_attempts
    if args.ring_hash is not None:
        scheme_kwargs["ring_hash"] = args.ring_hash
    runner = _make_runner(args)
    try:
        spec = ExperimentSpec(
            benchmark=args.benchmark,
            scheme=args.scheme,
            n_instructions=args.instructions,
            error_rate=args.error_rate,
            error_model=args.error_model,
            measure_vulnerability=args.vulnerability,
            backend=args.backend,
            scheme_kwargs=scheme_kwargs,
        )
    except ValueError as exc:  # unknown scheme name, from the registry
        print(str(exc), file=sys.stderr)
        return 2

    def _simulate():
        return runner.run_one(spec)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(_simulate)
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "cumulative"
        ).print_stats(20)
    else:
        result = _simulate()
    print(f"{result.scheme} on {result.benchmark} ({result.instructions:,} instr)")
    print(f"  cycles            : {result.cycles:,} (CPI {result.cpi:.3f})")
    print(f"  dL1 miss rate     : {percent(result.miss_rate)}")
    print(f"  replication able  : {percent(result.replication_ability)}")
    print(f"  loads w/ replica  : {percent(result.loads_with_replica)}")
    print(f"  L1+L2 energy      : {result.energy.total_nj / 1e3:.1f} uJ")
    if args.error_rate > 0:
        d = result.dl1
        print(
            f"  faults            : {d['errors_injected']} injected, "
            f"{d['load_errors_detected']} detected, "
            f"{d['load_errors_unrecoverable']} unrecoverable"
        )
    if result.vulnerability is not None:
        print(
            f"  AVF (vulnerable)  : {percent(result.vulnerability.vulnerable_fraction)}"
        )
    _report_metrics(runner)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    knobs = RELAXED if args.relaxed else AGGRESSIVE
    runner = _make_runner(args)
    grid = [
        ExperimentSpec(
            args.benchmark,
            scheme,
            n_instructions=args.instructions,
            backend=args.backend,
            scheme_kwargs=knobs if scheme_info(scheme).accepts_icr_knobs else {},
        )
        for scheme in ALL_SCHEMES
    ]
    results = runner.run(grid)
    base_cycles = results[0].cycles
    rows = [
        [r.scheme, r.cycles / base_cycles, r.miss_rate, r.loads_with_replica]
        for r in results
    ]
    print(
        format_table(
            ["scheme", "norm_cycles", "miss_rate", "loads_w_replica"], rows
        )
    )
    _report_metrics(runner)
    return 0


def _split_flag(values, cast=str) -> list:
    """Flatten repeated/comma-separated flag values."""
    out = []
    for value in values or []:
        for part in str(value).split(","):
            part = part.strip()
            if part:
                out.append(cast(part))
    return out


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.harness.campaign import CampaignConfig, CampaignEngine

    benchmarks = _split_flag(args.benchmark)
    unknown = [b for b in benchmarks if b not in BENCHMARKS]
    if unknown:
        print(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(choose from {', '.join(BENCHMARKS)})",
            file=sys.stderr,
        )
        return 2
    try:
        schemes = [normalize_scheme_name(s) for s in _split_flag(args.schemes)]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    error_rates = args.error_rate if args.error_rate is not None else [1e-2]
    config = CampaignConfig(
        benchmarks=tuple(benchmarks),
        schemes=tuple(schemes),
        error_rates=tuple(error_rates),
        trials=args.trials,
        min_trials=args.min_trials,
        batch_size=args.batch_size,
        target_half_width=args.target_half_width,
        ci_level=args.ci_level,
        seed0=args.seed,
        n_instructions=args.instructions,
        error_model=args.error_model,
        measure_vulnerability=args.vulnerability,
        scrub_period=args.scrub_period,
        backend=args.backend,
        scheme_kwargs=RELAXED if args.relaxed else {},
    )
    checkpoint = None
    if not args.no_checkpoint:
        checkpoint = args.checkpoint or (
            f".repro-campaign/{config.digest()}.json"
        )
        print(f"[campaign] checkpoint: {checkpoint}", file=sys.stderr)
    runner = _make_runner(args)
    if args.timeout is not None:
        runner.timeout = args.timeout
    engine = CampaignEngine(
        config,
        runner,
        checkpoint_path=checkpoint,
        trial_log_path=args.trial_log,
        verbose=True,
        max_inflight=args.max_inflight,
    )
    if engine.resumed:
        print("[campaign] resumed from checkpoint", file=sys.stderr)
    report = engine.run()
    print(report.to_table())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"[campaign] report written to {args.json}", file=sys.stderr)
    print(_telemetry_line(engine.telemetry()), file=sys.stderr)
    _report_metrics(runner)
    return 0


def _telemetry_line(t: dict) -> str:
    """One stderr line of engine telemetry after a campaign."""
    return (
        f"[campaign] {t['trials_committed']} committed · "
        f"{t['checkpoint_writes']} checkpoint writes · "
        f"{t['utilization'] * 100:.0f}% util · "
        f"{t['steals']} steals · "
        f"{t['cancelled_savings']} cancelled · "
        f"{t['speculative_duplicates']} dups"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        queue_dir=args.queue_dir,
        timeout=args.timeout,
    )
    print(
        f"[serve] listening on http://{config.host}:{config.port} "
        f"(queue: {config.queue_dir})",
        file=sys.stderr,
    )
    serve(config)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        spec = ExperimentSpec(
            benchmark=args.benchmark,
            scheme=args.scheme,
            n_instructions=args.instructions,
            error_rate=args.error_rate,
            error_model=args.error_model,
            measure_vulnerability=args.vulnerability,
            backend=args.backend,
        )
    except ValueError as exc:  # unknown scheme name, from the registry
        print(str(exc), file=sys.stderr)
        return 2
    client = ServiceClient(host=args.host, port=args.port)
    try:
        submitted = client.submit(spec)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2 if exc.status == 400 else 1
    except OSError as exc:
        print(
            f"cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    job = submitted["job"]
    print(
        f"[submit] job {job['id']} {job['state']} "
        f"({submitted['submission']})",
        file=sys.stderr,
    )
    if args.no_wait:
        print(job["id"])
        return 0
    payload = client.wait(job["id"], timeout=args.timeout)
    job = payload["job"]
    if job["state"] != "done":
        print(f"job failed: {job.get('error')}", file=sys.stderr)
        return 1
    from repro.harness.cache import result_from_dict

    result = result_from_dict(payload["result"])
    print(f"{result.scheme} on {result.benchmark} ({result.instructions:,} instr)")
    print(f"  cycles            : {result.cycles:,} (CPI {result.cpi:.3f})")
    print(f"  dL1 miss rate     : {percent(result.miss_rate)}")
    print(f"  loads w/ replica  : {percent(result.loads_with_replica)}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.job_id is not None:
            payload = client.job(args.job_id)
            job = payload["job"]
            print(
                f"{job['id']}  {job['kind']}  {job['state']}"
                + (f"  error: {job['error']}" if job["error"] else "")
            )
            return 0
        telemetry = client.telemetry()
        jobs = client.jobs()
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    for job in jobs:
        print(f"{job['id']}  {job['kind']}  {job['state']}")
    store = telemetry["store"]
    print(
        f"[status] {telemetry['submissions']} submissions · "
        f"{telemetry['dedup_hits']} deduped · "
        f"{telemetry['cache_served']} cache-served · "
        f"queue depth {telemetry['queue_depth']} · "
        f"store hit-rate {store['hit_rate'] * 100:.0f}%",
        file=sys.stderr,
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Lazy import: scenarios pulls in the whole harness + service.
    from repro.chaos import scenarios

    if args.list:
        for name, fn in scenarios.SCENARIOS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<18} {summary}")
        return 0
    try:
        if args.workdir is not None:
            results = scenarios.run_suite(
                args.scenario, workdir=args.workdir, seed=args.seed
            )
        else:
            import tempfile

            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                results = scenarios.run_suite(
                    args.scenario, workdir=tmp, seed=args.seed
                )
    except ValueError as exc:  # unknown --scenario name
        print(str(exc), file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[chaos] {mark}  {r.name:<18} {r.duration:6.2f}s  {r.detail}")
    print(
        f"[chaos] seed={args.seed}: {len(results) - len(failed)}/{len(results)} "
        "scenarios passed",
        file=sys.stderr,
    )
    recovered = recovery.summary()
    if recovered:
        print(recovered, file=sys.stderr)
    return 1 if failed else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    result = run_figure(args.figure_id, runner=runner, n=args.instructions)
    print(result.to_table())
    _report_metrics(runner)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
    except BrokenPipeError:  # e.g. `repro-icr list | head`
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
