"""End-to-end chaos scenarios: inject faults, demand byte-identical reports.

Each scenario stages one failure mode from the fault model (DESIGN.md
§15) against the *real* execution stack — no mocks — and then checks the
recovery contract from the outside:

* the final campaign report must be **byte-identical** to an
  undisturbed reference run of the same config (faults may cost time,
  never results);
* the :mod:`repro.recovery` ledger must show that the degradation
  actually happened (a chaos run where nothing fired proves nothing).

Scenarios are deterministic: every fault decision is a pure hash of
``(plan seed, fault kind, site key)`` and fires exactly once per run
(see :mod:`repro.chaos.runtime`), so a failing scenario replays
identically under the same ``--seed``.

This module imports the whole harness and the service — keep it out of
``repro.chaos.__init__`` (the runtime hooks must stay import-light).
Run via ``repro-icr chaos`` or ``tests/chaos/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro import recovery
from repro.chaos import runtime
from repro.chaos.plan import FaultPlan
from repro.harness.cache import ResultCache
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.runner import ParallelRunner


class ScenarioError(AssertionError):
    """A scenario's recovery contract was violated."""


@dataclass
class ScenarioContext:
    """Per-scenario sandbox: a private workdir plus the plan seed."""

    workdir: Path
    seed: int


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    detail: str
    duration: float


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _config(seed: int, **overrides) -> CampaignConfig:
    """The small two-cell campaign every scenario runs (seconds, not
    minutes — the point is the fault path, not statistical power)."""
    base = dict(
        benchmarks=("gzip",),
        schemes=("BaseP", "ICR-P-PS(S)"),
        error_rates=(1e-2,),
        trials=4,
        batch_size=2,
        min_trials=2,
        n_instructions=2500,
        seed0=seed,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _run_report(
    config: CampaignConfig,
    cache_dir: Path,
    *,
    jobs: int = 1,
    **engine_kwargs,
) -> tuple[str, dict]:
    """One full campaign run; (report JSON, engine telemetry)."""
    runner = ParallelRunner(jobs=jobs, cache=ResultCache(cache_dir=cache_dir))
    engine = CampaignEngine(config, runner, **engine_kwargs)
    report = engine.run()
    return report.to_json(), engine.telemetry()


def _normalize(report_obj) -> str:
    """Canonical byte form for report comparison across the wire."""
    return json.dumps(report_obj, sort_keys=True, separators=(",", ":"))


# -- scenarios -------------------------------------------------------------


def scenario_cache_corruption(ctx: ScenarioContext) -> str:
    """Every cache entry is damaged post-write; a later run must
    quarantine and recompute, landing on the identical report."""
    config = _config(ctx.seed)
    ref, _ = _run_report(config, ctx.workdir / "ref-cache")
    cache_dir = ctx.workdir / "chaos-cache"
    plan = FaultPlan(seed=ctx.seed, corrupt_rate=1.0, truncate_rate=0.5)
    runtime.install(plan, ctx.workdir / "scratch")
    try:
        first, _ = _run_report(config, cache_dir)
        fired = runtime.fired()
    finally:
        runtime.uninstall()
    damaged = fired["corrupt"] + fired["truncate"]
    _check(damaged >= 1, "no cache entries were damaged")
    _check(first == ref, "report diverged during the damaging run")
    before = recovery.counter("cache_quarantined")
    second, _ = _run_report(config, cache_dir)
    quarantined = recovery.counter("cache_quarantined") - before
    _check(second == ref, "report diverged after quarantine + recompute")
    _check(quarantined >= 1, "no corrupt entries were quarantined")
    return f"{damaged} entries damaged, {quarantined} quarantined, report identical"


def scenario_worker_crash(ctx: ScenarioContext) -> str:
    """Every trial's first pool attempt dies by SIGKILL; the rebuilt
    pools and in-parent retries must land on the identical report."""
    config = _config(ctx.seed)
    ref, _ = _run_report(config, ctx.workdir / "ref-cache")
    plan = FaultPlan(seed=ctx.seed, kill_rate=1.0)
    before = recovery.counter("pool_rebuilds")
    runtime.install(plan, ctx.workdir / "scratch")
    try:
        chaotic, telemetry = _run_report(
            config,
            ctx.workdir / "chaos-cache",
            jobs=2,
            workers=2,
        )
        kills = runtime.fired()["kill"]
    finally:
        runtime.uninstall()
    rebuilds = recovery.counter("pool_rebuilds") - before
    _check(kills >= 1, "no workers were killed")
    _check(chaotic == ref, "report diverged under worker kills")
    _check(telemetry["runner"]["retries"] >= 1, "kills never forced a retry")
    return f"{kills} workers killed, {rebuilds} pool rebuilds, report identical"


def scenario_forced_timeout(ctx: ScenarioContext) -> str:
    """Every trial's first attempt hits the job timeout; retries of the
    same spec must land on the identical report."""
    config = _config(ctx.seed)
    ref, _ = _run_report(config, ctx.workdir / "ref-cache")
    plan = FaultPlan(seed=ctx.seed, timeout_rate=1.0)
    runtime.install(plan, ctx.workdir / "scratch")
    try:
        chaotic, telemetry = _run_report(config, ctx.workdir / "chaos-cache")
        timeouts = runtime.fired()["timeout"]
    finally:
        runtime.uninstall()
    _check(timeouts >= 1, "no timeouts fired")
    _check(chaotic == ref, "report diverged under forced timeouts")
    _check(telemetry["runner"]["retries"] >= 1, "timeouts never forced a retry")
    return f"{timeouts} forced timeouts retried, report identical"


def scenario_torn_checkpoint(ctx: ScenarioContext) -> str:
    """A writer dies mid-checkpoint (half the payload persisted); the
    next engine must quarantine it and still produce the identical
    report from the result cache."""
    config = _config(ctx.seed)
    ref, _ = _run_report(config, ctx.workdir / "ref-cache")
    cache_dir = ctx.workdir / "chaos-cache"
    ckpt = ctx.workdir / "ckpt.json"
    plan = FaultPlan(seed=ctx.seed, torn_checkpoint_rate=1.0)
    runtime.install(plan, ctx.workdir / "scratch")
    try:
        runner = ParallelRunner(
            jobs=1, cache=ResultCache(cache_dir=cache_dir)
        )
        engine = CampaignEngine(config, runner, checkpoint_path=ckpt)
        engine.run(max_trials=4)  # the exit flush is the (torn) write
        torn = runtime.fired()["torn_checkpoint"]
    finally:
        runtime.uninstall()
    _check(torn >= 1, "the checkpoint write was never torn")
    _check(ckpt.exists(), "no checkpoint file was left behind")
    before = recovery.counter("checkpoint_quarantined")
    second, _ = _run_report(config, cache_dir, checkpoint_path=ckpt)
    quarantined = recovery.counter("checkpoint_quarantined") - before
    _check(quarantined >= 1, "the torn checkpoint was not quarantined")
    _check(
        ckpt.with_suffix(".corrupt").exists(),
        "the torn checkpoint was not preserved for diagnosis",
    )
    _check(second == ref, "report diverged after checkpoint quarantine")
    return "torn checkpoint quarantined, campaign restarted, report identical"


def scenario_disk_full(ctx: ScenarioContext) -> str:
    """Every persistence site hits ENOSPC once; the run must finish
    from memory with the identical report."""
    config = _config(ctx.seed)
    ref, _ = _run_report(config, ctx.workdir / "ref-cache")
    plan = FaultPlan(seed=ctx.seed, disk_full_rate=1.0)
    cache_before = recovery.counter("cache_write_errors")
    ckpt_before = recovery.counter("checkpoint_write_errors")
    runtime.install(plan, ctx.workdir / "scratch")
    try:
        chaotic, _ = _run_report(
            config,
            ctx.workdir / "chaos-cache",
            checkpoint_path=ctx.workdir / "ckpt.json",
        )
        enospc = runtime.fired()["disk_full"]
    finally:
        runtime.uninstall()
    cache_errors = recovery.counter("cache_write_errors") - cache_before
    ckpt_errors = recovery.counter("checkpoint_write_errors") - ckpt_before
    _check(enospc >= 2, "too few ENOSPC faults fired")
    _check(chaotic == ref, "report diverged under a full disk")
    _check(cache_errors >= 1, "cache writes never degraded")
    _check(ckpt_errors >= 1, "checkpoint writes never degraded")
    return (
        f"{enospc} ENOSPC faults absorbed "
        f"({cache_errors} cache, {ckpt_errors} checkpoint), report identical"
    )


_SERVER_SCRIPT = """\
import asyncio
import sys

from repro.service import ServiceConfig, SimulationService


async def main():
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        workers=1,
        cache_dir=sys.argv[1],
        queue_dir=sys.argv[2],
        checkpoint_every_trials=1,
        checkpoint_interval=0.05,
    )
    service = SimulationService(config)
    await service.start()
    print(f"PORT {service.port}", flush=True)
    await service._server.serve_forever()


asyncio.run(main())
"""


def _start_server(
    script: Path, cache_dir: Path, queue_dir: Path, log: Path
) -> tuple[subprocess.Popen, int]:
    with log.open("a") as err:
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir), str(queue_dir)],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    if not line.startswith("PORT "):
        proc.kill()
        proc.wait(timeout=10)
        raise ScenarioError(
            f"server never announced its port (got {line!r}); see {log}"
        )
    return proc, int(line.split()[1])


def _checkpoint_records(path: Path) -> int:
    try:
        payload = json.loads(path.read_text())
        return sum(
            len(v) for v in payload.get("cells", {}).values()
            if isinstance(v, list)
        )
    except (OSError, ValueError, AttributeError):
        return 0


def scenario_service_restart(ctx: ScenarioContext) -> str:
    """SIGKILL the job server mid-campaign; the restarted server must
    resume from the checkpoint (no full re-run) and finish with the
    identical report."""
    from repro.service import ServiceClient

    campaign = dict(
        benchmarks=["gzip"],
        schemes=["BaseP", "ICR-P-PS(S)"],
        error_rates=[1e-2],
        trials=12,
        batch_size=2,
        min_trials=2,
        n_instructions=8000,
        seed0=ctx.seed,
        backend="object",
    )
    local_config = CampaignConfig(**campaign)
    total_trials = local_config.trials * len(local_config.cells())
    ref, _ = _run_report(local_config, ctx.workdir / "ref-cache")
    script = ctx.workdir / "server.py"
    script.write_text(_SERVER_SCRIPT)
    svc_cache = ctx.workdir / "svc-cache"
    queue_dir = ctx.workdir / "queue"
    log = ctx.workdir / "server.log"

    proc, port = _start_server(script, svc_cache, queue_dir, log)
    try:
        client = ServiceClient(port=port, timeout=30.0)
        job_id = client.submit_campaign(campaign)["job"]["id"]
        ckpt = queue_dir / f"{job_id}.ckpt.json"
        deadline = time.monotonic() + 60.0
        committed = 0
        while time.monotonic() < deadline:
            committed = _checkpoint_records(ckpt)
            if committed >= 1:
                break
            time.sleep(0.005)
        _check(committed >= 1, "no checkpoint appeared before the kill window")
        state = client.job(job_id)["job"]["state"]
        _check(
            state != "done",
            "campaign finished before the kill — enlarge its budget",
        )
    finally:
        proc.kill()
        proc.wait(timeout=10)

    proc2, port2 = _start_server(script, svc_cache, queue_dir, log)
    try:
        client2 = ServiceClient(port=port2, timeout=30.0)
        payload = client2.wait(job_id, timeout=180.0)
        _check(
            payload["job"]["state"] == "done",
            f"resumed campaign failed: {payload['job'].get('error')}",
        )
        events = list(client2.events(job_id, timeout=30.0))
        telemetry = client2.telemetry()
    finally:
        proc2.kill()
        proc2.wait(timeout=10)

    resumed = [e for e in events if e["event"] == "resumed"]
    _check(bool(resumed), "the restarted server never emitted a resumed event")
    resumed_trials = resumed[-1].get("trials_committed", 0)
    _check(
        resumed_trials >= 1,
        "the resumed event shows no trials recovered from the checkpoint",
    )
    _check(
        _normalize(payload["report"]) == _normalize(json.loads(ref)),
        "service report diverged from the local reference after restart",
    )
    second_life_jobs = telemetry["campaigns"][job_id]["runner"]["jobs"]
    _check(
        second_life_jobs <= total_trials - resumed_trials,
        f"restart re-ran checkpointed work: {second_life_jobs} jobs submitted "
        f"with {resumed_trials}/{total_trials} trials already committed",
    )
    return (
        f"resumed {resumed_trials}/{total_trials} trials from checkpoint, "
        f"{second_life_jobs} submitted after restart, report identical"
    )


#: Registry: scenario name -> callable(ctx) -> success detail line.
SCENARIOS: dict[str, Callable[[ScenarioContext], str]] = {
    "cache-corruption": scenario_cache_corruption,
    "worker-crash": scenario_worker_crash,
    "forced-timeout": scenario_forced_timeout,
    "torn-checkpoint": scenario_torn_checkpoint,
    "disk-full": scenario_disk_full,
    "service-restart": scenario_service_restart,
}


def run_scenario(name: str, *, workdir, seed: int = 0) -> ScenarioResult:
    """Run one scenario in its own subdirectory of *workdir*."""
    fn = SCENARIOS[name]
    ctx = ScenarioContext(workdir=Path(workdir) / name, seed=seed)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        detail = fn(ctx)
        passed = True
    except ScenarioError as exc:
        detail, passed = str(exc), False
    except Exception:
        tail = traceback.format_exc().strip().splitlines()[-1]
        detail, passed = f"crashed: {tail}", False
    finally:
        runtime.uninstall()
    return ScenarioResult(name, passed, detail, time.monotonic() - started)


def run_suite(
    names: Optional[list[str]] = None, *, workdir, seed: int = 0
) -> list[ScenarioResult]:
    """Run the named scenarios (default: all) and collect the results."""
    unknown = sorted(set(names or ()) - set(SCENARIOS))
    if unknown:
        raise ValueError(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(choose from {', '.join(SCENARIOS)})"
        )
    return [
        run_scenario(name, workdir=workdir, seed=seed)
        for name in (names or list(SCENARIOS))
    ]
