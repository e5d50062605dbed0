"""Per-layer metrics of the traced run, built from the merged spans.

``METRICS`` is the full list, in the order ``BENCHMARK.json`` declares
it.  Every metric is reported on every workload: a layer the workload
does not exercise reads 0, and a metric that cannot be measured reads 0
with its reason listed under ``absent`` in the run's info line (a
wrapper target that no longer exists, or a metric that belongs to
another workload).
"""

from __future__ import annotations

from typing import Any

import workloads as wl

#: (name, unit, better)
METRICS: tuple[tuple[str, str, str], ...] = (
    ("setup.import_s", "s", "lower"),
    ("setup.trace_gen_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("setup.server_boot_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("workloads.trace_for_s", "s", "lower"),
    ("workloads.load_trace_s", "s", "lower"),
    ("core.array_kernel.run_batched_s", "s", "lower"),
    ("core.array_kernel.batched_self_s", "s", "lower"),
    ("core._native.phase2_s", "s", "lower"),
    ("core._native.phase2_calls", "count", "lower"),
    ("core.array_kernel.access_s", "s", "lower"),
    ("core.array_kernel.access_calls", "count", "lower"),
    ("cpu.pipeline.self_s", "s", "lower"),
    ("cache.hierarchy.self_s", "s", "lower"),
    ("cache.hierarchy.calls", "count", "lower"),
    ("core.icr_cache.access_s", "s", "lower"),
    ("core.icr_cache.access_calls", "count", "lower"),
    ("errors.injector.advance_s", "s", "lower"),
    ("errors.injector.calls", "count", "lower"),
    ("coding.s", "s", "lower"),
    ("coding.calls", "count", "lower"),
    ("energy.accounting.energy_of_s", "s", "lower"),
    ("harness.experiment.run_s", "s", "lower"),
    ("harness.experiment.run_p50_ms", "ms", "lower"),
    ("harness.experiment.serialize_s", "s", "lower"),
    ("harness.runner.ipc_s", "s", "lower"),
    ("harness.runner.retries", "count", "lower"),
    ("harness.runner.failed", "count", "lower"),
    ("harness.cache.get_s", "s", "lower"),
    ("harness.cache.put_s", "s", "lower"),
    ("harness.cache.hit_ratio", "ratio", "higher"),
    ("harness.cache.hits", "count", "higher"),
    ("harness.cache.lookups", "count", "lower"),
    ("harness.campaign.checkpoint_writes", "count", "lower"),
    ("harness.scheduler.utilization", "ratio", "higher"),
    ("harness.scheduler.useful_ratio", "ratio", "higher"),
    ("harness.scheduler.committed", "count", "higher"),
    ("harness.scheduler.attempts", "count", "lower"),
    ("harness.stats.bootstrap_s", "s", "lower"),
    ("service.submit_ms.p50", "ms", "lower"),
    ("service.submit_ms.p90", "ms", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p90", "ms", "lower"),
    ("service.exec_ms.p50", "ms", "lower"),
    ("service.exec_ms.p90", "ms", "lower"),
    ("service.delivery_ms.p50", "ms", "lower"),
    ("service.delivery_ms.p90", "ms", "lower"),
    ("service.dedup_hits", "count", "higher"),
    ("service.cache_served", "count", "higher"),
    ("service.simulated", "count", "lower"),
    ("service.store_hit_ratio", "ratio", "higher"),
    ("recovery.events", "count", "lower"),
    ("tier.array_batched_ops", "count", "higher"),
    ("tier.array_soa_ops", "count", "higher"),
    ("tier.object_ops", "count", "lower"),
    ("sim.instructions", "count", "higher"),
    ("sim.cycles", "count", "lower"),
    ("sim.dl1_accesses", "count", "higher"),
    ("sim.replication_attempts", "count", "lower"),
    ("sim.tag_probes", "count", "lower"),
    ("sim.errors_injected", "count", "higher"),
    ("trace.ops_per_sec_traced", "1/s", "higher"),
    ("trace.ops_per_sec_untraced", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("latency.p90_ms", "ms", "lower"),
)

#: filled in by run.py from the untraced and traced runs
FROM_RUN_PY = ("trace.ops_per_sec_traced", "trace.ops_per_sec_untraced",
               "trace.overhead", "latency.p90_ms")

#: metric -> (tracer layer, field): field 0 = calls, 1 = total, 2 = self
SPAN_METRICS = {
    "workloads.generate_s": ("workloads.generate", 1),
    "workloads.trace_for_s": ("workloads.trace_for", 1),
    "workloads.load_trace_s": ("workloads.load_trace", 1),
    "core.array_kernel.run_batched_s": ("core.array_kernel.run_batched", 1),
    "core.array_kernel.batched_self_s": ("core.array_kernel.run_batched", 2),
    "core._native.phase2_s": ("core._native.phase2", 1),
    "core._native.phase2_calls": ("core._native.phase2", 0),
    "core.array_kernel.access_s": ("core.array_kernel.access", 1),
    "core.array_kernel.access_calls": ("core.array_kernel.access", 0),
    "cpu.pipeline.self_s": ("cpu.pipeline", 2),
    "cache.hierarchy.self_s": ("cache.hierarchy", 2),
    "cache.hierarchy.calls": ("cache.hierarchy", 0),
    "core.icr_cache.access_s": ("core.icr_cache.access", 1),
    "core.icr_cache.access_calls": ("core.icr_cache.access", 0),
    "errors.injector.advance_s": ("errors.injector.advance", 1),
    "errors.injector.calls": ("errors.injector.advance", 0),
    "coding.s": ("coding", 1),
    "coding.calls": ("coding", 0),
    "energy.accounting.energy_of_s": ("energy.accounting.energy_of", 1),
    "harness.experiment.run_s": ("harness.experiment.run", 1),
    "harness.experiment.serialize_s": ("harness.experiment.serialize", 1),
    "harness.cache.get_s": ("harness.cache.get", 1),
    "harness.cache.put_s": ("harness.cache.put", 1),
    "harness.stats.bootstrap_s": ("harness.stats.bootstrap", 1),
}

TIERS = {
    "array-batched": "tier.array_batched_ops",
    "array-soa": "tier.array_soa_ops",
    "object": "tier.object_ops",
}

SIM = ("instructions", "cycles", "dl1_accesses", "replication_attempts",
       "tag_probes", "errors_injected")


def per_layer(workload: wl.Workload, record: dict[str, Any],
              merged: dict[str, Any]) -> tuple[dict, dict[str, str]]:
    """Every metric of ``METRICS`` but those ``run.py`` fills in.

    Returns the metrics and, separately, the reason each absent one
    could not be measured.
    """
    stats = merged["stats"]
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    for metric, (layer, field) in SPAN_METRICS.items():
        if layer in merged["absent"]:
            absent[metric] = merged["absent"][layer]
        entry = stats.get(layer, [0, 0, 0])
        values[metric] = entry[field] if field == 0 else entry[field] / 1e9

    values["setup.import_s"] = record["import_s"]
    values["setup.warmup_s"] = record["warmup_s"]
    values["setup.server_boot_s"] = record["server_boot_s"]
    service = isinstance(workload, wl.Service)
    if service:
        # Every trace the server generates, it generates while warming up.
        values["setup.trace_gen_s"] = values["workloads.trace_for_s"]
    else:
        values["setup.trace_gen_s"] = record.get("setup_trace_gen_s", 0.0)
        absent["setup.server_boot_s"] = "no server in this workload"

    runs = sorted(op["run_ns"] for op in merged["ops"])
    values["harness.experiment.run_p50_ms"] = (
        wl.percentile(runs, 50) / 1e6 if runs else 0.0
    )
    run = stats.get("harness.experiment.run", [0, 0, 0])
    values["trace.span_coverage"] = (run[1] - run[2]) / run[1] if run[1] else 0.0

    for metric in TIERS.values():
        values[metric] = 0
        if "tier" in merged["absent"]:
            absent[metric] = merged["absent"]["tier"]
    for op in merged["ops"]:
        metric = TIERS.get(op["tier"])
        if metric is not None:
            values[metric] += 1
    for name in SIM:
        values[f"sim.{name}"] = sum(op[name] for op in merged["ops"])

    hits, lookups = merged["cache_lookups"]
    values["harness.cache.hits"] = hits
    values["harness.cache.lookups"] = lookups
    values["harness.cache.hit_ratio"] = hits / lookups if lookups else 0.0

    # Repeated campaigns run the same specs, so a harvest pairs with the
    # latest return of its key that precedes it.
    returned: dict[Any, list[int]] = {}
    for key, end_ns in merged["worker_trials"]:
        returned.setdefault(key, []).append(end_ns)
    ipc_ns = 0
    for key, harvest_ns in merged["harvests"]:
        before = [end for end in returned.get(key, ()) if end <= harvest_ns]
        if before:
            ipc_ns += harvest_ns - max(before)
    values["harness.runner.ipc_s"] = ipc_ns / 1e9

    values["recovery.events"] = sum(record["recovery"].values())
    values.update(_runner_metrics(workload, absent))
    values.update(_campaign_metrics(workload, absent))
    values.update(_service_metrics(workload, absent))
    if not isinstance(workload, wl.Campaign):
        absent.setdefault("harness.runner.ipc_s", "no worker pool in this workload")

    out = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _ in METRICS
        if name not in FROM_RUN_PY
    }
    return out, absent


def _runner_metrics(workload, absent) -> dict[str, float]:
    if isinstance(workload, wl.Service):
        runner = workload.telemetry.get("runner", {})
        return {"harness.runner.retries": runner.get("retries", 0),
                "harness.runner.failed": runner.get("failures", 0)}
    if isinstance(workload, wl.Campaign):
        return {
            "harness.runner.retries": sum(
                e.runner.stats.retries for e in workload.engines),
            "harness.runner.failed": sum(
                e.runner.stats.failures for e in workload.engines),
        }
    return {"harness.runner.retries": 0, "harness.runner.failed": workload.failed}


def _campaign_metrics(workload, absent) -> dict[str, float]:
    names = ("harness.campaign.checkpoint_writes",
             "harness.scheduler.utilization", "harness.scheduler.useful_ratio",
             "harness.scheduler.committed", "harness.scheduler.attempts")
    if not isinstance(workload, wl.Campaign):
        for name in names:
            absent[name] = "no campaign in this workload"
        return {}
    try:
        tel = [engine.telemetry() for engine in workload.engines]
    except Exception as exc:  # telemetry moved: report, never crash
        for name in names:
            absent[name] = f"engine.telemetry() failed ({exc!r})"
        return {}
    committed = sum(t.get("trials_committed", 0) for t in tel)
    wasted = sum(
        t.get("speculative_duplicates", 0) + t.get("cancelled_savings", 0)
        + t.get("discarded_results", 0)
        for t in tel
    )
    return {
        "harness.campaign.checkpoint_writes": sum(
            t.get("checkpoint_writes", 0) for t in tel),
        "harness.scheduler.utilization": (
            sum(t.get("utilization", 0.0) for t in tel) / len(tel)),
        "harness.scheduler.committed": committed,
        "harness.scheduler.attempts": committed + wasted,
        "harness.scheduler.useful_ratio": (
            committed / (committed + wasted) if committed + wasted else 0.0),
    }


def _service_metrics(workload, absent) -> dict[str, float]:
    prefixes = ("submit_ms", "queue_wait_ms", "exec_ms", "delivery_ms")
    counters = ("service.dedup_hits", "service.cache_served",
                "service.simulated", "service.store_hit_ratio")
    if not isinstance(workload, wl.Service):
        for prefix in prefixes:
            for q in ("p50", "p90"):
                absent[f"service.{prefix}.{q}"] = "no service in this workload"
        for name in counters:
            absent[name] = "no service in this workload"
        return {}
    out = {}
    for prefix in prefixes:
        samples = [r[prefix] for r in workload.records if prefix in r]
        out[f"service.{prefix}.p50"] = wl.percentile(samples, 50)
        out[f"service.{prefix}.p90"] = wl.percentile(samples, 90)
    tel = workload.telemetry
    store = tel.get("store", {})
    out["service.dedup_hits"] = tel.get("dedup_hits", 0)
    out["service.cache_served"] = tel.get("cache_served", 0)
    out["service.simulated"] = tel.get("runner", {}).get("simulated", 0)
    out["service.store_hit_ratio"] = store.get("hit_rate", 0.0)
    return out
