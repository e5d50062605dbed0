"""One fresh benchmark process: set up, then (optionally) measure and check.

Started by ``run.py`` with the monotonic time taken just before the
process was spawned, so ``setup_s`` covers interpreter start, imports,
cold trace generation and the warm-up ops.  Writes one JSON record to
``--out``; never prints the benchmark's result line itself.

    python3 perfbench/worker.py --workload sweep-aggressive --seed 1 \\
        --seconds 10 --t0 <monotonic> --run-dir DIR --refs-dir DIR \\
        --src-digest HEX --out FILE [--setup-only] \\
        [--trace-dir DIR --chrome-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--refs-dir", required=True)
    parser.add_argument("--src-digest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--chrome-out", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer(Path(args.trace_dir))
    import workloads as wl
    from repro import recovery

    import_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.install()
    run_dir = Path(args.run_dir)
    if args.workload == "service-mixed":
        server_cmd = [sys.executable, "-m", "repro"]
        if tracer is not None:
            server_cmd = [sys.executable, str(HERE / "traced_serve.py"),
                          args.trace_dir]
        workload = wl.Service(args.seed, run_dir, server_cmd)
    else:
        workload = {
            "sweep-aggressive": wl.SweepAggressive,
            "sweep-relaxed": wl.SweepRelaxed,
            "campaign-fault": wl.Campaign,
        }[args.workload](args.seed, run_dir)

    record: dict = {"import_s": import_s}
    try:
        setup_start = time.monotonic()
        workload.setup()
        now = time.monotonic()
        record["setup_s"] = now - args.t0
        record["server_boot_s"] = getattr(workload, "boot_s", 0.0)
        record["warmup_s"] = now - setup_start - record["server_boot_s"]
        if tracer is not None:
            record["setup_trace_gen_s"] = (
                tracer.snapshot()["stats"].get("workloads.trace_for", [0, 0])[1]
                / 1e9
            )
        if args.setup_only:
            return _write(args.out, record)
        if tracer is not None:
            tracer.reset()  # per-layer figures cover the timed ops only

        workload.measure(args.seconds)
        record["peak_rss_mb"] = workload.peak_rss_mb()
        recovered = dict(recovery.snapshot())
        if isinstance(workload, wl.Service):
            for name, value in workload.telemetry.get("recovery", {}).items():
                recovered[name] = recovered.get(name, 0) + value
    finally:
        if isinstance(workload, wl.Service):
            workload.stop()
    record["recovery"] = recovered
    # run.py built and loaded the kernel before any worker started; a
    # worker (or the server) that then fails to load it counts a
    # native_fallbacks recovery, which refuses the run.
    record["native"] = (
        "python-phase2" if recovered.get("native_fallbacks")
        else "native-phase2"
    )

    if tracer is not None:
        # Before the reference runs, so its simulations stay out of the
        # per-layer figures.
        import layers
        from tracer import merge, write_chrome_trace

        tracer.flush()
        merged = merge(Path(args.trace_dir))
        record["layers"], record["absent"] = layers.per_layer(
            workload, record, merged)
        write_chrome_trace(merged, Path(args.chrome_out), record["layers"])
    reference = wl.load_or_build_reference(
        workload,
        Path(args.refs_dir) / f"{workload.reference_key()}-{args.src_digest}.json",
    )
    workload.check(reference)
    record.update(
        ops=workload.ops,
        attempted=workload.attempted,
        failed=workload.failed,
        elapsed=workload.elapsed,
        ops_per_sec=workload.ops_per_sec(),
        units=workload.windows,
        extra=workload.extra,
    )
    record["latency_p50_ms"] = workload.latency_ms(50)
    record["latency_p90_ms"] = workload.latency_ms(90)
    record["latency_samples"] = len(workload.latencies_ms)
    return _write(args.out, record)


def _write(path: str, record: dict) -> int:
    tmp = Path(path + ".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
