"""The repo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-aggressive --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Standard library only: the simulator
is imported by the fresh worker processes this script starts
(``worker.py``), never here, so every worker's ``setup_s`` starts at
process spawn.  See ``README.md`` for the workloads and metrics.

``--trace 0`` set-up runs ``SETUPS`` fresh workers (the last one also
measures) and reports every end-to-end metric, ``setup_s`` as the
median over the set-ups.  ``--trace 1`` runs one untraced and one
traced worker and reports every per-layer metric, including the
tracing overhead between the two.

Exit codes: 0 with a result line; 2 when the checkout holds no source
to benchmark; 3 when the native phase-2 kernel cannot be built; 4 when a
run was refused (degraded native kernel or a non-zero recovery
ledger); 5 when a worker failed or overran its time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-aggressive", "sweep-relaxed", "campaign-fault",
             "service-mixed")
SETUPS = 3
WORKER_TIMEOUT = 150.0
END_TO_END = (
    ("ops_per_sec", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
)


class BenchError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _src_digest(src: Path) -> str:
    """Digest of the simulator and of the workload definitions: the key
    under which references are kept, so a stale one is never reused."""
    digest = hashlib.blake2b(digest_size=8)
    for path in [*sorted(src.rglob("*.py")), HERE / "workloads.py"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _env(build_dir: Path) -> dict[str, str]:
    """Child environment: no inherited REPRO_* knobs, native kernel on."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(build_dir)  # holds only the native kernel
    env["REPRO_NATIVE"] = "1"
    return env


def build_native(env: dict[str, str]) -> None:
    """Compile the phase-2 kernel once per checkout (an install step)."""
    code = ("import sys\nfrom repro.core import _native\n"
            "sys.exit(0 if _native.available() else 1)\n")
    try:
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=sys.stderr, timeout=600)
    except subprocess.TimeoutExpired:
        raise BenchError(3, "native kernel build timed out") from None
    if done.returncode != 0:
        raise BenchError(3, "native phase-2 kernel unavailable; refusing to "
                            "measure a degraded program")


def run_worker(args, env, run_dir: Path, index: int, *, setup_only: bool,
               trace_dir: str = "", chrome_out: str = "") -> dict:
    work = run_dir / f"worker-{index}"
    work.mkdir(parents=True)
    child_env = dict(env)
    child_env["REPRO_TRACE_CACHE_DIR"] = str(work / "traces")
    out = work / "record.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--run-dir", str(work),
        "--refs-dir", str(args.refs_dir), "--src-digest", args.src_digest,
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir, "--chrome-out", chrome_out]
    t0 = time.monotonic()
    # Own process group, so a timeout also stops the server or pool
    # workers the worker started.
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], env=child_env,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(
            5, f"worker {index} overran {WORKER_TIMEOUT:.0f}s") from None
    finally:
        # Take down anything the worker left behind (or the worker
        # itself, when interrupted).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not out.exists():
        raise BenchError(5, f"worker {index} failed with exit code {code}")
    return json.loads(out.read_text())


def refuse_degraded(record: dict) -> None:
    if record.get("native") != "native-phase2":
        raise BenchError(4, f"run used {record.get('native')}; refusing it")
    events = sum(record.get("recovery", {}).values())
    if events:
        raise BenchError(4, f"recovery ledger non-zero: {record['recovery']}")


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - start


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, env, run_dir: Path) -> tuple[dict, list[dict]]:
    records = [
        run_worker(args, env, run_dir, i, setup_only=i < SETUPS - 1)
        for i in range(SETUPS)
    ]
    measured = records[-1]
    refuse_degraded(measured)
    metrics = {name: _metric(measured[name], unit) for name, unit in END_TO_END
               if name != "setup_s"}
    metrics["setup_s"] = _metric(
        statistics.median(r["setup_s"] for r in records), "s")
    ordered = {name: metrics[name] for name, _ in END_TO_END}
    return ordered, records


def per_layer(args, env, run_dir: Path) -> tuple[dict, list[dict]]:
    untraced = run_worker(args, env, run_dir, 0, setup_only=False)
    refuse_degraded(untraced)
    trace_dir = run_dir / "spans"
    chrome = args.work / "traces" / f"{args.workload}-seed{args.seed}.json"
    traced = run_worker(args, env, run_dir, 1, setup_only=False,
                        trace_dir=str(trace_dir), chrome_out=str(chrome))
    refuse_degraded(traced)
    metrics = dict(traced["layers"])
    slow, fast = traced["ops_per_sec"], untraced["ops_per_sec"]
    metrics["trace.ops_per_sec_traced"] = _metric(slow, "1/s")
    metrics["trace.ops_per_sec_untraced"] = _metric(fast, "1/s")
    metrics["trace.overhead"] = _metric(fast / slow - 1 if slow else 0.0,
                                        "ratio")
    metrics["latency.p90_ms"] = _metric(untraced["latency_p90_ms"], "ms")
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src" / "repro"
    try:
        if not (src / "__init__.py").is_file():
            raise BenchError(2, f"no simulator source under {src}; run from "
                                "the root of a checkout")
        args.work = HERE / "_work"
        args.refs_dir = args.work / "refs"
        args.src_digest = _src_digest(src)
        env = _env(args.work / "build")
        build_native(env)
        run_dir = args.work / "runs" / (
            f"{args.workload}-seed{args.seed}-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        load_before = os.getloadavg()
        speed_before = host_speed_s()
        try:
            if args.trace:
                metrics, records = per_layer(args, env, run_dir)
            else:
                metrics, records = end_to_end(args, env, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        load_after = os.getloadavg()
        speed_after = host_speed_s()
    except BenchError as exc:
        print(f"[perfbench] {exc}", file=sys.stderr)
        return exc.code

    measured = [r for r in records if "ops" in r]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "host_loop_s": [speed_before, speed_after],
        "python": platform.python_version(),
        "native": measured[-1]["native"],
        "git_rev": _git_rev(root),
        "src_digest": args.src_digest,
        "setup_s_each": [r["setup_s"] for r in records],
        "ops": [r["ops"] for r in measured],
        "latency_samples": [r["latency_samples"] for r in measured],
        "latency_p90_ms": [r["latency_p90_ms"] for r in measured],
        "units": [r["units"] for r in measured],
        "extra": [r.get("extra", {}) for r in measured],
        "absent": measured[-1].get("absent", {}),
    }
    print(json.dumps({"info": info}))
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
