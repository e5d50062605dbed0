"""No correctness path reads the wall clock.

Reports, results and cache keys are pure functions of their inputs, and
the recovery paths (cache quarantine, checkpoint resume, retries) judge
state by content, never by age.  The wall clock may only stamp what an
operator reads: the service's job records and uptime.  Durations use
``time.monotonic()``/``time.perf_counter()``, which this test allows.

The scan is static (AST), so it also covers code no test executes.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: Subpackages allowed to read the wall clock (job timestamps, uptime).
ALLOWED = ("service",)
#: ``time`` functions that read the wall clock.
WALL_CLOCK = {"time", "time_ns"}
#: File-metadata fields that carry wall-clock timestamps.
STAT_TIMES = {"st_mtime", "st_mtime_ns"}


def _wall_clock_reads(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK:
                    found.append((node.lineno, f"from time import {alias.name}"))
        elif isinstance(node, ast.Attribute):
            if node.attr in STAT_TIMES:
                found.append((node.lineno, f".{node.attr}"))
            elif (
                node.attr in WALL_CLOCK
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ):
                found.append((node.lineno, f"time.{node.attr}"))
    return sorted(found)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in ALLOWED:
            continue
        yield rel, path


def test_scan_covers_the_package():
    names = {str(rel) for rel, _ in _modules()}
    assert "harness/campaign.py" in names
    assert "harness/cache.py" in names
    assert not any(name.startswith("service/") for name in names)


def test_scan_flags_every_spelling():
    source = (
        "import time\n"
        "from time import time_ns\n"
        "a = time.time()\n"
        "b = path.stat().st_mtime\n"
        "c = time.monotonic()\n"
    )
    found = _wall_clock_reads(ast.parse(source))
    assert [line for line, _ in found] == [2, 3, 4]


def test_no_wall_clock_outside_the_service():
    offenders = [
        f"{rel}:{line}: {what}"
        for rel, path in _modules()
        for line, what in _wall_clock_reads(ast.parse(path.read_text()))
    ]
    assert offenders == [], "wall-clock reads outside repro.service:\n" + (
        "\n".join(offenders)
    )
