"""Run ``repro serve`` with the span tracer installed (traced run only).

    python3 perfbench/traced_serve.py TRACE_DIR serve --port ... [serve args]

Equivalent to ``python -m repro serve ...`` except that every wrapped
layer records spans, flushed to ``TRACE_DIR/spans-<pid>.json`` when the
server exits.
"""

from __future__ import annotations

import atexit
import runpy
import sys
from pathlib import Path

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer(Path(sys.argv[1]))
    tracer.install()
    atexit.register(tracer.flush)
    sys.argv = ["repro", *sys.argv[2:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
