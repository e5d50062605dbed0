"""The optional native phase-2 kernel and its pure-Python twin agree.

``repro.core._native`` compiles the batched engine's scoreboard loop to
C when a compiler is around and silently falls back to the Python loop
otherwise; both paths must produce the same cycle count to the bit.
These tests force each path in turn and compare against the object
reference, so CI covers whichever path the build machine happens to
exercise plus the one it doesn't.
"""

from array import array

import numpy as np
import pytest

from repro.core import _native, array_kernel
from repro.core.array_kernel import backend_mode
from repro.core.config import VictimPolicy
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

#: Timing-coupled specs: phase 2 runs in lockstep with phase 1.
LOCKSTEP = {
    "decay": (
        "ICR-P-PS(S)",
        {
            "scheme_kwargs": {
                "decay_window": 1000,
                "victim_policy": VictimPolicy.DEAD_FIRST,
            }
        },
    ),
    "write-through": ("BaseP-WT", {}),
    "faults": ("ICR-ECC-PS(S)", {"error_rate": 1e-2, "error_seed": 5}),
}


def _result(backend):
    spec = ExperimentSpec(
        "gzip", "ICR-P-PS(LS)", n_instructions=10_000, backend=backend
    )
    return run_experiment(spec).to_dict()


def _lockstep(name):
    scheme, extra = LOCKSTEP[name]
    spec = ExperimentSpec(
        "gzip", scheme, n_instructions=10_000, backend="array", **extra
    )
    assert backend_mode(spec) == "array-batched"
    return spec


def test_python_fallback_bit_identical(monkeypatch):
    """With the native kernel disabled, the Python loop must match."""
    monkeypatch.setattr(_native, "phase2_cycles", lambda *a, **k: None)
    assert _result("array") == _result("object")


def test_native_path_bit_identical_when_available():
    """Whatever path is live on this machine matches the reference."""
    assert _result("array") == _result("object")


def test_repro_native_env_gate(monkeypatch):
    """REPRO_NATIVE=0 turns the native kernel off entirely."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(_native, "_STATE", [])
    assert not _native.available()
    assert (
        _native.phase2_cycles(
            0, b"", b"", b"", b"", None, None, b"", 4, 3, 64, 32,
            None, None, None, 0,
        )
        is None
    )


@pytest.mark.parametrize("name", sorted(LOCKSTEP))
def test_python_twin_lockstep_bit_identical(monkeypatch, name):
    """With native unavailable, the lockstep stamps come from the twin."""
    spec = _lockstep(name)
    native = run_experiment(spec).to_dict()
    twins = []

    def counted(*args):
        twins.append(args)
        return twin(*args)

    twin = array_kernel._phase2_python
    monkeypatch.setattr(_native, "_STATE", [None])
    monkeypatch.setattr(array_kernel, "_phase2_python", counted)
    fallback = run_experiment(spec).to_dict()
    assert len(twins) == 1  # the lockstep entry, built before phase 1
    assert fallback == native
    assert fallback == run_experiment(spec.replace(backend="object")).to_dict()


def test_scoreboard_rejects_short_columns():
    """The C kernel walks n entries of every column; shorter ones are refused."""
    if not _native.available():
        pytest.skip("native kernel unavailable")
    pools = (np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.int64))

    def build(ops, fetch_lat):
        return _native.scoreboard(
            2, ops, b"\0\0", b"\0\0", b"\0\0", fetch_lat, array("q", [1, 1]),
            b"\0\0", 4, 3, 16, 8, pools[0], pools[1], pools[1], 1,
        )

    assert build(b"\1\1", array("q", [1, 1]))(2) == 2
    with pytest.raises(ValueError):
        build(b"\1", array("q", [1, 1]))
    with pytest.raises(ValueError):
        build(b"\1\1", array("q", [1]))
