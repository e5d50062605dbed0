"""Functional-unit pools (Table 1).

Each pool models *n* identical units with an operation latency and an issue
interval (how long one operation occupies the unit before the next can
start; 1 = fully pipelined).  Reservation is greedy: an operation takes the
unit that frees earliest, starting no earlier than its operands are ready.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import (
    OP_BRANCH,
    OP_FP_ALU,
    OP_FP_MUL,
    OP_INT_ALU,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
)


@dataclass(frozen=True)
class FUSpec:
    """One pool: unit count, result latency, issue interval."""

    count: int
    latency: int
    interval: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0 or self.latency <= 0 or self.interval <= 0:
            raise ValueError("functional-unit parameters must be positive")


#: SimpleScalar-flavoured defaults for the Table 1 machine.
DEFAULT_SPECS: dict[str, FUSpec] = {
    "int_alu": FUSpec(count=4, latency=1),
    "int_mul": FUSpec(count=1, latency=3, interval=1),
    "fp_alu": FUSpec(count=4, latency=2),
    "fp_mul": FUSpec(count=1, latency=4, interval=1),
    # Cache ports for loads/stores (address generation + access issue).
    "mem_port": FUSpec(count=2, latency=1),
}

_OP_TO_POOL = {
    OP_INT_ALU: "int_alu",
    OP_INT_MUL: "int_mul",
    OP_FP_ALU: "fp_alu",
    OP_FP_MUL: "fp_mul",
    OP_LOAD: "mem_port",
    OP_STORE: "mem_port",
    OP_BRANCH: "int_alu",  # branches resolve on an integer ALU
}


class _Pool:
    __slots__ = ("spec", "free_at")

    def __init__(self, spec: FUSpec):
        self.spec = spec
        self.free_at = [0] * spec.count


class FunctionalUnits:
    """All pools of the machine, addressed by operation class."""

    def __init__(self, specs: dict[str, FUSpec] | None = None):
        self.specs = dict(DEFAULT_SPECS)
        if specs:
            self.specs.update(specs)
        self._pools = {name: _Pool(spec) for name, spec in self.specs.items()}
        # op -> (shared free_at list, latency, interval): one lookup per
        # issue on the per-instruction hot path.  Pools shared by several
        # ops (mem_port, int_alu) share the same free_at list object.
        self._by_op: dict[int, tuple[list[int], int, int]] = {
            op: (
                self._pools[name].free_at,
                self._pools[name].spec.latency,
                self._pools[name].spec.interval,
            )
            for op, name in _OP_TO_POOL.items()
        }

    def issue(self, op: int, ready: int) -> tuple[int, int]:
        """Reserve the right pool for *op*; returns (start, unit latency)."""
        free, latency, interval = self._by_op[op]
        best = 0
        best_time = free[0]
        for i in range(1, len(free)):
            t = free[i]
            if t < best_time:
                best_time = t
                best = i
        start = ready if ready >= best_time else best_time
        free[best] = start + interval
        return start, latency
