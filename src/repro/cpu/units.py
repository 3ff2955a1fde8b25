"""Execution units and issue-port routing (paper Fig. 6).

Port 0 drives ALU0 (double speed) and the FP-move unit; port 1 drives
ALU1 (double speed) and the FP-execute unit; port 2 the load port; port 3
the store port.  Two properties matter for the paper's analysis and are
modelled exactly:

* **logical ops execute only on ALU0** — the cause of the MM TLP
  serialization (§5.3);
* there is a **single FP-execute unit**, so co-running FP streams from
  two threads contend for it (fig. 2), and the dividers are non-pipelined
  (the fdiv-fdiv 120-140% slowdown).
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.cpu.config import CoreConfig, OpTiming
from repro.isa.opcodes import Op


class ExecUnit:
    """One execution unit with per-op initiation intervals.

    ``try_issue`` implements pipelining: the unit accepts a new µop when
    the previous one's initiation interval has elapsed; a non-pipelined op
    simply has interval == latency.
    """

    __slots__ = ("name", "next_free", "last_tid")

    def __init__(self, name: str):
        self.name = name
        self.next_free = 0
        self.last_tid = -1

    def reset(self) -> None:
        self.next_free = 0
        self.last_tid = -1


#: Which units may execute each opcode, in preference order.
ROUTES: dict[Op, tuple[str, ...]] = {
    Op.NOP: ("alu0", "alu1"),
    Op.IADD: ("alu1", "alu0"),   # prefer ALU1, keep ALU0 free for logicals
    Op.ISUB: ("alu1", "alu0"),
    Op.ILOGIC: ("alu0",),        # ALU0 only (paper §5.3)
    Op.BRANCH: ("alu0",),
    Op.IMUL: ("fpexec",),        # complex int ops use the FP unit on P4
    Op.IDIV: ("fpdiv",),
    Op.FADD: ("fpexec",),
    Op.FSUB: ("fpexec",),
    Op.FMUL: ("fpexec",),
    # The divider sits beside the FP pipe: a divide in flight does not
    # block fadd/fmul issue (the paper's min-ILP fadd x fdiv coexistence),
    # but two divide streams serialize on it (fdiv x fdiv, fig 2a).
    Op.FDIV: ("fpdiv",),
    Op.FMOVE: ("fpmove",),
    Op.ILOAD: ("load",),
    Op.FLOAD: ("load",),
    Op.ISTORE: ("store",),
    Op.FSTORE: ("store",),
    Op.PAUSE: ("alu0", "alu1"),
    Op.HALT: ("alu0", "alu1"),
    Op.PREFETCH: ("load",),
}

UNIT_NAMES = ("alu0", "alu1", "fpexec", "fpdiv", "fpmove", "load", "store")


class UnitPool:
    """All execution units of the physical package (shared by threads)."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.units: dict[str, ExecUnit] = {n: ExecUnit(n) for n in UNIT_NAMES}
        # Pre-resolve op -> (timing, (unit, unit...)) for the hot loop.
        self.dispatch: dict[int, tuple[OpTiming, tuple[ExecUnit, ...]]] = {}
        for op, route in ROUTES.items():
            timing = config.timings.get(op)
            if timing is None:
                raise ConfigError(f"no timing for {op.name}")
            self.dispatch[int(op)] = (
                timing,
                tuple(self.units[name] for name in route),
            )
        # Per-unit issue counters (for utilization analysis / tests).
        self.issue_counts: dict[str, int] = {n: 0 for n in UNIT_NAMES}
        self._switch_penalty = config.unit_switch_penalty

    def try_issue(self, op: int, tick: int, tid: int = 0) -> tuple[bool, int]:
        """Attempt to issue ``op`` at ``tick`` for thread ``tid``.

        Returns ``(issued, completion_tick)``; for loads the returned
        completion tick excludes memory latency (the core adds the
        hierarchy's answer).  On failure the second field is the
        earliest tick a unit of the route frees up: ``op`` cannot issue
        before it (units only ever get busier until then).

        The chosen unit is occupied for the op's initiation interval.
        Switching a *busy* unit between hardware threads costs a
        fraction of that interval (pipeline drain between contexts).  A
        unit that has gone idle since its last op switches for free — so
        sparse latency-bound chains (min-ILP streams) interleave
        perfectly, while back-to-back contention pays.
        """
        timing, route = self.dispatch[op]
        # Prefer a unit this thread used last (avoids the switch drain).
        for unit in route:
            if tick >= unit.next_free and unit.last_tid == tid:
                break
        else:
            earliest = -1
            for unit in route:
                free = unit.next_free
                if tick >= free:
                    break
                if earliest < 0 or free < earliest:
                    earliest = free
            else:
                return False, earliest
        penalty = 0
        if tid != unit.last_tid:
            last = unit.last_tid
            if last >= 0 and tick < unit.next_free + timing.interval:
                penalty = int(timing.interval * self._switch_penalty)
            unit.last_tid = tid
        unit.next_free = tick + timing.interval + penalty
        self.issue_counts[unit.name] += 1
        return True, tick + timing.latency + penalty

    def reset(self) -> None:
        for unit in self.units.values():
            unit.reset()
        for name in self.issue_counts:
            self.issue_counts[name] = 0
