"""Exactness golden for non-default machine configs.

The default-config goldens never reach several edges of the step
kernel: a scheduler window smaller than a thread's ROB half, shared
(unpartitioned) queues, single-wide issue/fetch/allocate, and a
zero-latency op whose same-tick completion wakes a younger µop within
one issue scan.  Each case here is a short solo, pair or synchronising
app run on one such config; the fixture pins its tick count, retired
µops, every raw perfmon counter and the per-unit issue counts.

Every case runs twice — fully stepped and with the fast-forward on —
and both must reproduce the pinned numbers exactly.  Regenerate with
``pytest tests/golden/test_config_golden.py --update-golden`` only when
a simulator change is meant to move them.
"""

from __future__ import annotations

import pytest

from repro.core.streams import _VECTOR_BYTES, measured_stream_factory
from repro.cpu.config import CoreConfig, OpTiming
from repro.isa.opcodes import Op
from repro.isa.streams import ILP, StreamSpec
from repro.mem.config import MemConfig
from repro.observe.accountant import CycleAccountant
from repro.perfmon import Event
from repro.runtime.program import Program
from repro.workloads import WORKLOADS
from repro.workloads.common import Variant

HORIZON = 12_000


def _config(name: str) -> CoreConfig:
    if name == "window8":
        return CoreConfig(sched_window=8)
    if name == "window16":
        return CoreConfig(sched_window=16)
    if name == "unified":
        return CoreConfig.unified_queues()
    if name == "issue1":
        return CoreConfig(issue_width=1)
    if name == "narrow-front":
        return CoreConfig(fetch_width=1, alloc_width=1)
    if name == "iadd0":
        cfg = CoreConfig()
        cfg.timings[Op.IADD] = OpTiming(0, 1)
        return cfg
    raise KeyError(name)


#: (case id, config name, workload).  A workload is either a tuple of
#: (stream, ILP) per thread, run to HORIZON, or an (app, variant, size)
#: triple run to completion.
CASES = [
    ("window8-pair-fadd-iload", "window8",
     (("fadd", ILP.MAX), ("iload", ILP.MAX))),
    ("window8-app-mm-serial", "window8", ("mm", Variant.SERIAL, {"n": 16})),
    ("window16-app-mm-tlp-coarse", "window16",
     ("mm", Variant.TLP_COARSE, {"n": 16})),
    ("unified-pair-istore-iadd", "unified",
     (("istore", ILP.MAX), ("iadd", ILP.MAX))),
    ("unified-app-lu-tlp-pfetch", "unified",
     ("lu", Variant.TLP_PFETCH, {"n": 16})),
    ("issue1-pair-fadd-iadd", "issue1",
     (("fadd", ILP.MAX), ("iadd", ILP.MED))),
    ("narrow-front-solo-iload", "narrow-front", (("iload", ILP.MAX),)),
    ("narrow-front-pair-fmul-fstore", "narrow-front",
     (("fmul", ILP.MED), ("fstore", ILP.MAX))),
    ("iadd0-solo-iadd-min", "iadd0", (("iadd", ILP.MIN),)),
    ("iadd0-pair-iadd-ilogic", "iadd0",
     (("iadd", ILP.MIN), ("ilogic", ILP.MED))),
]


def _run(config_name: str, workload, fastpath: bool) -> dict:
    cfg = _config(config_name)
    acct = CycleAccountant(cfg.num_threads)
    if isinstance(workload[0], str):
        app, variant, size = workload
        mem = MemConfig()
        build = WORKLOADS[app].build(variant, mem_config=mem, **size)
        prog = Program(cfg, mem, aspace=build.aspace, accountant=acct,
                       fastpath=fastpath)
        for factory in build.factories:
            prog.add_thread(factory)
        result = prog.run()
    else:
        prog = Program(cfg, accountant=acct, fastpath=fastpath)
        marks: dict = {}
        for tid, (name, ilp) in enumerate(workload):
            spec = StreamSpec(name, ilp=ilp, count=1 << 30)
            region = None
            if spec.is_memory:
                region = prog.aspace.alloc(f"vec{tid}", _VECTOR_BYTES,
                                           elem_size=1)
            prog.add_thread(
                measured_stream_factory(spec, region, prog, tid, marks))
        result = prog.run(stop_at_tick=HORIZON)
    assert acct.check_conservation()
    return {
        "ticks": result.ticks,
        "retired": list(result.retired),
        "instrs": list(result.instrs),
        "done_ticks": list(result.done_ticks),
        "raw": {ev.name: list(result.monitor.raw[ev]) for ev in Event},
        "unit_issue_counts": dict(sorted(result.unit_issue_counts.items())),
        "accountant": acct.to_dict(),
    }


@pytest.fixture(scope="module")
def stepped():
    return {cid: _run(cfg, wl, fastpath=False) for cid, cfg, wl in CASES}


def test_pinned_fixture(stepped, golden_check):
    golden_check("config_edges", stepped)


@pytest.mark.parametrize("cid,cfg,wl", CASES, ids=[c[0] for c in CASES])
def test_fastpath_matches_stepping(stepped, cid, cfg, wl):
    assert _run(cfg, wl, fastpath=True) == stepped[cid]
