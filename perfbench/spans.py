"""Spans around the program's public entry points, recorded from outside.

``install(out_dir)`` replaces each entry point listed in ``TARGETS``
with a wrapper that records a span: name, start, end, parent span and
the id of its root span (one id per cell in a worker, per request in
the daemon, per ``SweepEngine.run`` in a sweep parent).  Spans stay in
memory and are appended to ``spans-<pid>.jsonl`` in one write whenever
a root span ends, so forked pool workers, which exit without running
``atexit`` hooks, lose nothing.

``FastPath.on_boundary`` runs on every other simulated tick, so it is
not recorded span by span: its calls and time are summed into the
enclosing span (``agg``), which still subtracts them from that span's
self time.

Nothing here is imported by the program; the wrappers are the only
contact, and they return exactly what they wrap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, attribute, span name, kind).  kind: "fn" module function,
#: "method" class attribute ("Class.method"), "hot" summed method.
TARGETS = (
    ("repro.sweep.engine", "SweepEngine.run", "sweep.run", "method"),
    ("repro.check.preflight", "preflight_cells", "sweep.preflight", "fn"),
    ("repro.sweep.cells", "SweepCell.key", "sweep.key", "method"),
    ("repro.sweep.cache", "ResultCache.get", "sweep.cache_get", "method"),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache_put", "method"),
    ("repro.model.oracle", "oracle_cells", "model.oracle", "fn"),
    ("repro.core.streams", "measure_stream_cpi", "cell.stream", "fn"),
    ("repro.core.coexec", "run_pair_cpis", "cell.pair", "fn"),
    ("repro.core.apps", "run_app_experiment", "cell.app", "fn"),
    ("repro.core.table1", "table1_row", "cell.table1", "fn"),
    ("repro.workloads.matmul", "build", "workloads.build", "fn"),
    ("repro.workloads.lu", "build", "workloads.build", "fn"),
    ("repro.workloads.cg", "build", "workloads.build", "fn"),
    ("repro.workloads.bt", "build", "workloads.build", "fn"),
    ("repro.isa.trace", "compile_stream", "isa.compile", "fn"),
    ("repro.isa.trace", "compile_tiled", "isa.compile", "fn"),
    ("repro.check.recurrence", "certify_tiled", "check.recurrence", "fn"),
    ("repro.check.recurrence", "attach_certificate", "check.recurrence",
     "fn"),
    ("repro.check.compose", "cached_pair_certificate", "check.compose",
     "fn"),
    ("repro.pintool.mix", "instruction_mix", "pintool.mix", "fn"),
    ("repro.runtime.program", "Program.run", "cpu.run", "method"),
    ("repro.cpu.fastpath", "FastPath.prepare", "fastpath.prepare",
     "method"),
    ("repro.cpu.fastpath", "FastPath.on_boundary", "fastpath.on_boundary",
     "hot"),
    ("repro.serve.scheduler", "CellScheduler.fetch", "serve.fetch",
     "method"),
    ("repro.serve.store", "CacheAdapter.probe", "serve.probe", "method"),
    ("repro.serve.store", "CacheAdapter.publish", "serve.publish",
     "method"),
)

_clock = time.perf_counter


def _program_counters(result: Any) -> Dict[str, int]:
    """Simulated statistics of one ``Program.run`` (its CoreResult)."""
    from repro.perfmon import Event

    mon = result.monitor
    return {"uops": sum(result.retired), "ticks": result.ticks,
            "l2_misses": mon.read(Event.L2_READ_MISS),
            "stall_cycles": mon.read(Event.RESOURCE_STALL_SB)}


class Recorder:
    """Per-process span buffer; survives ``fork`` by starting afresh."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.local = threading.local()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        from repro.check.recurrence import scan_counters

        self.pid = os.getpid()
        self.lock = threading.Lock()
        # Only the forking thread survives a fork; its open spans belong
        # to the parent process.
        self.local.stack = []
        self.buffer: List[dict] = []
        self.seq = 0
        # A forked worker inherits its parent's counters; only what
        # happens after this point belongs to this process.
        self.scan_base = scan_counters()

    def _stack(self) -> List[dict]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def span(self, name: str, fn: Callable,
             attrs: Optional[Callable[[Any], dict]] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self.lock:
                self.seq += 1
                sid = f"{self.pid}-{self.seq}"
            rec = {"id": sid, "name": name, "pid": self.pid,
                   "parent": parent["id"] if parent else None,
                   "trace": parent["trace"] if parent else sid,
                   "agg": {}}
            stack.append(rec)
            rec["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"] = attrs(result)
                return result
            finally:
                rec["end"] = _clock()
                stack.pop()
                with self.lock:
                    self.buffer.append(rec)
                if not stack:
                    self.flush()

        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        local = self.local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack = getattr(local, "stack", None)
                if stack:
                    agg = stack[-1]["agg"]
                    acc = agg.get(name)
                    if acc is None:
                        agg[name] = [1, dt]
                    else:
                        acc[0] += 1
                        acc[1] += dt

        return wrapper

    def flush(self) -> None:
        from repro.check.recurrence import scan_counters

        with self.lock:
            spans, self.buffer = self.buffer, []
        now = scan_counters()
        counters = {k: now[k] - self.scan_base.get(k, 0) for k in now}
        lines = [json.dumps(s, separators=(",", ":")) for s in spans]
        lines.append(json.dumps({"counters": counters, "pid": self.pid}))
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, ("\n".join(lines) + "\n").encode())
        finally:
            os.close(fd)


def _rebind(original: Any, replacement: Any, attr: str) -> None:
    """Point every loaded ``repro`` module's binding of ``original``
    (its home module and any ``from ... import``) at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, replacement)


def install(out_dir: str) -> Recorder:
    """Wrap every entry point in ``TARGETS``; returns the recorder."""
    os.makedirs(out_dir, exist_ok=True)
    import repro.core.coexec  # noqa: F401 - load every binding site
    import repro.serve.app  # noqa: F401
    import repro.sweep  # noqa: F401

    rec = Recorder(out_dir)
    for module, attr, name, kind in TARGETS:
        mod = importlib.import_module(module)
        if kind == "fn":
            original = getattr(mod, attr)
            _rebind(original, rec.span(name, original), attr)
            continue
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = getattr(cls, meth)
        if kind == "hot":
            setattr(cls, meth, rec.hot(name, original))
        elif name == "cpu.run":
            setattr(cls, meth, rec.span(name, original, _program_counters))
        else:
            setattr(cls, meth, rec.span(name, original))
    return rec


# -- analysis --------------------------------------------------------------

def load(out_dir: str) -> tuple:
    """All spans written under ``out_dir`` plus per-process counters."""
    spans: List[dict] = []
    counters: Dict[int, dict] = {}
    for fname in sorted(os.listdir(out_dir)):
        if not (fname.startswith("spans-") and fname.endswith(".jsonl")):
            continue
        with open(os.path.join(out_dir, fname)) as fp:
            for line in fp:
                rec = json.loads(line)
                if "counters" in rec:
                    counters[rec["pid"]] = rec["counters"]
                else:
                    spans.append(rec)
    return spans, counters


def expand(spans: List[dict]) -> List[dict]:
    """Spans plus one synthetic leaf per summed (``agg``) entry."""
    out = list(spans)
    for s in spans:
        for name, (calls, total) in s.get("agg", {}).items():
            out.append({"id": f"{s['id']}/{name}", "name": name,
                        "pid": s["pid"], "parent": s["id"],
                        "trace": s["trace"], "start": s["start"],
                        "end": s["start"] + total, "calls": calls,
                        "agg": {}})
    return out


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run inside their parent on the same thread, so they never
    overlap each other; the clamp only absorbs clock rounding.
    """
    child_time: Dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    return {s["id"]: max(0.0, (s["end"] - s["start"])
                         - child_time.get(s["id"], 0.0)) for s in spans}


def inclusive(spans: List[dict], prefix: str) -> float:
    """Time spent inside spans named ``prefix``*, counting nested ones
    once (only spans with no same-prefix ancestor contribute)."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        p = by_id.get(s["parent"])
        while p is not None and not p["name"].startswith(prefix):
            p = by_id.get(p["parent"])
        if p is None:
            total += s["end"] - s["start"]
    return total


def layer_table(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: calls, summed duration and summed self time."""
    selfs = self_times(spans)
    table: Dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        row["calls"] += s.get("calls", 1)
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return table
