"""The cell pipeline and the sweep engine.

One pipeline (:class:`CellPipeline`) carries every batch of cells in
both front ends: :class:`SweepEngine` drives it synchronously for the
CLI, the benchmarks and the drivers, and
:class:`repro.serve.scheduler.CellScheduler` drives it inside its
single-flight table for ``repro serve``.  Per batch it runs:

1. **preflight** over every cell (:func:`repro.check.preflight_cells`),
   remembered per pipeline for each cell that passed.  It runs first
   because preflight must see a cell before anything is served for it,
   hits included;
2. **key** and **probe** the content-addressed :class:`ResultCache`;
3. **execute** the misses: in-process when ``jobs == 1``, or across a
   ``multiprocessing`` pool whose ``map`` preserves submission order;
4. the model **oracle** over the fresh results and over every hit the
   oracle has not accepted under the current :func:`oracle_fingerprint`;
5. **publish** (the ``store`` phase) those results, each stamped with
   that fingerprint, only once the oracle accepted them.

``check=False`` skips steps 1 and 4; what it publishes carries no
provenance, so a later checked run re-oracles it before serving it.
Every result, fresh or cached, goes through the same canonical JSON
encoding, so serial, parallel and warm-cache runs of the same sweep
produce byte-identical reports (modulo wall-time fields).

Workers execute :func:`_execute_cell`, a module-level function, so the
only thing pickled per task is the (small, self-contained) cell.

Telemetry (:mod:`repro.telemetry`) rides along as a pure observer:
when the pipeline carries a bus, the parent emits sweep/phase/cache
events and every worker emits per-cell begin/end spans (with the
cell's fastpath counter deltas) to the same JSONL log.  Workers also
return a small metadata record next to each result text; the engine
folds those into :class:`SweepStats` regardless of whether a bus is
attached.  Nothing telemetry-derived may influence results, cache
entries, or non-volatile report bytes; the equivalence suite holds
reports byte-identical with telemetry on vs off.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import CheckError, ConfigError
from repro.cpu import fastpath as _fastpath
from repro.sweep.cache import CacheAdapter, ResultCache
from repro.sweep.cells import SweepCell, cell_label, runner_for
from repro.sweep.keys import canonical_json
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.bus import now as _now

#: The executing side's bus — the parent's during serial execution,
#: a per-process reconstruction in pool workers (set by _pool_init).
_worker_bus: Optional[TelemetryBus] = None


def _pool_init(fastpath_default: bool,
               telemetry_path: Optional[str] = None,
               run_id: Optional[str] = None) -> None:
    """Carry the parent's fast-forward default and telemetry target
    into pool workers.

    Both live in module state, which a ``spawn``-start worker would
    re-import fresh; forwarding them through the initializer makes
    ``--no-fastpath`` and ``--no-telemetry`` govern every execution
    path.  Each worker opens its own ``O_APPEND`` descriptor on the
    shared log — appends are atomic per record, so streams interleave
    without locks.
    """
    from repro.cpu.fastpath import set_default_enabled

    set_default_enabled(fastpath_default)
    global _worker_bus
    _worker_bus = (TelemetryBus(telemetry_path, run_id=run_id)
                   if telemetry_path is not None else None)


def _execute_cell(cell: SweepCell) -> str:
    """Run one cell; return its encoded result as JSON text.

    Returning *text* (not objects) makes the parallel path bit-faithful
    to the cache path: the parent always decodes results from JSON, so
    a fresh run and a warm-cache run reconstruct identical objects.
    """
    runner = runner_for(cell.kind)
    return json.dumps(runner.encode(runner.run(cell)))


def _execute_task(task: Tuple[int, SweepCell, str, float]) -> Tuple[str, dict]:
    """Instrumented wrapper around :func:`_execute_cell`.

    Returns ``(text, meta)``: the result text is byte-identical to what
    the uninstrumented path produces (the cache entry and the decoded
    result are built from it alone), and ``meta`` carries the wall
    span, queue wait, and the cell's fastpath counter delta back to the
    parent — the file-backed collector of the telemetry design.
    """
    idx, cell, label, enqueue_ts = task
    bus = _worker_bus
    t0 = _now()
    queue_wait = max(t0 - enqueue_ts, 0.0)
    if bus is not None:
        bus.emit("cell-begin", idx=idx, cell=label, queue_wait_s=queue_wait)
    fp_stats = _fastpath.reset_stats()
    text = _execute_cell(cell)
    wall = _now() - t0
    fastpath = fp_stats.to_dict()
    if bus is not None:
        bus.emit("cell-end", idx=idx, cell=label, wall_s=wall,
                 fastpath=fastpath)
    meta = {"idx": idx, "cell": label, "pid": os.getpid(), "wall_s": wall,
            "queue_wait_s": queue_wait, "fastpath": fastpath}
    return text, meta


@dataclass
class SweepStats:
    """Cache/parallelism accounting for one engine's sweeps.

    Hit/miss/cell totals count *measurements that stand*: a batch that
    fails preflight is recorded under ``preflight_rejected`` (all its
    cells) and one the model oracle rejects under ``oracle_failed``
    (the cells that oracle pass judged) instead; a rejected cell is not
    a cache outcome, and an oracle-violating batch produced no
    trustworthy results to account hits against.
    """

    cells: int = 0
    hits: int = 0
    misses: int = 0
    jobs: int = 1
    cache_enabled: bool = False
    cache_dir: Optional[str] = None
    preflight_rejected: int = 0
    oracle_failed: int = 0
    #: Elapsed wall per engine phase (volatile; lives inside the
    #: report's "sweep" block, which strip_volatile removes).
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Merged fastpath counter deltas from every simulated cell.
    fastpath: Dict[str, Any] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.cells if self.cells else 0.0

    def to_dict(self) -> dict:
        return {
            "cells": self.cells,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "jobs": self.jobs,
            "cache_enabled": self.cache_enabled,
            "cache_dir": self.cache_dir,
            "preflight_rejected": self.preflight_rejected,
            "oracle_failed": self.oracle_failed,
            "phase_wall_s": {k: self.phase_wall_s[k]
                             for k in sorted(self.phase_wall_s)},
            "fastpath": self.fastpath,
        }

    def describe(self) -> str:
        cache = (f"{self.hits} cache hits, {self.misses} misses "
                 f"({self.hit_rate:.0%} cached)"
                 if self.cache_enabled else "cache off")
        return f"sweep: {self.cells} cells — {cache} (jobs={self.jobs})"


#: Preflight memo bound per pipeline: past it the memo starts over,
#: and a forgotten cell is only preflighted again.
PREFLIGHT_MEMO_MAX = 4096

#: Called with a stats counter name and the number of cells it covers
#: when preflight or the oracle rejects a batch.
RejectHook = Callable[[str, int], None]


@lru_cache(maxsize=None)
def oracle_fingerprint() -> str:
    """Digest of the model oracle's source (bounds, contention, oracle).

    A published entry records the fingerprint it was accepted under;
    editing the model sends every stored entry back through the oracle
    before it is served again.  The files are read, not imported, so a
    batch of proven hits never loads the model.
    """
    model_dir = Path(__file__).resolve().parent.parent / "model"
    digest = hashlib.sha256()
    for name in ("bounds", "contention", "oracle"):
        digest.update((model_dir / f"{name}.py").read_bytes())
    return digest.hexdigest()[:16]


def _preflight_key(cell: SweepCell) -> str:
    """Everything preflight reads of a cell (not its cache key)."""
    return canonical_json({
        "kind": cell.kind,
        "config": cell.config,
        "core": (cell.core_config.to_dict()
                 if cell.core_config is not None else None),
        "mem": (cell.mem_config.to_dict()
                if cell.mem_config is not None else None),
    })


class CellPipeline:
    """preflight, key, probe, execute, oracle, publish: the one path a
    batch of cells takes in either front end.

    Preflight comes ahead of the key and the probe because it must see
    a cell before anything is served for it; the key needs nothing
    preflight computes.

    Safe to share between threads: the preflight memo and the phase
    walls are updated under a lock, and every other step works on the
    caller's batch.
    """

    def __init__(self, cache: Optional[ResultCache], check: bool,
                 bus: Optional[TelemetryBus], on_reject: RejectHook):
        self.store = CacheAdapter(cache)
        self.check = check
        self.bus = bus
        self.on_reject = on_reject
        #: Elapsed wall per phase, summed over every batch.
        self.phase_wall_s: Dict[str, float] = {}
        self._admitted: set = set()
        self._lock = threading.Lock()

    def phase(self, name: str, t0: float) -> None:
        wall = _now() - t0
        with self._lock:
            self.phase_wall_s[name] = (self.phase_wall_s.get(name, 0.0)
                                       + wall)
        if self.bus is not None:
            self.bus.emit("phase", name=name, wall_s=wall)

    def begin(self, cells: Sequence[SweepCell], fresh: bool = False,
              keyed: bool = False,
              ) -> Tuple[List[str], List[str], List[Optional[dict]],
                         List[int]]:
        """Preflight, key and probe one batch.

        Returns ``(keys, labels, payloads, misses)``: the JSON payload
        of every hit (None for a miss) and the indices left to execute.
        A hit without the current oracle provenance is oracled, and
        republished with it, before this returns; a rejection raises.
        Keys are computed when the store is on or ``keyed`` asks.
        ``fresh`` treats every cell as a miss.
        """
        self._preflight(cells)
        n = len(cells)
        keys = ([cell.key() for cell in cells]
                if keyed or self.store.enabled else [""] * n)
        labels = [cell_label(cell) for cell in cells]
        bus = self.bus
        t0 = _now()
        payloads: List[Optional[dict]] = [None] * n
        misses: List[int] = []
        unproven: List[int] = []
        for i, cell in enumerate(cells):
            entry = None if fresh else self.store.probe(cell, keys[i])
            if entry is None:
                misses.append(i)
                if bus is not None:
                    bus.emit("enqueue", idx=i, cell=labels[i])
                continue
            payloads[i] = entry["result"]
            prov = entry.get("provenance")
            if self.check and not (isinstance(prov, dict) and prov.get(
                    "oracle") == oracle_fingerprint()):
                unproven.append(i)
            if bus is not None:
                bus.emit("cache-hit", idx=i, cell=labels[i])
        self.phase("probe", t0)
        if unproven:
            self.settle(cells, keys, unproven, payloads)
        return keys, labels, payloads, misses

    def _preflight(self, cells: Sequence[SweepCell]) -> None:
        t0 = _now()
        todo = ({k: c for c in cells
                 if (k := _preflight_key(c)) not in self._admitted}
                if self.check else {})
        if todo:
            from repro.check.preflight import preflight_cells

            try:
                preflight_cells(list(todo.values()))
            except CheckError as e:
                self.on_reject("preflight_rejected", len(cells))
                if self.bus is not None:
                    # Synthetic terminal event so the live view shows
                    # *why* the batch died: no cell simulated (empty
                    # fastpath delta), idx -1, and the rejecting pass
                    # riding along as extra fields.
                    self.bus.emit("cell-end", idx=-1, cell="preflight",
                                  wall_s=_now() - t0, fastpath={},
                                  rejected=len(cells),
                                  check=e.check or "preflight")
                raise
            with self._lock:
                if len(self._admitted) + len(todo) > PREFLIGHT_MEMO_MAX:
                    self._admitted.clear()
                self._admitted.update(todo)
        self.phase("preflight", t0)

    def make_pool(self, processes: int) -> Any:
        """The one place a worker pool is built.

        Fork keeps the parent's hash seed and registry state in the
        children; fall back to the platform default elsewhere.
        """
        from repro.cpu.fastpath import default_enabled

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        bus = self.bus
        return ctx.Pool(processes=processes, initializer=_pool_init,
                        initargs=(default_enabled(),
                                  bus.path if bus is not None else None,
                                  bus.run_id if bus is not None else None))

    def execute(self, tasks: List[Tuple[int, SweepCell, str, float]],
                jobs: int = 1, pool: Any = None) -> List[Tuple[str, dict]]:
        """Run ``tasks`` on ``pool``, on a pool of up to ``jobs``
        workers built for this call, or serially in-process; outcomes
        come back in submission order."""
        t0 = _now()
        if pool is not None:
            outcomes = pool.map(_execute_task, tasks)
        elif jobs > 1 and len(tasks) > 1:
            with self.make_pool(min(jobs, len(tasks))) as own:
                outcomes = own.map(_execute_task, tasks)
        else:
            # In-process execution: point the worker-side bus at the
            # pipeline's own for the duration.
            global _worker_bus
            prev, _worker_bus = _worker_bus, self.bus
            try:
                outcomes = [_execute_task(t) for t in tasks]
            finally:
                _worker_bus = prev
        self.phase("execute", t0)
        return outcomes

    def settle(self, cells: Sequence[SweepCell], keys: Sequence[str],
               idxs: Sequence[int], payloads: Any) -> None:
        """Oracle ``payloads[i]`` for every ``i`` in ``idxs``, then
        publish each one stamped with :func:`oracle_fingerprint`.

        Nothing is published when the oracle rejects; with checks off,
        entries are published without provenance.
        """
        t0 = _now()
        proven = None
        if self.check and idxs:
            # Differential oracle: every result must sit inside the CPI
            # interval the analytic model proves for its cell.
            from repro.model.oracle import oracle_cells

            try:
                oracle_cells([cells[i] for i in idxs],
                             [runner_for(cells[i].kind).decode(payloads[i])
                              for i in idxs])
            except CheckError:
                self.on_reject("oracle_failed", len(idxs))
                raise
            proven = oracle_fingerprint()
        self.phase("oracle", t0)
        t0 = _now()
        for i in idxs:
            self.store.publish(cells[i], keys[i], payloads[i], proven)
        self.phase("store", t0)


@dataclass
class SweepEngine:
    """Executes cell lists with optional parallelism and memoization.

    ``jobs=1`` with no cache reproduces the pre-engine serial
    behaviour exactly.  One engine instance accumulates stats across
    all its ``run`` calls (a figure may sweep in several batches).
    ``check=False`` skips the preflight and the oracle.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    fresh: bool = False
    check: bool = True
    telemetry: Optional[TelemetryBus] = None
    stats: SweepStats = field(init=False)
    pipeline: CellPipeline = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ConfigError("jobs must be a positive integer")
        self.pipeline = CellPipeline(self.cache, check=self.check,
                                     bus=self.telemetry,
                                     on_reject=self._reject)
        self.stats = SweepStats(
            jobs=self.jobs,
            cache_enabled=self.cache is not None,
            cache_dir=(str(self.cache.root)
                       if self.cache is not None else None),
            phase_wall_s=self.pipeline.phase_wall_s,
        )

    def _reject(self, counter: str, n: int) -> None:
        setattr(self.stats, counter, getattr(self.stats, counter) + n)

    def run(self, cells: Sequence[SweepCell]) -> List[Any]:
        """Execute ``cells``; return their results in submission order.

        With ``check`` on, a cell whose stream recipe or workload
        fingerprint is stale, whose stream fails the hazard/unit passes,
        or whose workload races raises
        :class:`~repro.common.errors.CheckError` before anything is
        simulated or cached, and a result outside its model interval
        raises :class:`~repro.common.errors.ModelViolation` before it
        is cached or returned.
        """
        bus = self.telemetry
        stats = self.stats
        pipeline = self.pipeline
        n = len(cells)
        run_t0 = _now()
        if bus is not None:
            bus.emit("sweep-begin", cells=n, jobs=self.jobs,
                     cache_enabled=self.cache is not None)
        keys, labels, payloads, misses = pipeline.begin(cells, self.fresh)
        t0 = _now()
        outcomes = pipeline.execute([(i, cells[i], labels[i], t0)
                                     for i in misses], jobs=self.jobs)
        for i, (text, meta) in zip(misses, outcomes):
            payloads[i] = json.loads(text)
            _fastpath.merge_stats(stats.fastpath, meta["fastpath"])
        pipeline.settle(cells, keys, misses, payloads)

        # Commit the accounting only for batches whose results stand.
        stats.cells += n
        stats.hits += n - len(misses)
        stats.misses += len(misses)
        if bus is not None:
            bus.emit("sweep-end", cells=n, hits=n - len(misses),
                     misses=len(misses), wall_s=_now() - run_t0)
        return [runner_for(cell.kind).decode(payload)
                for cell, payload in zip(cells, payloads)]
