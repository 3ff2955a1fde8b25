"""The repository's benchmark: shipped sweeps and the serve daemon.

    python3 perfbench/run.py --workload {streams,apps,serve} --seed N \\
        --seconds S --trace {0,1} [--reference PATH]

Workloads (why each was chosen is in METRICS.md):

* ``streams`` — all 30 figure-1 cells plus a stratified sample of
  figure-2 pairs through the sweep engine;
* ``apps`` — every paper variant of mm/lu/cg/bt at seeded reduced sizes,
  their Table 1 rows, and one cg serial cell the tile tier jumps on;
* ``serve`` — a ``repro serve --jobs 1`` daemon under an open-loop
  mix of warm reads and cold submissions.

Every sweep pass runs in a fresh interpreter on the shipped default
path: preflight and oracle on, fast-forward on, telemetry into a
scratch directory, an empty cache, ``jobs`` = nproc.  Each cell result
(and each served payload) is checked against ``reference.json``, made
with the fast-forward off; a mismatch, exception, non-2xx answer or
timeout is a failed operation and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with spans recorded around each
layer's entry points (spans.py) and prints the per-layer metrics,
including the tracing overhead.  Timed metrics are in reference-host
units (see CAL_REF_S); wall figures are printed beside them.  Output:
human-readable lines, a ``report`` JSON line (host record, input
digest, sample counts, wall figures, per-step figures), and last the
result JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# The serve workload builds cell configs with the checkout's own code.
sys.path.insert(1, os.path.join(ROOT, "src"))

import inputs as _inputs  # noqa: E402
import reference as _reference  # noqa: E402
import serve_load as _sl  # noqa: E402
import spans as _spans  # noqa: E402
from inputs import percentile  # noqa: E402

WORKLOADS = ("streams", "apps", "serve")
SWEEP_TIMEOUT_S = 170.0
#: Cold passes per sweep run.  A streams pass is ~15 s whose wall a few
#: long cells set, so it jitters with the host; two per run halve that.
#: An apps pass is ~20 s of many similar cells and steadier, and a
#: second one would push a run past the time budget on a slow host.
COLD_PASSES = {"streams": 2, "apps": 1}
MIN_WARM_REPLAYS = 2
#: Warm replays of the serve catalogue per daemon launch (the median
#: over all launches is reported).
SERVE_WARM_REPLAYS = 5
#: Open-loop length of the serve session inside a traced streams run.
SERVE_TRACE_SECONDS = 12.0
#: Daemon launches per serve run, each on a fresh cache with a cold
#: catalogue pass (medians reported); the last one serves the open loop.
SERVE_LAUNCHES = 3

#: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s", "sweep_s": "s", "warm_replay_s": "s",
    "peak_rss_mb": "MB", "warm_p50_ms": "ms", "warm_p99_ms": "ms",
    "cold_p50_ms": "ms", "cold_p90_ms": "ms", "max_rate_rps": "1/s",
}
#: Printed with the others but left out of the result line and of
#: BENCHMARK.json: the median cell falls between cost clusters (cheap
#: fig.-1 cells or Table 1 rows below it, costlier cells above), so
#: which one it lands in moved it by 20-25% between runs.
UNBOUNDED = ("cold_p50_ms",)
PER_LAYER = {
    "sweep.preflight_s": "s", "sweep.key_s": "s", "sweep.probe_s": "s",
    "sweep.store_s": "s", "sweep.oracle_s": "s", "sweep.execute_s": "s",
    "sweep.cell_max_s": "s", "sweep.worker_busy_frac": "fraction",
    "sweep.queue_wait_s": "s",
    "check.recurrence_s": "s", "check.recurrence.scans": "count",
    "check.recurrence.memo_hits": "count", "check.compose_s": "s",
    "workloads.build_s": "s", "isa.compile_s": "s", "pintool.mix_s": "s",
    "cpu.run_s": "s", "cpu.ticks_stepped": "count",
    "cpu.us_per_stepped_tick": "us",
    "fastpath.self_s": "s", "fastpath.coverage": "fraction",
    "fastpath.jumps": "count", "fastpath.captures": "count",
    "fastpath.jump_yield": "fraction", "fastpath.stand_downs": "count",
    "fastpath.capture_aborts": "count", "fastpath.cert_jumps": "count",
    "fastpath.pair_cert_jumps": "count",
    "cpu.uops_retired": "count", "mem.l2_misses": "count",
    "mem.stall_cycles": "count",
    "serve.batch_p50_ms": "ms", "serve.http_p50_ms": "ms",
    "serve.warm_hits": "count", "serve.misses": "count",
    "serve.coalesced": "count", "serve.simulations": "count",
    "serve.pool_dispatches": "count", "serve.errors": "count",
    "serve.coalesce_ratio": "fraction", "serve.join_p50_ms": "ms",
    "load.lag_p99_ms": "ms", "load.offered_rps": "1/s",
    "load.completed_rps": "1/s",
    "telemetry.events": "count", "telemetry.bytes": "bytes",
    "trace.overhead_sweep_s": "s", "trace.overhead_warm_p50_ms": "ms",
}


#: The host-speed probe (calibrate()) runs CAL_ITERATIONS loop turns,
#: PROBE_REPEATS times before and after every pass, while none of the
#: benchmark's children runs.  The host this benchmark was defined on
#: shares its CPUs with other tenants and its speed drifts by up to
#: 1.8x within minutes, so every timed metric is reported in
#: reference-host units: wall time scaled by CAL_REF_S / (the run's
#: median probe time per million turns).  One factor per run: a single
#: probe is too short to scale one pass by.  The raw wall figures are
#: printed beside them.
CAL_REF_S = 0.1
CAL_ITERATIONS = 200_000
PROBE_REPEATS = 3
#: Units of timed figures (multiplied by the speed factor; "1/s" divided).
_TIME_UNITS = ("s", "ms", "us")


class InvalidRun(Exception):
    """The measurement itself is unusable (not a program failure)."""


# -- host record ------------------------------------------------------------

def calibrate() -> float:
    """Seconds per million iterations of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * (1_000_000 / CAL_ITERATIONS)


def host_record(probes: List[float]) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count() or 1, "cpu_model": model,
            "python": platform.python_version(),
            "calibration_s": statistics.median(probes),
            "calibration_samples": len(probes)}


# -- the run context --------------------------------------------------------

class Run:
    """One invocation: scratch space, child environment, output check."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 reference_path: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.jobs = os.cpu_count() or 1
        self.work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["REPRO_TELEMETRY"] = "1"
        self.ref = _reference.load(reference_path)
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: Dict[str, int] = {}
        self.report: Dict[str, Any] = {}
        self.probes: List[float] = []
        self._n = 0

    def scaled(self, wall: Dict[str, float], units: Dict[str, str]
               ) -> tuple:
        """(figures in reference-host units, ``wall``), scaled by the
        run's median host speed."""
        speed = CAL_REF_S / statistics.median(self.probes)
        return {k: _scale(v, units[k], speed) for k, v in wall.items()}, wall

    def probe(self) -> None:
        """Sample the host's speed (call while no child is running)."""
        self.probes.extend(calibrate() for _ in range(PROBE_REPEATS))

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{self._n:03d}-{name}")

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def check_cell(self, kind: str, config: dict, fp: dict,
                   reference_ok: Optional[bool] = None) -> None:
        self.attempted += 1
        why = _reference.check(self.ref, kind, config, fp, reference_ok)
        if why is not None:
            self.fail(why)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _scale(value: float, unit: str, speed: float) -> float:
    """``value`` in reference-host units, given the host's ``speed``
    (reference-host seconds per wall second); memory and counts are
    returned as measured."""
    if unit in _TIME_UNITS:
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def _median(name: str, run: Run, values: List[float]) -> float:
    run.samples[name] = len(values)
    return statistics.median(values)


# -- sweeps -----------------------------------------------------------------

def launch_sweep(run: Run, inputs: dict, cache_dir: str, tel_dir: str,
                 trace_dir: Optional[str] = None) -> dict:
    """One sweep pass in a fresh interpreter; returns its OUT record
    plus ``setup_s`` (launch until ready) and ``rss_mb``."""
    spec_path, out_path = run.path("spec.json"), run.path("out.json")
    with open(spec_path, "w") as fp:
        json.dump({"root": ROOT, "workload": run.workload,
                   "inputs": inputs, "cache_dir": cache_dir,
                   "telemetry_dir": tel_dir, "jobs": run.jobs,
                   "trace_dir": trace_dir}, fp)
    log_path = run.path("child.log")
    run.probe()
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sweep_child.py"),
             spec_path, out_path], cwd=ROOT, env=run.env,
            stdout=log, stderr=log)
        code, rss = _sl.wait_child(proc, SWEEP_TIMEOUT_S)
    run.probe()
    if code != 0:
        with open(log_path, errors="replace") as fp:
            tail = fp.read()[-2000:]
        raise RuntimeError(f"sweep pass exited {code}:\n{tail}")
    with open(out_path) as fp:
        out = json.load(fp)
    out["setup_s"] = out["ready"] - t0
    out["rss_mb"] = rss
    return out


def read_events(path: str) -> List[dict]:
    with open(path) as fp:
        return [json.loads(line) for line in fp if line.strip()]


def cold_latencies_ms(events: List[dict]) -> List[float]:
    """Per simulated cell: its simulate wall (worker-side cell span).
    A sweep hands the engine every cell at once, so time from enqueue
    would measure the pool's packing order rather than the cell."""
    return [e["wall_s"] * 1e3 for e in events
            if e["ev"] == "cell-end" and e["idx"] >= 0]


def warm_latencies_ms(events: List[dict]) -> List[float]:
    """Per cache-answered cell: from its batch's start (when it was
    due) until the engine had its answer."""
    begin, out = None, []
    for e in events:
        if e["ev"] == "sweep-begin":
            begin = e["ts"]
        elif e["ev"] == "cache-hit" and begin is not None:
            out.append((e["ts"] - begin) * 1e3)
    return out


def sweep_cycle(run: Run, inputs: dict, warm_seconds: float,
                trace_dir: Optional[str] = None) -> dict:
    """A cold pass on an empty cache, then warm replays of the same
    cells (each in another fresh interpreter, against the cache the
    cold pass filled) until ``warm_seconds`` have passed, at least
    MIN_WARM_REPLAYS of them.  Warm figures are medians over replays."""
    cache, tel = run.path("cache"), run.path("telemetry")
    cold = launch_sweep(run, inputs, cache, tel, trace_dir)
    warms: List[dict] = []
    t0 = time.monotonic()
    while (len(warms) < MIN_WARM_REPLAYS
           or time.monotonic() - t0 < warm_seconds):
        warms.append(launch_sweep(run, inputs, cache, tel, trace_dir))
    for out in [cold] + warms:
        for c in out["cells"]:
            run.check_cell(c["kind"], c["config"], c["fingerprint"],
                           c["reference_ok"])
    for out in warms:
        if out["stats"]["cache_misses"]:
            run.fail(f"warm replay missed {out['stats']['cache_misses']} "
                     f"cells")
    cold_ms = cold_latencies_ms(read_events(cold["telemetry_log"]))
    warm_ms = [warm_latencies_ms(read_events(w["telemetry_log"]))
               for w in warms]
    wall = {"setup_s": [o["setup_s"] for o in [cold] + warms],
            "peak_rss_mb": [max(o["rss_mb"] for o in [cold] + warms)],
            "sweep_s": [cold["sweep_s"]],
            "warm_replay_s": [w["sweep_s"] for w in warms],
            "cold_p50_ms": [percentile(cold_ms, 50)],
            "cold_p90_ms": [percentile(cold_ms, 90)],
            "warm_p50_ms": [percentile(ms, 50) for ms in warm_ms],
            "warm_p99_ms": [percentile(ms, 99) for ms in warm_ms],
            "max_rate_rps": [len(w["cells"]) / w["sweep_s"] for w in warms]}
    return {"cold": cold, "warms": warms, "wall": wall,
            "n_cold": len(cold_ms), "n_warm": len(warm_ms[0])}


def run_sweeps(run: Run, inputs: dict, trace: bool) -> tuple:
    """COLD_PASSES cold passes, each followed by warm replays; the warm
    replays share half of ``--seconds``.  Each metric is the median
    over cold passes or over warm replays.  Returns (reference-host
    figures, wall figures)."""
    if trace:
        plain = sweep_cycle(run, inputs, 0.0)
        trace_dir = run.path("spans")
        traced = sweep_cycle(run, inputs, 0.0, trace_dir)
        serve = None
        if run.workload == "streams":
            # The daemon's layers are measured here too: the serve
            # workload is not in BENCHMARK.json (its latencies are not
            # steady enough on a shared 2-vCPU host to gate on).
            serve = serve_session(
                run, _inputs.serve_inputs(run.seed, SERVE_TRACE_SECONDS),
                run.path("serve-spans"))
            run.report["serve_layers"] = _layer_table(serve["trace_dir"])
        return run.scaled(layer_metrics(
            run, trace_dir,
            [o["telemetry_log"] for o in [traced["cold"]] + traced["warms"]],
            jobs=run.jobs,
            overhead_sweep_s=(traced["wall"]["sweep_s"][0]
                              - plain["wall"]["sweep_s"][0]),
            overhead_warm_ms=(statistics.median(traced["wall"]["warm_p50_ms"])
                              - statistics.median(
                                  plain["wall"]["warm_p50_ms"])),
            serve=serve), PER_LAYER)
    passes = COLD_PASSES[run.workload]
    cycles = [sweep_cycle(run, inputs, run.seconds / 2 / passes)
              for _ in range(passes)]
    run.report["latency_samples_per_pass"] = {"cold": cycles[0]["n_cold"],
                                              "warm": cycles[0]["n_warm"]}
    return run.scaled({name: _median(name, run, [v for c in cycles
                                                 for v in c["wall"][name]])
                       for name in END_TO_END}, END_TO_END)


# -- serve ------------------------------------------------------------------

def _served(run: Run, specs: List[dict], status: int, body: bytes,
            what: str) -> None:
    """Check one /cells answer against the reference."""
    if not 200 <= status < 300:
        run.attempted += 1
        run.fail(f"{what}: HTTP {status}: {body[:200]!r}")
        return
    for spec, payload in zip(specs, json.loads(body)["results"]):
        run.check_cell(spec["kind"], spec["config"],
                       _reference.fingerprint(payload))


def serve_session(run: Run, inputs: dict,
                  trace_dir: Optional[str] = None) -> dict:
    """Launch, warm the catalogue, replay it, then the open loop."""
    catalogue = [_cell_spec(s) for s in inputs["catalogue"]]
    novel = [_cell_spec(s) for s in inputs["novel"]]
    body = json.dumps({"cells": catalogue}).encode()
    setups, colds, replays = [], [], []
    for k in range(SERVE_LAUNCHES):
        last = k == SERVE_LAUNCHES - 1
        d = _sl.Daemon(ROOT, run.path("daemon"), run.env,
                       trace_dir if last else None)
        run.probe()
        setups.append(d.start())
        try:
            t0 = time.monotonic()
            status, raw = _sl.http(d.host, d.port, "POST", "/cells", body)
            colds.append(time.monotonic() - t0)
            _served(run, catalogue, status, raw, "catalogue")
            for _ in range(SERVE_WARM_REPLAYS):
                t0 = time.monotonic()
                status, raw = _sl.http(d.host, d.port, "POST", "/cells",
                                       body)
                replays.append(time.monotonic() - t0)
                _served(run, catalogue, status, raw, "warm replay")
        finally:
            if not last:
                d.stop()
        run.probe()
    try:
        manifest_path = ("/manifest?target=fig1&streams="
                         + ",".join(inputs["manifest_streams"]))
        status, manifest = _sl.http(d.host, d.port, "GET", manifest_path)
        run.attempted += 1
        if status != 200:
            run.fail(f"manifest: HTTP {status}")

        reads, submits = [], []
        for r in inputs["reads"]:
            if r["op"] == "manifest":
                req = _sl.request("GET", manifest_path, b"")
            else:
                pool = catalogue if r["op"] == "read" else novel
                req = _sl.cells_request([pool[r["cell"]]])
            reads.append(dict(r, request=req))
        for s in inputs["submits"]:
            submits.append(dict(s, op="submit", step=None,
                                request=_sl.cells_request([novel[s["cell"]]])))
        before = d.stats()
        run.probe()
        records = _sl.open_loop(d.host, d.port, reads, submits)
        run.probe()
        after = d.stats()
    finally:
        rss = d.stop()
    for rec in records:
        item = rec["item"]
        if rec.get("error") or not 200 <= rec["status"] < 300:
            run.attempted += 1
            run.fail(f"{item['op']}: {rec.get('error') or rec['status']}")
        elif item["op"] == "manifest":
            run.attempted += 1
            rec["parsed"] = {}
            if rec["body"] != manifest:
                run.fail("manifest bytes changed between reads")
        else:
            rec["parsed"] = json.loads(rec["body"])
            spec = (catalogue if item["op"] == "read"
                    else novel)[item["cell"]]
            run.check_cell(spec["kind"], spec["config"],
                           _reference.fingerprint(
                               rec["parsed"]["results"][0]))
    summary = _sl.summarize(records, inputs["steps"])
    if summary["lag_p99_ms"] > _sl.LATENCY_LIMIT_MS:
        raise InvalidRun(f"generator fell behind: lag p99 "
                         f"{summary['lag_p99_ms']:.1f} ms > limit "
                         f"{_sl.LATENCY_LIMIT_MS} ms")
    deltas = {k: after[k] - before[k] for k in after}
    return {"setups": setups, "colds": colds, "replays": replays,
            "rss_mb": rss, "summary": summary, "stats": deltas,
            "telemetry": d.telemetry_logs(), "trace_dir": trace_dir}


def _cell_spec(spec: dict) -> dict:
    cell = _reference.to_cell(spec)
    return {"kind": cell.kind, "config": cell.config}


def run_serve(run: Run, inputs: dict, trace: bool) -> tuple:
    """The serve workload; returns (reference-host figures, wall)."""
    if run.jobs < 2:
        raise InvalidRun("the serve workload needs nproc >= 2 (one "
                         "connection per arrival stream)")
    if trace:
        plain = serve_session(run, inputs)
        trace_dir = run.path("spans")
        traced = serve_session(run, inputs, trace_dir)
        return run.scaled(layer_metrics(
            run, trace_dir, traced["telemetry"], jobs=1, serve=traced,
            overhead_sweep_s=(traced["colds"][-1]
                              - statistics.median(plain["colds"])),
            overhead_warm_ms=(traced["summary"]["warm_p50_ms"]
                              - plain["summary"]["warm_p50_ms"])),
            PER_LAYER)
    s = serve_session(run, inputs)
    summ = s["summary"]
    run.report["steps"] = summ["steps"]
    run.report["behind_join"] = summ["behind_join"]
    run.report["limit_ms"] = _sl.LATENCY_LIMIT_MS
    for name, n in (("warm_p50_ms", summ["warm_n"]),
                    ("warm_p99_ms", summ["warm_n"]),
                    ("cold_p50_ms", summ["cold_n"]),
                    ("cold_p90_ms", summ["cold_n"]),
                    ("max_rate_rps", len(summ["steps"])),
                    ("peak_rss_mb", 1)):
        run.samples[name] = n
    if not summ["cold_n"] or not summ["warm_n"]:
        raise InvalidRun("no cold or no warm requests completed")
    return run.scaled({
        "setup_s": _median("setup_s", run, s["setups"]),
        "sweep_s": _median("sweep_s", run, s["colds"]),
        "warm_replay_s": _median("warm_replay_s", run, s["replays"]),
        "peak_rss_mb": s["rss_mb"],
        "warm_p50_ms": summ["warm_p50_ms"],
        "warm_p99_ms": summ["warm_p99_ms"],
        "cold_p50_ms": summ["cold_p50_ms"],
        "cold_p90_ms": summ["cold_p90_ms"],
        "max_rate_rps": summ["max_rate_rps"],
    }, END_TO_END)


# -- per-layer metrics ------------------------------------------------------

def _layer_table(trace_dir: str) -> Dict[str, dict]:
    """Calls, total and self time per span name, for the report line."""
    table = _spans.layer_table(_spans.expand(_spans.load(trace_dir)[0]))
    return {name: {k: round(v, 6) if isinstance(v, float) else v
                   for k, v in row.items()}
            for name, row in sorted(table.items())}


def layer_metrics(run: Run, trace_dir: str, logs: List[str], jobs: int,
                  overhead_sweep_s: float, overhead_warm_ms: float,
                  serve: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer figures of the traced pass: spans (spans.py), its
    telemetry logs and the program's public counters."""
    events = [e for path in logs for e in read_events(path)]
    raw, counters = _spans.load(trace_dir)
    spans = _spans.expand(raw)
    selfs = _spans.self_times(spans)
    phases: Dict[str, float] = {}
    fp: Dict[str, Any] = {}
    cell_walls, waits = [], []
    for e in events:
        if e["ev"] == "phase":
            phases[e["name"]] = phases.get(e["name"], 0.0) + e["wall_s"]
        elif e["ev"] == "cell-end" and e["idx"] >= 0:
            cell_walls.append(e["wall_s"])
            for k, v in e["fastpath"].items():
                if isinstance(v, dict):
                    fp[k] = fp.get(k, 0) + sum(v.values())
                else:
                    fp[k] = fp.get(k, 0) + v
        elif e["ev"] == "cell-begin":
            waits.append(e["queue_wait_s"])
    stepped = fp.get("ticks_total", 0) - fp.get("ticks_skipped", 0)
    fp_self = sum(selfs[s["id"]] for s in spans
                  if s["name"].startswith("fastpath."))
    cpu_run = _spans.inclusive(spans, "cpu.run")
    execute = phases.get("execute", 0.0)
    sim = {k: sum(s.get("attrs", {}).get(k, 0) for s in spans)
           for k in ("uops", "l2_misses", "stall_cycles")}
    m = {
        "sweep.preflight_s": _spans.inclusive(spans, "sweep.preflight"),
        "sweep.key_s": _spans.inclusive(spans, "sweep.key"),
        "sweep.probe_s": phases.get("probe", 0.0),
        "sweep.store_s": phases.get("store", 0.0),
        "sweep.oracle_s": phases.get("oracle", 0.0),
        "sweep.execute_s": execute,
        "sweep.cell_max_s": max(cell_walls, default=0.0),
        "sweep.worker_busy_frac": (sum(cell_walls) / (execute * jobs)
                                   if execute else 0.0),
        "sweep.queue_wait_s": (statistics.mean(waits) if waits else 0.0),
        "check.recurrence_s": _spans.inclusive(spans, "check.recurrence"),
        "check.recurrence.scans": sum(c.get("scans", 0)
                                      for c in counters.values()),
        "check.recurrence.memo_hits": sum(c.get("memo_hits", 0)
                                          for c in counters.values()),
        "check.compose_s": _spans.inclusive(spans, "check.compose"),
        "workloads.build_s": _spans.inclusive(spans, "workloads.build"),
        "isa.compile_s": _spans.inclusive(spans, "isa.compile"),
        "pintool.mix_s": _spans.inclusive(spans, "pintool.mix"),
        "cpu.run_s": cpu_run,
        "cpu.ticks_stepped": stepped,
        "cpu.us_per_stepped_tick": ((cpu_run - fp_self) / stepped * 1e6
                                    if stepped else 0.0),
        "fastpath.self_s": fp_self,
        "fastpath.coverage": (fp.get("ticks_skipped", 0)
                              / fp["ticks_total"]
                              if fp.get("ticks_total") else 0.0),
        "fastpath.jumps": fp.get("jumps", 0),
        "fastpath.captures": fp.get("captures", 0),
        "fastpath.jump_yield": (fp.get("jumps", 0) / fp["captures"]
                                if fp.get("captures") else 0.0),
        "fastpath.stand_downs": fp.get("stand_downs", 0),
        "fastpath.capture_aborts": fp.get("capture_aborts", 0),
        "fastpath.cert_jumps": fp.get("cert_jumps", 0),
        "fastpath.pair_cert_jumps": fp.get("pair_cert_jumps", 0),
        "cpu.uops_retired": sim["uops"],
        "mem.l2_misses": sim["l2_misses"],
        "mem.stall_cycles": sim["stall_cycles"],
        "telemetry.events": len(events),
        "telemetry.bytes": sum(os.path.getsize(p) for p in logs),
        "trace.overhead_sweep_s": overhead_sweep_s,
        "trace.overhead_warm_p50_ms": overhead_warm_ms,
    }
    st = serve["stats"] if serve else {}
    summ = serve["summary"] if serve else {}
    led, coalesced = st.get("led", 0), st.get("coalesced", 0)
    m.update({
        "serve.batch_p50_ms": summ.get("batch_p50_ms", 0.0),
        "serve.http_p50_ms": summ.get("http_p50_ms", 0.0),
        "serve.warm_hits": st.get("warm_hits", 0),
        "serve.misses": st.get("misses", 0),
        "serve.coalesced": coalesced,
        "serve.simulations": st.get("simulations", 0),
        "serve.pool_dispatches": st.get("pool_dispatches", 0),
        "serve.errors": st.get("errors", 0),
        "serve.coalesce_ratio": (coalesced / (coalesced + led)
                                 if coalesced + led else 0.0),
        "serve.join_p50_ms": summ.get("join_p50_ms", 0.0),
        "load.lag_p99_ms": summ.get("lag_p99_ms", 0.0),
        "load.offered_rps": summ.get("offered_rps", 0.0),
        "load.completed_rps": summ.get("completed_rps", 0.0),
    })
    run.report["layers"] = _layer_table(trace_dir)
    run.report["spans"] = len(raw)
    return m


# -- entry point ------------------------------------------------------------

def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=_reference.DEFAULT_PATH)
    return ap.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    inputs = _inputs.make_inputs(args.workload, args.seed, args.seconds)
    run = Run(args.workload, args.seed, args.seconds, args.reference)
    try:
        if args.workload == "serve":
            scaled, wall = run_serve(run, inputs, bool(args.trace))
        else:
            scaled, wall = run_sweeps(run, inputs, bool(args.trace))
    except InvalidRun as e:
        print(f"perfbench: invalid run: {e}", file=sys.stderr)
        return 3
    finally:
        run.close()
    units = PER_LAYER if args.trace else END_TO_END
    host = host_record(run.probes)
    attempted = max(run.attempted, 1)
    failed = min(len(run.failures), attempted)
    for why in run.failures[:20]:
        print(f"FAILED: {why}")
    print(f"workload {args.workload}  seed {args.seed}  inputs "
          f"{_inputs.digest(inputs)}  host {host['cpu_model']} x"
          f"{host['nproc']}  python {host['python']}  calibration "
          f"{host['calibration_s']:.4f} s/1M turns (n="
          f"{host['calibration_samples']}, reference {CAL_REF_S} s)")
    print(f"error_rate {failed / attempted:.6f} fraction "
          f"({failed} failed / {attempted} attempted)")
    print(f"{'metric':32s} {'reference-host':>14s} {'unit':9s} "
          f"{'wall':>14s}  samples")
    for name, unit in units.items():
        n = run.samples.get(name)
        print(f"{name:32s} {scaled[name]:14.6f} {unit:9s} "
              f"{wall[name]:14.6f}  {n if n is not None else ''}")
    print("report " + json.dumps(dict(
        run.report, workload=args.workload, seed=args.seed,
        input_digest=_inputs.digest(inputs), host=host,
        samples=run.samples, error_rate=failed / attempted,
        wall=wall, probes=run.probes,
        attempted=attempted, failed=failed), sort_keys=True))
    print(json.dumps({
        "correct": not run.failures, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": scaled[name], "unit": unit}
                    for name, unit in units.items()
                    if name not in UNBOUNDED}}))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
