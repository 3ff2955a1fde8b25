"""One sweep pass in a fresh interpreter, as a CLI user's run starts.

Usage: ``python3 perfbench/sweep_child.py SPEC.json OUT.json``

SPEC carries the generated inputs (never the seed), the cache and
telemetry directories, ``jobs`` and optionally ``trace_dir`` (record
spans).  OUT gets the
monotonic time at which the cells and engine were ready, the wall time
of the ``SweepEngine.run`` calls, the engine's public stats, the
telemetry log path and every cell's result fingerprint.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _groups(workload: str, inputs: dict) -> list:
    """The cell batches the drivers would hand the engine, in order."""
    import reference
    from repro.core.coexec import coexec_cells
    from repro.core.streams import fig1_cells
    from repro.isa.streams import ILP

    if workload == "streams":
        # One batch for every sampled pair, as coexec_cells enumerates
        # each ILP level's share (solo baselines first).
        pairs = []
        for ilp in ("MIN", "MED", "MAX"):
            chosen = [(p["a"], p["b"]) for p in inputs["pairs"]
                      if p["ilp"] == ilp]
            if chosen:
                pairs += coexec_cells(chosen, ilp=ILP[ilp])[0]
        return [fig1_cells(tuple(inputs["fig1_streams"])), pairs]
    if workload == "apps":
        return list(reference.app_cells_for(inputs["sizes"],
                                            inputs["cg_tile"]))
    raise ValueError(f"not a sweep workload: {workload!r}")


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as fp:
        spec = json.load(fp)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    if spec.get("trace_dir"):
        import spans

        spans.install(spec["trace_dir"])
    import reference
    from repro.sweep import ResultCache, SweepEngine, runner_for
    from repro.telemetry import TelemetryBus, new_log_path

    groups = _groups(spec["workload"], spec["inputs"])
    engine = SweepEngine(
        jobs=spec["jobs"], cache=ResultCache(spec["cache_dir"]),
        telemetry=TelemetryBus(new_log_path(spec["telemetry_dir"])))
    out = {"ready": time.monotonic()}
    cells, results = [], []
    t0 = time.monotonic()
    for group in groups:
        results += engine.run(group)
        cells += group
    out["sweep_s"] = time.monotonic() - t0
    out["stats"] = engine.stats.to_dict()
    out["telemetry_log"] = engine.telemetry.path
    out["cells"] = [
        {"kind": c.kind, "config": c.config,
         "fingerprint": reference.fingerprint(runner_for(c.kind).encode(r)),
         "reference_ok": getattr(r, "reference_ok", None)}
        for c, r in zip(cells, results)]
    engine.telemetry.close()
    with open(out_path, "w") as fp:
        json.dump(out, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
