"""Reference results and the per-cell output check.

``reference.json`` holds, for every cell any seed can draw, a digest of
the cell's canonical result and its simulated counters, computed with
the fast-forward OFF (full stepping).  The fast-forward must be
byte-identical to full stepping, so every benchmark run, with the
fast-forward on, must reproduce these digests exactly.

Cells are keyed by meaning (kind plus the config fields that choose
the measurement), not by cache key: source fingerprints such as
``workload_sha`` change on any edit to a workload module, results
should not.

Regenerate (about 6 minutes on 2 cores)::

    python3 perfbench/reference.py [--jobs N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_PATH = os.path.join(HERE, "reference.json")

#: Config fields that fingerprint code rather than choose the cell.
_FINGERPRINTS = ("recipe", "recipe_a", "recipe_b", "workload_sha")
#: Payload fields that vary run to run (host time), never compared.
_VOLATILE = ("wall_time_s",)
#: Simulated counters stored next to the digest for readable diffs.
COUNTERS = ("cycles", "uops", "l2_misses_total", "stall_cycles",
            "instrs_per_thread", "total_instructions", "cpi", "cpi_a",
            "cpi_b")


def ident(kind: str, config: Dict[str, Any]) -> str:
    chosen = {k: v for k, v in config.items() if k not in _FINGERPRINTS}
    return kind + ":" + json.dumps(chosen, sort_keys=True,
                                   separators=(",", ":"))


def fingerprint(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Digest and counters of one canonical (JSON) cell result."""
    stable = {k: v for k, v in payload.items() if k not in _VOLATILE}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return {"digest": hashlib.sha256(text.encode()).hexdigest()[:32],
            "counters": {k: stable[k] for k in COUNTERS if k in stable}}


def to_cell(spec: Dict[str, Any]):
    """A benchmark cell spec (see inputs.py) as the program's cell."""
    from repro.isa.streams import ILP
    from repro.sweep.cells import pair_cell, stream_cell

    if spec["kind"] == "stream":
        return stream_cell(spec["stream"], ILP[spec["ilp"]],
                           spec["threads"])
    if spec["kind"] == "pair":
        return pair_cell(spec["a"], spec["b"], ILP[spec["ilp"]])
    raise ValueError(f"not a single-cell spec: {spec!r}")


def app_cells_for(sizes: Dict[str, dict], cg_tile: Optional[dict]) -> tuple:
    """(app-run cells, table1 cells) for per-app sizes, as the drivers
    enumerate them, plus the optional cg tile-tier serial cell."""
    from repro.core.apps import app_cells
    from repro.core.table1 import table1_cells
    from repro.sweep.cells import app_cell
    from repro.workloads.common import Variant

    runs = [c for app, size in sizes.items()
            for c in app_cells(app, sizes=[size])]
    if cg_tile is not None:
        runs.append(app_cell("cg", Variant.SERIAL, cg_tile))
    return runs, table1_cells(list(sizes), sizes)


def load(path: str = DEFAULT_PATH) -> Dict[str, dict]:
    with open(path) as fp:
        return json.load(fp)["cells"]


def check(ref: Dict[str, dict], kind: str, config: Dict[str, Any],
          got: Dict[str, Any], reference_ok: Optional[bool] = None
          ) -> Optional[str]:
    """None when fingerprint ``got`` matches the reference, else why."""
    key = ident(kind, config)
    want = ref.get(key)
    if want is None:
        return f"no reference for {key}"
    if got != want:
        return f"{key}: got {got}, reference {want}"
    if reference_ok is False:
        return f"{key}: reference_ok is false"
    return None


def _universe_cells() -> List[Any]:
    from inputs import APP_SIZE_OPTIONS, CG_TILE_CELL, universe

    cells = [to_cell(s) for s in universe()["streams"]]
    for app, opts in APP_SIZE_OPTIONS.items():
        for i, size in enumerate(opts):
            runs, rows = app_cells_for({app: size},
                                       CG_TILE_CELL if app == "cg" and i == 0
                                       else None)
            cells += runs + rows
    return cells


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--out", default=DEFAULT_PATH)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.cpu.fastpath import set_default_enabled
    from repro.sweep import SweepEngine, runner_for

    set_default_enabled(False)
    cells = _universe_cells()
    results = SweepEngine(jobs=args.jobs).run(cells)
    out = {}
    for cell, result in zip(cells, results):
        payload = runner_for(cell.kind).encode(result)
        out[ident(cell.kind, cell.config)] = fingerprint(payload)
    with open(args.out, "w") as fp:
        json.dump({"fastpath": "off", "cells": dict(sorted(out.items()))},
                  fp, indent=1)
        fp.write("\n")
    print(f"wrote {len(out)} reference cells to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
