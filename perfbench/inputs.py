"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed and of the constants
below: the benchmark owns its input universe, and the program under
test only ever receives the generated cell lists and request
schedules.  Strata use fixed counts so that every seed costs about the
same (cell costs were measured per stratum with the fast-forward on).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List, Tuple

ILPS = ("MIN", "MED", "MAX")
FIG1_STREAMS = ("fadd", "fmul", "fadd-mul", "iadd", "iload")
ARITH = ("fadd", "fmul", "iadd", "imul")
_PANEL_A = ("fadd", "fmul", "fdiv", "fload", "fstore")
_PANEL_B = ("iadd", "imul", "idiv", "iload", "istore")
_PANEL_C = tuple((f, i) for f in ("fadd", "fmul", "fdiv")
                 for i in ("iadd", "imul", "idiv"))


def fig2_pairs() -> List[Tuple[str, str]]:
    """The paper's figure-2 pairs: fp x fp, int x int, fp x int."""
    pairs = [(a, b) for panel in (_PANEL_A, _PANEL_B)
             for i, a in enumerate(panel) for b in panel[i:]]
    return pairs + list(_PANEL_C)


_ARITH_PAIRS = [p for p in fig2_pairs() if set(p) <= set(ARITH)]


def pair_strata() -> Dict[str, List[Tuple[str, str, str]]]:
    """Figure-2 cells (a, b, ILP) the streams sample draws from.

    Within a stratum every cell costs about the same, counting the solo
    baselines it adds (measured with the fast-forward on when the
    benchmark was defined): arithmetic 0.01-0.3 s, divider 0.4-0.75 s,
    memory self-pairs 1.8-2.3 s.  The aperiodic cell is the batch's
    longest, so it sets the pool's wall: its three choices each take
    4.2 s alone.  So the sample's cost does not depend on the seed.
    Mixed arithmetic x memory pairs (1.7-8 s, depending on whether the
    joint state ever recurs) are left out for the same reason.
    """
    return {
        "arithmetic": [(a, b, ilp) for a, b in _ARITH_PAIRS for ilp in ILPS],
        "divider": [
            ("fmul", "fdiv", "MED"), ("fdiv", "iadd", "MED"),
            ("fadd", "fdiv", "MED"), ("fdiv", "iadd", "MAX"),
            ("fdiv", "iadd", "MIN"), ("fmul", "fdiv", "MIN"),
            ("fmul", "idiv", "MIN"), ("fadd", "fdiv", "MAX"),
            ("fadd", "fdiv", "MIN"), ("fadd", "idiv", "MIN"),
            ("fmul", "fdiv", "MAX"), ("idiv", "idiv", "MIN"),
            ("iadd", "idiv", "MIN")],
        "memory": [(m, m, ilp) for m in ("iload", "fstore", "istore")
                   for ilp in ILPS],
        "aperiodic": [
            ("fadd-mul", "iload", "MIN"), ("fadd-mul", "fstore", "MED"),
            ("fadd-mul", "istore", "MED")],
    }


#: Cells drawn from each stratum per seed.
PAIR_COUNTS = {"arithmetic": 3, "divider": 3, "memory": 2, "aperiodic": 1}

#: App sizes the seed chooses from; options within an app cost the
#: same to within ~10% (same flops or the same non-zero count).
APP_SIZE_OPTIONS: Dict[str, List[dict]] = {
    "mm": [{"n": 16, "tile": 8}, {"n": 16, "tile": 4}],
    "lu": [{"n": 16, "tile": 8}, {"n": 16, "tile": 4}],
    "cg": [{"n": 64, "nnz_per_row": 16, "iterations": 3},
           {"n": 48, "nnz_per_row": 21, "iterations": 3},
           {"n": 80, "nnz_per_row": 13, "iterations": 3}],
    "bt": [{"grid": 4}],
}
#: One cg serial run long enough for the tile tier to jump.
CG_TILE_CELL = {"n": 64, "nnz_per_row": 16, "iterations": 8}

#: Serve workload shape.  The catalogue is the 10 arithmetic pair cells
#: at MAX ILP plus the fig.-1 cells of SERVE_MANIFEST_STREAMS
#: streams drawn from SERVE_MANIFEST_FROM (equal cost).  Novel cells
#: are cheap (under 0.35 s with the fast-forward on) so a follow-up
#: that joins one holds the readers' connection briefly.
SERVE_MANIFEST_FROM = ("fadd", "fmul", "fadd-mul")
SERVE_MANIFEST_STREAMS = 2      # fig1 streams behind GET /manifest
#: The novel cells: every seed submits the same ones (in its own order)
#: as long as rate x --seconds does not exceed their number (30 at
#: --seconds 20), so the cold figures compare like with like.  All cost
#: under 0.15 s with the fast-forward on, which keeps the submitters'
#: connection mostly idle and the cold tail about the cold path rather
#: than about queueing behind the previous submission.
SERVE_NOVEL = tuple(
    [("stream", s, ilp, 1) for s in ("imul", "fdiv", "idiv", "fsub",
                                     "isub", "ilogic") for ilp in ILPS]
    + [("stream", "iadd", ilp, 2) for ilp in ("MED", "MAX")]
    + [("pair", a, b, "MED") for a, b in _ARITH_PAIRS])
SERVE_SUBMIT_RPS = 1.5          # novel (cold) cells per second
SERVE_FOLLOWUP_EVERY = 2        # every 2nd submission gets a follow-up
#: A follow-up is due this long after its submission: about the cold
#: path's median latency, so about half of them join the flight and
#: the rest hit the freshly published entry.
SERVE_FOLLOWUP_DELAY_S = 0.1
SERVE_MANIFEST_SHARE = 0.05     # share of reader requests that are /manifest
SERVE_ZIPF_S = 1.1
#: Offered reader rates (req/s): the first step is the base rate at
#: which warm latencies are reported; the rest form the ladder that
#: finds the highest rate meeting the latency limit.
SERVE_LADDER_RPS = (100.0, 200.0, 300.0, 400.0, 500.0, 650.0)
SERVE_BASE_SHARE = 0.5          # share of --seconds spent at the base rate


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")


def stream_cell(stream: str, ilp: str, threads: int) -> dict:
    return {"kind": "stream", "stream": stream, "ilp": ilp,
            "threads": threads}


def pair_cell(a: str, b: str, ilp: str) -> dict:
    return {"kind": "pair", "a": a, "b": b, "ilp": ilp}


def fig1_specs(streams=FIG1_STREAMS) -> List[dict]:
    return [stream_cell(s, ilp, t) for s in streams for t in (1, 2)
            for ilp in ILPS]


def streams_inputs(seed: int) -> dict:
    """All 30 figure-1 cells plus a stratified sample of fig.-2 pairs."""
    rng = _rng(seed, "streams")
    pairs = []
    for name, count in PAIR_COUNTS.items():
        for a, b, ilp in rng.sample(pair_strata()[name], count):
            pairs.append({"a": a, "b": b, "ilp": ilp, "stratum": name})
    return {"fig1_streams": list(FIG1_STREAMS), "pairs": pairs}


def apps_inputs(seed: int) -> dict:
    """Every paper variant of each app at a seeded reduced size, the
    Table 1 rows of the same builds, and the cg tile-tier cell."""
    rng = _rng(seed, "apps")
    sizes = {app: dict(rng.choice(opts))
             for app, opts in APP_SIZE_OPTIONS.items()}
    return {"sizes": sizes, "cg_tile": dict(CG_TILE_CELL)}


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (k ** s) for k in range(1, n + 1)]


def serve_inputs(seed: int, seconds: float) -> dict:
    """Catalogue, novel-cell pool and the open-loop arrival schedule.

    Readers: random arrivals at each ladder rate, Zipf over the
    catalogue (ranks shuffled by the seed), a share of /manifest reads,
    plus a follow-up read of every SERVE_FOLLOWUP_EVERY-th submission.
    Submitters: random arrivals at a fixed rate, each a novel cell.
    """
    rng = _rng(seed, "serve")
    manifest = sorted(rng.sample(SERVE_MANIFEST_FROM,
                                 SERVE_MANIFEST_STREAMS))
    catalogue = ([pair_cell(a, b, "MAX") for a, b in _ARITH_PAIRS]
                 + fig1_specs(manifest))
    rng.shuffle(catalogue)
    # Solo and pair cells alternate in proportion, so every ladder step
    # carries about the same cold work; the seed orders each kind.
    solos = [stream_cell(*c[1:]) for c in SERVE_NOVEL if c[0] == "stream"]
    pairs = [pair_cell(*c[1:]) for c in SERVE_NOVEL if c[0] == "pair"]
    rng.shuffle(solos)
    rng.shuffle(pairs)
    n_solo, n = len(solos), len(SERVE_NOVEL)
    novel = [solos.pop() if (i + 1) * n_solo // n > i * n_solo // n
             else pairs.pop() for i in range(n)]

    base_s = seconds * SERVE_BASE_SHARE
    step_s = (seconds - base_s) / (len(SERVE_LADDER_RPS) - 1)
    steps, t = [], 0.0
    for i, rate in enumerate(SERVE_LADDER_RPS):
        dur = base_s if i == 0 else step_s
        steps.append({"rps": rate, "start": t, "end": t + dur})
        t += dur

    # Poisson arrivals conditioned on their count: round(rate x time)
    # arrivals placed uniformly at random, so every seed offers the
    # same number of requests per step.
    def arrivals(rate: float, start: float, end: float) -> List[float]:
        n = round(rate * (end - start))
        return sorted(rng.uniform(start, end) for _ in range(n))

    due_times = [t for step in steps for t in arrivals(
        SERVE_SUBMIT_RPS, step["start"], step["end"])]
    if len(due_times) > len(novel):
        raise ValueError("novel-cell pool exhausted; lower "
                         "SERVE_SUBMIT_RPS or --seconds")
    submits = [{"due": t, "cell": i} for i, t in enumerate(due_times)]

    weights = _zipf_weights(len(catalogue), SERVE_ZIPF_S)
    reads = []
    for k, step in enumerate(steps):
        for t in arrivals(step["rps"], step["start"], step["end"]):
            if rng.random() < SERVE_MANIFEST_SHARE:
                reads.append({"due": t, "op": "manifest", "step": k})
            else:
                idx = rng.choices(range(len(catalogue)), weights)[0]
                reads.append({"due": t, "op": "read", "cell": idx,
                              "step": k})
    for j, sub in enumerate(submits):
        if j % SERVE_FOLLOWUP_EVERY == 0:
            due = sub["due"] + SERVE_FOLLOWUP_DELAY_S
            step = next((k for k, s in enumerate(steps)
                         if s["start"] <= due < s["end"]), len(steps) - 1)
            reads.append({"due": due, "op": "followup", "cell": sub["cell"],
                          "step": step})
    reads.sort(key=lambda r: r["due"])
    return {"manifest_streams": manifest, "catalogue": catalogue,
            "novel": novel[:len(submits)], "steps": steps,
            "submits": submits, "reads": reads}


def make_inputs(workload: str, seed: int, seconds: float) -> dict:
    if workload == "streams":
        return streams_inputs(seed)
    if workload == "apps":
        return apps_inputs(seed)
    if workload == "serve":
        return serve_inputs(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    """Digest of the generated inputs: equal digests, equal inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def universe() -> Dict[str, List[dict]]:
    """Every cell any seed can draw, for the reference file."""
    cells = [c for cs in pair_strata().values() for c in cs]
    cells += [c[1:] for c in SERVE_NOVEL if c[0] == "pair"]
    streams = sorted({s for c in cells for s in c[:2]} | set(FIG1_STREAMS)
                     | {c[1] for c in SERVE_NOVEL if c[0] == "stream"})
    # (fig.-1 cells cover every two-thread stream cell SERVE_NOVEL uses.)
    pairs = [pair_cell(a, b, ilp) for a, b, ilp in dict.fromkeys(cells)]
    solos = [stream_cell(s, ilp, 1) for s in streams for ilp in ILPS]
    sweep = fig1_specs() + [c for c in solos if c not in fig1_specs()]
    apps = []
    for app, opts in APP_SIZE_OPTIONS.items():
        for size in opts:
            apps.append({"kind": "app", "app": app, "size": size})
    apps.append({"kind": "app-extra", "app": "cg", "size": CG_TILE_CELL})
    return {"streams": sweep + pairs, "apps": apps}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
