"""Tiled Matrix Multiplication with blocked array layouts (paper §5.1.i).

Variants:

* ``serial``            — one thread, all tiles, fully unrolled inner loop
                          ("optimized with all possible loop transformation
                          techniques, including loop unrolling").
* ``tlp-coarse``        — consecutive C tiles assigned to the two threads
                          circularly: threads work on disjoint cache areas.
* ``tlp-fine``          — consecutive elements *within* a C tile assigned
                          circularly: nearby but not identical cache lines,
                          plus extra strided-index masking per element.
* ``tlp-pfetch``        — pure SPR: one worker executes the whole kernel
                          while a helper prefetches the next tile-triple,
                          throttled by precomputation spans (§3.2) with
                          halt-mode waits (MM's span barriers are the
                          paper's "long duration" barriers).
* ``tlp-pfetch+work``   — hybrid: fine-grained partitioning, and thread 1
                          additionally prefetches the next tile in issue.

The inner loop emits, per (i, k, j): the blocked-layout mask chain (2
logical µops on ALU0), loads of A[i,k], B[k,j], C[i,j], an fmul, an fadd
and the C store — reproducing the Table-1 MM mix (~26% ALU of which most
are logicals, ~12% FP add, ~12% FP mul, ~37% load, ~12% store).

Functional updates happen at tile granularity in numpy while emitting, so
``reference_check`` validates C = A x B after one full consumption of the
build's generators (consume each factory exactly once before checking).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.common.addrspace import AddressSpace
from repro.common.errors import ConfigError
from repro.isa.instr import Instr
from repro.isa.opcodes import Op
from repro.mem.config import MemConfig
from repro.runtime.sync import SenseBarrier, SyncVar, WaitMode, advance_var, wait_ge
from repro.spr.spans import plan_spans
from repro.isa.trace import PHASE
from repro.workloads.common import (
    ACC,
    IDX,
    PTR,
    SITE_BLOCKS,
    VAL,
    BlockedMatrix,
    Variant,
    WorkloadBuild,
    emit_blocked_index,
    emit_sw_prefetch,
    prefetch_lines,
    tiled_factories,
)

#: Variants whose streams are pure instructions (no sync effects) and so
#: can be recorded into a TiledTrace for tile-level fast-forward.
_RECORDABLE = frozenset({Variant.SERIAL, Variant.SW_PREFETCH,
                         Variant.TLP_COARSE, Variant.TLP_FINE})

_BASE = SITE_BLOCKS["mm"]
SITE_LOAD_A = _BASE + 1
SITE_LOAD_B = _BASE + 2
SITE_LOAD_C = _BASE + 3
SITE_STORE_C = _BASE + 4
SITE_PREFETCH = _BASE + 9

DEFAULT_N = 32
DEFAULT_TILE = 8

#: Paper sizes -> scaled stand-ins (16x linear scale-down).
PAPER_SIZES = {1024: 16, 2048: 32, 4096: 64}


def _triples(tiles: int) -> list[tuple[int, int, int]]:
    """Tile-triple schedule: (ti, tj, kt) in row-major C order."""
    return [
        (ti, tj, kt)
        for ti in range(tiles)
        for tj in range(tiles)
        for kt in range(tiles)
    ]


def _emit_tile_mult(
    A: BlockedMatrix,
    B: BlockedMatrix,
    C: BlockedMatrix,
    ti: int,
    tj: int,
    kt: int,
    element_filter: Optional[int] = None,
    extra_logic: int = 1,
) -> Iterator[Instr]:
    """One C_tile += A_tile * B_tile, element by element.

    ``element_filter`` selects this thread's share for the fine-grained
    variants: only elements with (i*T + j) % 2 == element_filter emit.
    """
    t = A.tile
    i0, j0, k0 = ti * t, tj * t, kt * t
    for li in range(t):
        i = i0 + li
        for lk in range(t):
            k = k0 + lk
            addr_a = A.addr(i, k)
            for lj in range(t):
                j = j0 + lj
                if element_filter is not None and (li * t + lj) % 2 != element_filter:
                    continue
                yield from emit_blocked_index(IDX[0], _BASE, extra_logic)
                yield Instr.load(addr_a, dst=VAL[0], op=Op.FLOAD,
                                 srcs=(IDX[0],), site=SITE_LOAD_A)
                yield Instr.load(B.addr(k, j), dst=VAL[1], op=Op.FLOAD,
                                 srcs=(IDX[0],), site=SITE_LOAD_B)
                yield Instr.load(C.addr(i, j), dst=ACC[0], op=Op.FLOAD,
                                 site=SITE_LOAD_C)
                yield Instr(Op.FMUL, dst=VAL[2], srcs=(VAL[0], VAL[1]),
                            site=_BASE)
                yield Instr(Op.FADD, dst=ACC[0], srcs=(ACC[0], VAL[2]),
                            site=_BASE)
                yield Instr.store(C.addr(i, j), src=ACC[0], op=Op.FSTORE,
                                  site=SITE_STORE_C)
            # Loop overhead once per j-row (the kernel is unrolled by T).
            yield Instr(Op.IADD, dst=PTR[1], srcs=(PTR[1],), site=_BASE)
            yield Instr(Op.BRANCH, site=_BASE)


class _Arrays:
    """The three matrices plus the functional reference."""

    def __init__(self, aspace: AddressSpace, n: int, tile: int,
                 seed: int = 7):
        rng = np.random.default_rng(seed)
        self.A = BlockedMatrix(aspace, "mm.A", n, tile)
        self.B = BlockedMatrix(aspace, "mm.B", n, tile)
        self.C = BlockedMatrix(aspace, "mm.C", n, tile)
        self.A.data[:] = rng.standard_normal((n, n))
        self.B.data[:] = rng.standard_normal((n, n))
        self.expected = self.A.data @ self.B.data

    def tile_update(self, ti: int, tj: int, kt: int) -> None:
        tv = self.C.tile_view(ti, tj)
        tv += self.A.tile_view(ti, kt) @ self.B.tile_view(kt, tj)

    def check(self) -> bool:
        return bool(np.allclose(self.C.data, self.expected))


def build(
    variant: Variant = Variant.SERIAL,
    n: int = DEFAULT_N,
    tile: int = DEFAULT_TILE,
    mem_config: Optional[MemConfig] = None,
    aspace: Optional[AddressSpace] = None,
    prefetch_arrays: tuple[str, ...] = ("mm.A", "mm.B", "mm.C"),
) -> WorkloadBuild:
    """Construct the MM workload in the requested variant.

    ``prefetch_arrays`` narrows what the SPR helper touches; callers can
    pass the result of the delinquency profile (see repro.spr) — by
    default all three matrices are prefetched, which is also what the
    profile selects for MM.
    """
    aspace = aspace or AddressSpace()
    arrays = _Arrays(aspace, n, tile)
    tiles = n // tile
    triples = _triples(tiles)
    mem = mem_config or MemConfig()
    span_plan = None

    if variant is Variant.SERIAL:
        def factory(api):
            for (ti, tj, kt) in triples:
                yield PHASE
                arrays.tile_update(ti, tj, kt)
                yield from _emit_tile_mult(arrays.A, arrays.B, arrays.C,
                                           ti, tj, kt)

        factories = [factory]

    elif variant is Variant.SW_PREFETCH:
        # The paper's concluding recommendation, implemented: the worker
        # itself issues non-blocking PREFETCH µops for the next
        # tile-triple's *inputs* (A and B; prefetching the C write
        # target only pollutes the tiny L2) — ~1% extra µops, no helper
        # thread, no partition halving.
        line = mem.line_size

        def factory(api):
            for idx, (ti, tj, kt) in enumerate(triples):
                yield PHASE
                if idx + 1 < len(triples):
                    nti, ntj, nkt = triples[idx + 1]
                    for mat, (a, b) in ((arrays.A, (nti, nkt)),
                                        (arrays.B, (nkt, ntj))):
                        yield from emit_sw_prefetch(
                            mat.tile_base_addr(a, b), mat.tile_bytes(),
                            line, SITE_PREFETCH,
                        )
                arrays.tile_update(ti, tj, kt)
                yield from _emit_tile_mult(arrays.A, arrays.B, arrays.C,
                                           ti, tj, kt)

        factories = [factory]

    elif variant is Variant.TLP_COARSE:
        def make(tid):
            def factory(api):
                for idx, (ti, tj, kt) in enumerate(triples):
                    # Consecutive C tiles alternate between threads; all
                    # kt steps of a C tile stay with its owner.
                    if (ti * tiles + tj) % 2 != tid:
                        continue
                    yield PHASE
                    arrays.tile_update(ti, tj, kt)
                    yield from _emit_tile_mult(arrays.A, arrays.B, arrays.C,
                                               ti, tj, kt)

            return factory

        factories = [make(0), make(1)]

    elif variant is Variant.TLP_FINE:
        def make(tid):
            def factory(api):
                for (ti, tj, kt) in triples:
                    yield PHASE
                    if tid == 0:
                        arrays.tile_update(ti, tj, kt)  # single owner
                    yield from _emit_tile_mult(
                        arrays.A, arrays.B, arrays.C, ti, tj, kt,
                        element_filter=tid, extra_logic=2,
                    )

            return factory

        factories = [make(0), make(1)]

    elif variant is Variant.TLP_PFETCH:
        plan = span_plan = plan_spans(
            total_items=len(triples),
            bytes_per_item=3 * arrays.A.tile_bytes(),
            mem_config=mem,
        )
        w_prog = SyncVar(aspace, "mm.w_prog", value=-1)
        pf_prog = SyncVar(aspace, "mm.pf_prog", value=0)
        spans = [
            triples[s * plan.items_per_span:(s + 1) * plan.items_per_span]
            for s in range(plan.num_spans)
        ]

        def worker(api):
            for s, span in enumerate(spans):
                yield from advance_var(w_prog, api, s)
                # Span-entry barrier: data for span s must be prefetched.
                yield from wait_ge(pf_prog, s + 1, api, mode=WaitMode.SPIN)
                for (ti, tj, kt) in span:
                    yield PHASE
                    arrays.tile_update(ti, tj, kt)
                    yield from _emit_tile_mult(arrays.A, arrays.B, arrays.C,
                                               ti, tj, kt)

        def prefetcher(api):
            line = mem.line_size
            for s, span in enumerate(spans):
                # Span-exit barrier: stay at most `lookahead` spans ahead
                # — halt-mode (these are MM's "long duration" barriers).
                yield from wait_ge(w_prog, s - plan.lookahead, api,
                                   mode=WaitMode.HALT)
                for (ti, tj, kt) in span:
                    for m, (a, b) in (("mm.A", (ti, kt)),
                                      ("mm.B", (kt, tj)),
                                      ("mm.C", (ti, tj))):
                        if m not in prefetch_arrays:
                            continue
                        mat = {"mm.A": arrays.A, "mm.B": arrays.B,
                               "mm.C": arrays.C}[m]
                        yield from prefetch_lines(
                            mat.tile_base_addr(a, b), mat.tile_bytes(),
                            line, SITE_PREFETCH,
                        )
                yield from advance_var(pf_prog, api, s + 1)

        factories = [worker, prefetcher]

    elif variant is Variant.TLP_PFETCH_WORK:
        barrier = SenseBarrier(2, aspace, "mm.hybrid")
        line = mem.line_size

        def make(tid):
            def factory(api):
                for idx, (ti, tj, kt) in enumerate(triples):
                    yield PHASE
                    if tid == 1 and idx + 1 < len(triples):
                        # Thread 1 prefetches the next tile in issue.
                        nti, ntj, nkt = triples[idx + 1]
                        for mat, (a, b) in ((arrays.A, (nti, nkt)),
                                            (arrays.B, (nkt, ntj))):
                            yield from prefetch_lines(
                                mat.tile_base_addr(a, b), mat.tile_bytes(),
                                line, SITE_PREFETCH,
                            )
                    if tid == 0:
                        arrays.tile_update(ti, tj, kt)
                    yield from _emit_tile_mult(
                        arrays.A, arrays.B, arrays.C, ti, tj, kt,
                        element_filter=tid, extra_logic=2,
                    )
                    yield from barrier.wait(api)

            return factory

        factories = [make(0), make(1)]

    else:  # pragma: no cover - exhaustive over Variant
        raise ConfigError(f"MM does not implement {variant}")

    regions = [arrays.A.region, arrays.B.region, arrays.C.region]
    return WorkloadBuild(
        name="mm",
        variant=variant,
        factories=tiled_factories(factories, regions, variant in _RECORDABLE),
        aspace=aspace,
        reference_check=arrays.check,
        meta={
            "n": n,
            "tile": tile,
            "paper_size": {v: k for k, v in PAPER_SIZES.items()}.get(n),
            "worker_tid": 0,
            "span_plan": span_plan,
        },
    )
