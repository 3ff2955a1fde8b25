"""Tiled LU decomposition (paper §5.1.ii).

Right-looking blocked LU without pivoting on a diagonally dominant
matrix, over the same blocked array layout as MM.  Each step k has the
paper's "three computation phases, determined by the inter-tile data
dependences":

1. in-place factorization of the diagonal tile (k, k);
2. panel updates: row tiles (k, j>k) get L^-1 applied, column tiles
   (i>k, k) get U^-1 applied;
3. trailing-submatrix update: A[i][j] -= L[i][k] * U[k][j].

Variants:

* ``serial``      — everything on one thread.
* ``tlp-coarse``  — "different tiles to different threads for in-tile
  factorization": panel and trailing tiles alternate between threads,
  with a sense-reversing barrier after each phase.
* ``tlp-pfetch``  — pure SPR: "the prefetcher thread fills part of the
  L1 cache with the next tile to be factorized by the main worker".
  Because the prefetcher recomputes blocked-layout addresses per
  *element* ("non-optimal data locality ... leads [it] to execute a
  large number of instructions to compute the addresses"), its dynamic
  µop count rivals the worker's — the cause of the paper's 1.61-1.96x
  SPR slowdown despite a ~98% worker-miss reduction.

No hybrid scheme, matching the paper ("a hybrid precomputation scheme
was not implemented for this kernel").
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
    prefetch_elements,
    tiled_factories,
)

#: Only the serial stream is a pure instruction sequence; the TLP
#: variants carry barrier/sync effects and cannot be recorded.
_RECORDABLE = frozenset({Variant.SERIAL})

_BASE = SITE_BLOCKS["lu"]
SITE_LOAD_DIAG = _BASE + 1
SITE_LOAD_PANEL = _BASE + 2
SITE_LOAD_TRAIL = _BASE + 3
SITE_STORE = _BASE + 4
SITE_PREFETCH = _BASE + 9

DEFAULT_N = 32
DEFAULT_TILE = 8
PAPER_SIZES = {1024: 16, 2048: 32, 4096: 64}


def _emit_update(addr_a: int, addr_b: int, addr_c: int,
                 site: int) -> Iterator[Instr]:
    """One a[c] -= a[a] * a[b] element update (the LU workhorse).

    Four loads (L element, U element, target, and the uncached reload a
    naive panel kernel performs), a mul, a sub and the store, behind a
    blocked-layout index chain — the Table-1 LU mix (ALU- and
    LOAD-heavy, symmetric small FP shares).
    """
    yield from emit_blocked_index(IDX[0], _BASE, extra_logic=1)
    yield Instr(Op.IADD, dst=IDX[0], srcs=(IDX[0],), site=_BASE)
    yield Instr.load(addr_a, dst=VAL[0], op=Op.FLOAD, srcs=(IDX[0],),
                     site=site)
    yield Instr.load(addr_b, dst=VAL[1], op=Op.FLOAD, srcs=(IDX[0],),
                     site=site)
    yield Instr.load(addr_a, dst=VAL[3], op=Op.FLOAD, site=site)
    yield Instr.load(addr_c, dst=ACC[0], op=Op.FLOAD, site=site)
    yield Instr(Op.FMUL, dst=VAL[2], srcs=(VAL[0], VAL[1]), site=_BASE)
    yield Instr(Op.FSUB, dst=ACC[0], srcs=(ACC[0], VAL[2]), site=_BASE)
    yield Instr.store(addr_c, src=ACC[0], op=Op.FSTORE, site=SITE_STORE)


def _emit_divide(addr_num: int, addr_den: int, site: int) -> Iterator[Instr]:
    """a[num] /= a[den] (multiplier computation in the factorization)."""
    yield from emit_blocked_index(IDX[1], _BASE, extra_logic=1)
    yield Instr.load(addr_num, dst=VAL[0], op=Op.FLOAD, srcs=(IDX[1],),
                     site=site)
    yield Instr.load(addr_den, dst=VAL[1], op=Op.FLOAD, site=site)
    yield Instr(Op.FDIV, dst=VAL[0], srcs=(VAL[0], VAL[1]), site=_BASE)
    yield Instr.store(addr_num, src=VAL[0], op=Op.FSTORE, site=SITE_STORE)


class _LUState:
    """Matrix state plus the numpy-side factorization (per tile phase)."""

    def __init__(self, aspace: AddressSpace, n: int, tile: int, seed: int = 11):
        rng = np.random.default_rng(seed)
        self.A = BlockedMatrix(aspace, "lu.A", n, tile)
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        self.A.data[:] = dense
        self.original = dense.copy()
        self.n = n
        self.tile = tile

    # Functional phases (numpy) -----------------------------------------

    def factor_diag(self, k: int) -> None:
        a = self.A.tile_view(k, k)
        t = self.tile
        for p in range(t):
            a[p + 1:, p] /= a[p, p]
            a[p + 1:, p + 1:] -= np.outer(a[p + 1:, p], a[p, p + 1:])

    def update_row_panel(self, k: int, j: int) -> None:
        """A[k][j] <- L(k,k)^-1 A[k][j] (unit lower triangular solve)."""
        lkk = self.A.tile_view(k, k)
        akj = self.A.tile_view(k, j)
        t = self.tile
        for p in range(1, t):
            akj[p, :] -= lkk[p, :p] @ akj[:p, :]

    def update_col_panel(self, k: int, i: int) -> None:
        """A[i][k] <- A[i][k] U(k,k)^-1."""
        ukk = self.A.tile_view(k, k)
        aik = self.A.tile_view(i, k)
        t = self.tile
        for p in range(t):
            aik[:, p] -= aik[:, :p] @ ukk[:p, p]
            aik[:, p] /= ukk[p, p]

    def update_trailing(self, k: int, i: int, j: int) -> None:
        self.A.tile_view(i, j)[:] -= (
            self.A.tile_view(i, k) @ self.A.tile_view(k, j)
        )

    def check(self) -> bool:
        """L @ U must reconstruct the original matrix."""
        a = self.A.data
        L = np.tril(a, -1) + np.eye(self.n)
        U = np.triu(a)
        return bool(np.allclose(L @ U, self.original, atol=1e-8))

    # Trace phases -------------------------------------------------------

    def emit_diag(self, k: int) -> Iterator[Instr]:
        t, A = self.tile, self.A
        b = k * t
        for p in range(t):
            for i in range(p + 1, t):
                yield from _emit_divide(A.addr(b + i, b + p),
                                        A.addr(b + p, b + p), SITE_LOAD_DIAG)
                for j in range(p + 1, t):
                    yield from _emit_update(
                        A.addr(b + i, b + p), A.addr(b + p, b + j),
                        A.addr(b + i, b + j), SITE_LOAD_DIAG,
                    )
            yield Instr(Op.BRANCH, site=_BASE)

    def emit_row_panel(self, k: int, j: int) -> Iterator[Instr]:
        t, A = self.tile, self.A
        bk, bj = k * t, j * t
        for p in range(1, t):
            for q in range(p):
                for c in range(t):
                    yield from _emit_update(
                        A.addr(bk + p, bk + q), A.addr(bk + q, bj + c),
                        A.addr(bk + p, bj + c), SITE_LOAD_PANEL,
                    )
            yield Instr(Op.BRANCH, site=_BASE)

    def emit_col_panel(self, k: int, i: int) -> Iterator[Instr]:
        t, A = self.tile, self.A
        bk, bi = k * t, i * t
        for p in range(t):
            for q in range(p):
                for r in range(t):
                    yield from _emit_update(
                        A.addr(bi + r, bk + q), A.addr(bk + q, bk + p),
                        A.addr(bi + r, bk + p), SITE_LOAD_PANEL,
                    )
            for r in range(t):
                yield from _emit_divide(A.addr(bi + r, bk + p),
                                        A.addr(bk + p, bk + p),
                                        SITE_LOAD_PANEL)
            yield Instr(Op.BRANCH, site=_BASE)

    def emit_trailing(self, k: int, i: int, j: int) -> Iterator[Instr]:
        t, A = self.tile, self.A
        bi, bj, bk = i * t, j * t, k * t
        for r in range(t):
            for p in range(t):
                addr_l = A.addr(bi + r, bk + p)
                for c in range(t):
                    yield from _emit_update(
                        addr_l, A.addr(bk + p, bj + c),
                        A.addr(bi + r, bj + c), SITE_LOAD_TRAIL,
                    )
                yield Instr(Op.IADD, dst=PTR[1], srcs=(PTR[1],), site=_BASE)
                yield Instr(Op.BRANCH, site=_BASE)


def build(
    variant: Variant = Variant.SERIAL,
    n: int = DEFAULT_N,
    tile: int = DEFAULT_TILE,
    mem_config: Optional[MemConfig] = None,
    aspace: Optional[AddressSpace] = None,
) -> WorkloadBuild:
    """Construct the LU workload in the requested variant."""
    aspace = aspace or AddressSpace()
    state = _LUState(aspace, n, tile)
    tiles = n // tile
    mem = mem_config or MemConfig()
    span_plan = None

    if variant is Variant.SERIAL:
        def factory(api):
            for k in range(tiles):
                yield PHASE
                state.factor_diag(k)
                yield from state.emit_diag(k)
                for j in range(k + 1, tiles):
                    yield PHASE
                    state.update_row_panel(k, j)
                    yield from state.emit_row_panel(k, j)
                for i in range(k + 1, tiles):
                    yield PHASE
                    state.update_col_panel(k, i)
                    yield from state.emit_col_panel(k, i)
                for i in range(k + 1, tiles):
                    for j in range(k + 1, tiles):
                        yield PHASE
                        state.update_trailing(k, i, j)
                        yield from state.emit_trailing(k, i, j)

        factories = [factory]

    elif variant is Variant.TLP_COARSE:
        barrier = SenseBarrier(2, aspace, "lu.phase")

        def make(tid):
            def factory(api):
                for k in range(tiles):
                    # Phase 1: diagonal tile (thread 0), sibling waits.
                    if tid == 0:
                        state.factor_diag(k)
                        yield from state.emit_diag(k)
                    yield from barrier.wait(api)
                    # Phase 2: panels, alternating tiles.
                    for idx, j in enumerate(range(k + 1, tiles)):
                        if idx % 2 == tid:
                            state.update_row_panel(k, j)
                            yield from state.emit_row_panel(k, j)
                    for idx, i in enumerate(range(k + 1, tiles)):
                        if idx % 2 != tid:
                            state.update_col_panel(k, i)
                            yield from state.emit_col_panel(k, i)
                    yield from barrier.wait(api)
                    # Phase 3: trailing tiles, round-robin.
                    count = 0
                    for i in range(k + 1, tiles):
                        for j in range(k + 1, tiles):
                            if count % 2 == tid:
                                state.update_trailing(k, i, j)
                                yield from state.emit_trailing(k, i, j)
                            count += 1
                    yield from barrier.wait(api)

            return factory

        factories = [make(0), make(1)]

    elif variant is Variant.TLP_PFETCH:
        # Spans cover the tiles the worker will factor/update next, in
        # the worker's visit order within each step k.
        w_prog = SyncVar(aspace, "lu.w_prog", value=-1)

        def step_tiles(k: int) -> list[tuple[int, int]]:
            out = [(k, k)]
            out += [(k, j) for j in range(k + 1, tiles)]
            out += [(i, k) for i in range(k + 1, tiles)]
            out += [(i, j) for i in range(k + 1, tiles)
                    for j in range(k + 1, tiles)]
            return out

        def step_prefetch_tiles(k: int) -> list[tuple[int, int]]:
            """Every *input* tile of every phase of step k, in use
            order — tiles recur once per phase that reads them, which
            (with the per-element address recomputation) is what makes
            the paper's LU prefetcher as µop-hungry as its worker."""
            out = [(k, k)]
            for j in range(k + 1, tiles):
                out += [(k, k), (k, j)]
            for i in range(k + 1, tiles):
                out += [(k, k), (i, k)]
            for i in range(k + 1, tiles):
                for j in range(k + 1, tiles):
                    out += [(i, k), (k, j), (i, j)]
            return out

        all_tiles = [t_ for k in range(tiles) for t_ in step_tiles(k)]
        pf_tiles = [t_ for k in range(tiles) for t_ in step_prefetch_tiles(k)]
        plan = span_plan = plan_spans(
            total_items=len(all_tiles),
            bytes_per_item=state.A.tile_bytes(),
            mem_config=mem,
        )
        # Prefetch tiles mapped onto worker spans proportionally.
        pf_per_span = max(1, len(pf_tiles) // plan.num_spans)

        def worker(api):
            item = 0
            last_span = -1
            for k in range(tiles):
                for which in step_tiles(k):
                    span = plan.span_of(item)
                    if span != last_span:
                        yield from advance_var(w_prog, api, span)
                        last_span = span
                    item += 1
                    i, j = which
                    if (i, j) == (k, k):
                        state.factor_diag(k)
                        yield from state.emit_diag(k)
                    elif i == k:
                        state.update_row_panel(k, j)
                        yield from state.emit_row_panel(k, j)
                    elif j == k:
                        state.update_col_panel(k, i)
                        yield from state.emit_col_panel(k, i)
                    else:
                        state.update_trailing(k, i, j)
                        yield from state.emit_trailing(k, i, j)

        def prefetcher(api):
            for s in range(plan.num_spans):
                yield from wait_ge(w_prog, s - plan.lookahead, api,
                                   mode=WaitMode.SPIN)
                lo = s * pf_per_span
                hi = len(pf_tiles) if s == plan.num_spans - 1 \
                    else lo + pf_per_span
                for (ti, tj) in pf_tiles[lo:hi]:
                    yield from prefetch_elements(
                        state.A.tile_base_addr(ti, tj),
                        state.A.tile_bytes(), elem_size=8,
                        site=SITE_PREFETCH, logic_cost=3,
                    )

        factories = [worker, prefetcher]

    else:
        raise ConfigError(f"LU does not implement {variant}")

    return WorkloadBuild(
        name="lu",
        variant=variant,
        factories=tiled_factories(factories, [state.A.region],
                                  variant in _RECORDABLE),
        aspace=aspace,
        reference_check=state.check,
        meta={
            "n": n,
            "tile": tile,
            "paper_size": {v: k for k, v in PAPER_SIZES.items()}.get(n),
            "worker_tid": 0,
            "span_plan": span_plan,
        },
    )
