"""Seeded-defect fixtures for the hierarchical fast-forward verifier.

Mutation tests à la ``tests/check``: each test seeds one deliberate
defect into the super-period/tile fingerprint or the jump restore path
— a corruption class the structural snapshot verification exists to
rule out — and asserts the differential harness *kills* the mutant
(fastpath-on results diverge from fastpath-off, or the verifier refuses
the poisoned pair outright).  A surviving mutant would mean the
verification is vacuous for that class.

The nine classes, per the detector's soundness argument:

* stale prefetch tag      — restore forgets to translate ``_pf_tag``
* off-by-one wrap splice  — state extrapolates k+1 periods while the
                            clock and splice schedule advance k
* ignored rename map      — restore drops an in-flight rename-map
                            entry, so a dependent issues early
* cross-thread store ordering — restore scrambles which thread's
                            pending store commits next
* dropped monitor delta   — restore loses one counter row's
                            extrapolated delta
* forged certificate      — a recurrence certificate lifted from a
                            different trace claims recurrence where
                            none exists
* corrupted cert-guided restore — the off-by-one, seeded specifically
                            under certificate guidance
* forged pair certificate — a joint certificate composed from a
                            different pair claims the wrong lattice
* corrupted pair-cert-guided restore — the off-by-one, seeded under
                            joint-lattice guidance
"""

import dataclasses

from repro.check.compose import _stream_trace, compose_pair
from repro.check.recurrence import attach_certificate
from repro.common.addrspace import AddressSpace
from repro.cpu.fastpath import FastPath
from repro.cpu import fastpath as _fastpath
from repro.isa import F, Instr, Op
from repro.isa.streams import ILP, StreamSpec
from repro.isa.trace import PHASE, compile_stream, compile_tiled
from repro.runtime.program import Program

_ENDLESS = 1 << 30
_H = 220_000


def _run(names, fastpath, ilp=ILP.MAX, horizon=_H):
    prog = Program(fastpath=fastpath)
    for i, name in enumerate(names):
        spec = StreamSpec(name, ilp=ilp, count=_ENDLESS)
        region = None
        if spec.is_memory:
            region = prog.aspace.alloc(f"v{i}", 16384, elem_size=1)
        trace = compile_stream(spec, region)
        prog.add_thread(lambda api, tr=trace: tr)
    result = prog.run(stop_at_tick=horizon)
    return {
        "ticks": result.ticks,
        "retired": result.retired,
        "units": dict(result.unit_issue_counts),
        "monitor": [list(row) for row in result.monitor.raw],
    }


def _kill_check(names, seed_defect, monkeypatch, ilp=ILP.MAX,
                horizon=_H):
    """Stock A/B must agree; the seeded mutant must diverge."""
    baseline = _run(names, False, ilp=ilp, horizon=horizon)
    _fastpath.reset_stats()
    stock = _run(names, True, ilp=ilp, horizon=horizon)
    assert stock == baseline, "stock fastpath must be invisible"
    assert _fastpath.stats().jumps >= 1, (
        "fixture run must actually exercise the jump path")
    seed_defect(monkeypatch)
    _fastpath.reset_stats()
    mutated = _run(names, True, ilp=ilp, horizon=horizon)
    assert _fastpath.stats().jumps >= 1, (
        "mutant must still jump — a refusal to engage proves nothing")
    assert mutated != baseline, (
        "seeded defect survived: the structural verification never "
        "depended on the corrupted state")


# -- 1. stale prefetch tag ---------------------------------------------------

def _seed_stale_pf_tag(monkeypatch):
    orig = FastPath._apply

    def apply_stale_tags(self, prev, cap, k, period, dps, dls, tinfo,
                         windows_k, plan):
        stale = set(self.core.hierarchy._pf_tag)
        orig(self, prev, cap, k, period, dps, dls, tinfo, windows_k, plan)
        hier = self.core.hierarchy
        hier._pf_tag.clear()
        hier._pf_tag.update(stale)

    monkeypatch.setattr(FastPath, "_apply", apply_stale_tags)


def test_stale_prefetch_tag_is_caught(monkeypatch):
    _kill_check(["fload", "iload"], _seed_stale_pf_tag, monkeypatch)


# -- 2. off-by-one wrap splice -----------------------------------------------

def _seed_off_by_one_splice(monkeypatch):
    orig = FastPath._apply

    def apply_one_extra(self, prev, cap, k, period, dps, dls, tinfo,
                        windows_k, plan):
        # The jump schedule (clock, splice sleep, next capture) still
        # advances k periods, but the architectural state advances k+1
        # — the classic off-by-one between the splice arithmetic and
        # the state extrapolation it must stay in lockstep with.
        orig(self, prev, cap, k + 1, period, dps, dls, tinfo,
             windows_k, plan)

    monkeypatch.setattr(FastPath, "_apply", apply_one_extra)


def test_off_by_one_wrap_splice_is_caught(monkeypatch):
    _kill_check(["fload", "iload"], _seed_off_by_one_splice, monkeypatch)


# -- 3. ignored rename map ---------------------------------------------------

def _seed_ignored_regmap(monkeypatch):
    orig = FastPath._apply

    def apply_ignoring_regmap(self, prev, cap, k, period, dps, dls,
                              tinfo, windows_k, plan):
        orig(self, prev, cap, k, period, dps, dls, tinfo, windows_k,
             plan)
        # Drop one in-flight rename mapping: the next reader of that
        # register no longer sees its producer and issues early.
        for th in self.core.threads:
            for reg, p in list(th.regmap.items()):
                if not p.completed:
                    del th.regmap[reg]
                    return

    monkeypatch.setattr(FastPath, "_apply", apply_ignoring_regmap)


def test_ignored_rename_map_is_caught(monkeypatch):
    # MIN ILP: the serial dependency chains keep a divide in flight —
    # and hence a live rename mapping — at every jump boundary.
    _kill_check(["idiv", "fdiv"], _seed_ignored_regmap, monkeypatch,
                ilp=ILP.MIN)


# -- 4. cross-thread store ordering ------------------------------------------

def _seed_unordered_drain(monkeypatch):
    orig = FastPath._apply

    def apply_unordered_drain(self, prev, cap, k, period, dps, dls,
                              tinfo, windows_k, plan):
        orig(self, prev, cap, k, period, dps, dls, tinfo, windows_k,
             plan)
        # Reassign each thread's pending store-release schedule to the
        # other thread: the stores themselves survive, but their global
        # commit interleaving — which thread's store wins the shared
        # commit port next — is scrambled.
        sq = self.core._sq_release
        if len(sq) == 2 and list(sq[0]) != list(sq[1]):
            sq[0], sq[1] = sq[1], sq[0]

    monkeypatch.setattr(FastPath, "_apply", apply_unordered_drain)


def test_cross_thread_store_ordering_is_caught(monkeypatch):
    _kill_check(["fstore", "istore"], _seed_unordered_drain, monkeypatch)


# -- 5. dropped monitor delta ------------------------------------------------

def _seed_dropped_monitor_delta(monkeypatch):
    orig = FastPath._apply

    def apply_dropping_delta(self, prev, cap, k, period, dps, dls, tinfo,
                             windows_k, plan):
        raw = self.core.monitor.raw
        before = [list(row) for row in raw]
        orig(self, prev, cap, k, period, dps, dls, tinfo, windows_k, plan)
        # Drop the extrapolated delta of the first row that moved.
        for e, row in enumerate(raw):
            if list(row) != before[e]:
                for cpu in range(len(row)):
                    row[cpu] = before[e][cpu]
                break

    monkeypatch.setattr(FastPath, "_apply", apply_dropping_delta)


def test_dropped_monitor_delta_is_caught(monkeypatch):
    _kill_check(["fload", "iload"], _seed_dropped_monitor_delta, monkeypatch)


# -- 6. forged certificate ---------------------------------------------------

def _cyclic_tiled(tiles, passes, lines_per_tile=8):
    """Genuinely recurrent: ``passes`` sweeps over the same tiles."""
    aspace = AddressSpace()
    region = aspace.alloc("a", tiles * lines_per_tile * 64)

    def gen():
        for _p in range(passes):
            for tile in range(tiles):
                base = region.base + tile * lines_per_tile * 64
                for j in range(lines_per_tile):
                    yield Instr.load(base + j * 64, dst=F(0))
                    yield Instr.arith(Op.FADD, dst=F(1), src=F(0))
                yield PHASE

    return gen, [region]


def _aperiodic_tiled(tiles=40, lines_per_tile=8):
    """Genuinely non-recurrent: one pass, quadratically spaced tiles."""
    aspace = AddressSpace()
    region = aspace.alloc("a", tiles * tiles * lines_per_tile * 64)

    def gen():
        for tile in range(tiles):
            base = region.base + tile * tile * lines_per_tile * 64
            for j in range(lines_per_tile):
                yield Instr.load(base + j * 64, dst=F(0))
                yield Instr.arith(Op.FADD, dst=F(1), src=F(0))
            yield PHASE

    return gen, [region]


def _run_tiled(gen_factory, regions, fastpath, cert_from=None,
               horizon=None):
    trace = compile_tiled(gen_factory(), regions)
    if cert_from is not None:
        trace.cert = cert_from
    else:
        attach_certificate(trace)
    prog = Program(fastpath=fastpath)
    prog.add_thread(lambda api, tr=trace: tr)
    result = prog.run(stop_at_tick=horizon)
    return {
        "ticks": result.ticks,
        "retired": result.retired,
        "units": dict(result.unit_issue_counts),
        "monitor": [list(row) for row in result.monitor.raw],
    }


def test_forged_certificate_is_caught():
    """A certificate lifted from a recurrent trace and forged onto an
    aperiodic one must die twice over: the machine check rejects it
    statically, and the runtime — which treats certificates as capture
    hints, never as proof — stays byte-identical anyway, recording
    ``cert-mismatch`` once the aligned captures go nowhere."""
    cyc_gen, cyc_regions = _cyclic_tiled(tiles=4, passes=128)
    donor = attach_certificate(compile_tiled(cyc_gen(), cyc_regions))
    forged = donor.cert
    assert forged.verdict == "recurrent"

    ape_gen, ape_regions = _aperiodic_tiled()
    victim = compile_tiled(ape_gen(), ape_regions)
    assert attach_certificate(
        compile_tiled(ape_gen(), ape_regions)).cert.verdict == "none"

    # Static kill: validate() re-derives every claim against the trace.
    problems = forged.validate(victim)
    assert problems, "machine check must reject the forged certificate"

    # Runtime kill: hint-only consumption cannot corrupt results.
    baseline = _run_tiled(ape_gen, ape_regions, False)
    _fastpath.reset_stats()
    poisoned = _run_tiled(ape_gen, ape_regions, True, cert_from=forged)
    st = _fastpath.stats()
    assert poisoned == baseline, (
        "a forged certificate must never change simulated results")
    assert st.cert_runs == 1, "the forgery must actually arm cert mode"
    assert st.jumps == 0
    assert st.stand_downs.get("cert-mismatch", 0) == 1


# -- 7. corrupted cert-guided restore ----------------------------------------

def test_cert_guided_restore_off_by_one_is_caught(monkeypatch):
    """Certificate guidance changes where captures happen, not what a
    jump must prove — so the differential harness must kill a corrupted
    restore under cert guidance exactly as it does under dynamic
    detection."""
    # A horizon well inside the trace: the honest jump's k is capped by
    # the clock, not by trace exhaustion, so the k+1 mutant has trace
    # headroom to diverge into instead of tripping the cursor guard.
    gen, regions = _cyclic_tiled(tiles=4, passes=512)
    horizon = 40_000
    baseline = _run_tiled(gen, regions, False, horizon=horizon)
    _fastpath.reset_stats()
    stock = _run_tiled(gen, regions, True, horizon=horizon)
    assert stock == baseline, "stock cert-guided fastpath must be invisible"
    assert _fastpath.stats().cert_jumps >= 1, (
        "fixture run must jump under certificate guidance")

    _seed_off_by_one_splice(monkeypatch)
    _fastpath.reset_stats()
    mutated = _run_tiled(gen, regions, True, horizon=horizon)
    assert _fastpath.stats().cert_jumps >= 1, (
        "mutant must still jump — a refusal to engage proves nothing")
    assert mutated != baseline, (
        "seeded defect survived under certificate guidance")


# -- 8. forged pair certificate ----------------------------------------------

def _run_pair(names, fastpath, horizon=_H):
    """Like ``_run`` but with two compiled streams, which arms
    joint-lattice guidance."""
    prog = Program(fastpath=fastpath)
    for i, name in enumerate(names):
        spec = StreamSpec(name, ilp=ILP.MAX, count=_ENDLESS)
        region = None
        if spec.is_memory:
            region = prog.aspace.alloc(f"v{i}", 16384, elem_size=1)
        trace = compile_stream(spec, region)
        prog.add_thread(lambda api, tr=trace: tr)
    result = prog.run(stop_at_tick=horizon)
    return {
        "ticks": result.ticks,
        "retired": result.retired,
        "units": dict(result.unit_issue_counts),
        "monitor": [list(row) for row in result.monitor.raw],
    }


def test_forged_pair_certificate_is_caught():
    """A pair certificate whose *joint* lattice is forged — both
    per-side claims kept genuine, so every per-side check passes — must
    die statically: ``validate()`` re-derives the joint lattice and
    rejects it via the lcm consistency check."""
    genuine = compose_pair("fload", "iload")
    assert genuine.verdict == "joint-periodic"
    forged = dataclasses.replace(
        genuine, joint_period_pos=2 * genuine.joint_period_pos)

    problems = forged.validate(_stream_trace("fload", ILP.MAX),
                               _stream_trace("iload", ILP.MAX))
    assert problems, "machine check must reject the forged pair cert"


# -- 9. corrupted pair-cert-guided restore -----------------------------------

def test_pair_cert_guided_restore_off_by_one_is_caught(monkeypatch):
    """Joint-lattice guidance changes where captures happen, not what a
    jump must prove — the differential harness must kill a corrupted
    restore under pair-certificate guidance exactly as it does under
    dynamic detection."""
    cert = compose_pair("fload", "iload")
    assert not cert.validate(_stream_trace("fload", ILP.MAX),
                             _stream_trace("iload", ILP.MAX))

    baseline = _run_pair(["fload", "iload"], False)
    _fastpath.reset_stats()
    stock = _run_pair(["fload", "iload"], True)
    st = _fastpath.stats()
    assert stock == baseline, (
        "stock pair-cert-guided fastpath must be invisible")
    assert st.pair_cert_runs == 1
    assert st.pair_cert_jumps >= 1, (
        "fixture run must jump under joint-lattice guidance")

    _seed_off_by_one_splice(monkeypatch)
    _fastpath.reset_stats()
    mutated = _run_pair(["fload", "iload"], True)
    assert _fastpath.stats().pair_cert_jumps >= 1, (
        "mutant must still jump — a refusal to engage proves nothing")
    assert mutated != baseline, (
        "seeded defect survived under pair-certificate guidance")
