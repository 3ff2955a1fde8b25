"""The fast-forward's accounting: why it engaged — or declined to —
must be visible as structured counters, without ever influencing what
the simulator computes (that half of the contract lives in
test_fastpath_equiv; this file pins the observer itself)."""

import pytest

from repro.check.recurrence import certify_tiled
from repro.core.streams import measure_stream_cpi
from repro.cpu import fastpath as _fastpath
from repro.cpu.fastpath import FastpathStats, merge_stats
from repro.isa import Instr, Op, R
from repro.isa.streams import ILP, StreamSpec
from repro.isa.trace import compile_stream
from repro.observe import PipelineTracer
from repro.runtime.program import Program

H = 20_000


@pytest.fixture(autouse=True)
def _fresh_counters():
    _fastpath.reset_stats()
    yield
    _fastpath.reset_stats()


def _run_stream(fastpath, tracer=None):
    prog = Program(tracer=tracer, fastpath=fastpath)
    trace = compile_stream(StreamSpec("iadd", ilp=ILP.MAX, count=1 << 30))
    prog.add_thread(lambda api, tr=trace: tr)
    return prog.run(stop_at_tick=H)


class TestAcceptanceCounters:
    def test_engaged_run_jumps_and_skips_ticks(self):
        _run_stream(True)
        st = _fastpath.stats()
        assert st.runs == 1
        assert st.armed == 1
        assert st.captures >= 1
        assert st.jumps >= 1
        assert st.ticks_total == H
        assert 0 < st.ticks_skipped <= st.ticks_total
        assert st.coverage > 0.5       # steady iadd is the ideal case
        assert st.stand_downs == {}

    def test_ticks_total_counts_even_without_engagement(self):
        _run_stream(False)
        st = _fastpath.stats()
        assert st.ticks_total == H and st.ticks_skipped == 0
        assert st.coverage == 0.0


class TestStandDownReasons:
    def test_disabled(self):
        _run_stream(False)
        st = _fastpath.stats()
        assert st.stand_downs == {"disabled": 1}
        assert st.armed == 0 and st.jumps == 0

    def test_tracer_active(self):
        _run_stream(True, tracer=PipelineTracer())
        st = _fastpath.stats()
        assert st.stand_downs == {"tracer-active": 1}
        assert st.jumps == 0

    def test_plain_generator_source(self):
        def endless_iadds():
            while True:
                yield Instr.arith(Op.IADD, dst=R(0), src=R(8))

        prog = Program(fastpath=True)
        prog.add_thread(lambda api: endless_iadds())
        prog.run(stop_at_tick=2_000)
        st = _fastpath.stats()
        assert st.stand_downs.get("plain-generator", 0) >= 1
        assert st.jumps == 0

    def test_reasons_accumulate_across_runs(self):
        _run_stream(False)
        _run_stream(False)
        _run_stream(True, tracer=PipelineTracer())
        st = _fastpath.stats()
        assert st.runs == 3
        assert st.stand_downs == {"disabled": 2, "tracer-active": 1}


class TestSnapshotAndMerge:
    def test_to_dict_reasons_sorted(self):
        st = FastpathStats()
        st.bump(st.stand_downs, "horizon")
        st.bump(st.stand_downs, "disabled")
        st.bump(st.capture_aborts, "unmapped-addr")
        snap = st.to_dict()
        assert list(snap["stand_downs"]) == ["disabled", "horizon"]
        assert snap["capture_aborts"] == {"unmapped-addr": 1}

    def test_reset_returns_singleton_zeroed(self):
        _run_stream(True)
        st = _fastpath.reset_stats()
        assert st is _fastpath.stats()
        assert st.to_dict()["jumps"] == 0 and st.stand_downs == {}

    def test_merge_sums_scalars_and_reason_tables(self):
        into = {}
        a = {"jumps": 2, "ticks_skipped": 50, "ticks_total": 100,
             "stand_downs": {"horizon": 1}}
        b = {"jumps": 3, "ticks_skipped": 25, "ticks_total": 100,
             "stand_downs": {"horizon": 2, "disabled": 1},
             "capture_aborts": {"effectful-op": 4}}
        merge_stats(into, a)
        merge_stats(into, b)
        assert into == {"jumps": 5, "ticks_skipped": 75, "ticks_total": 200,
                        "stand_downs": {"horizon": 3, "disabled": 1},
                        "capture_aborts": {"effectful-op": 4}}

    def test_per_cell_delta_idiom(self):
        """reset() before / to_dict() after — what sweep workers do."""
        _run_stream(True)                      # noise from a prior cell
        _fastpath.reset_stats()
        _run_stream(False)
        delta = _fastpath.stats().to_dict()
        assert delta["runs"] == 1
        assert delta["stand_downs"] == {"disabled": 1}


class TestCaptureAbortTaxonomy:
    """A cell whose captures persistently abort must stand down under
    ``capture-abort:<reason>`` — not burn its budgets and report a
    generic (or worse, unrelated) bucket."""

    def _run_pair_with_aborting_captures(self, monkeypatch, reason):
        from repro.cpu.fastpath import FastPath

        def abort_capture(self, t):
            return self._abort(reason)

        monkeypatch.setattr(FastPath, "_capture", abort_capture)
        prog = Program(fastpath=True)
        for i in range(2):
            trace = compile_stream(
                StreamSpec("iadd", ilp=ILP.MAX, count=1 << 30))
            prog.add_thread(lambda api, tr=trace: tr)
        return prog.run(stop_at_tick=120_000)

    def test_persistent_aborts_attribute_stand_down(self, monkeypatch):
        self._run_pair_with_aborting_captures(monkeypatch, "effectful-op")
        st = _fastpath.stats()
        assert st.stand_downs.get("capture-abort:effectful-op", 0) == 1
        assert "no-threads" not in st.stand_downs
        assert "capture-budget" not in st.stand_downs
        assert "probe-budget" not in st.stand_downs
        assert st.capture_aborts.get("effectful-op", 0) >= 1
        assert st.jumps == 0

    def test_dominant_reason_wins(self, monkeypatch):
        from itertools import cycle

        from repro.cpu.fastpath import FastPath

        reasons = cycle(["off-rob-dep", "unmapped-addr", "unmapped-addr"])

        def abort_capture(self, t):
            return self._abort(next(reasons))

        monkeypatch.setattr(FastPath, "_capture", abort_capture)
        prog = Program(fastpath=True)
        trace = compile_stream(StreamSpec("iadd", ilp=ILP.MAX, count=1 << 30))
        prog.add_thread(lambda api, tr=trace: tr)
        prog.run(stop_at_tick=120_000)
        st = _fastpath.stats()
        assert st.stand_downs.get("capture-abort:unmapped-addr", 0) == 1

    def test_transient_aborts_do_not_stand_down(self):
        """The real pair harness aborts a handful of captures around
        marker retirement; that must stay far below the stand-down
        threshold and never disarm the cell."""
        measure_stream_cpi("iadd", ILP.MAX, 2, horizon_ticks=H)
        st = _fastpath.stats()
        assert not any(k.startswith("capture-abort:")
                       for k in st.stand_downs)
        assert st.jumps >= 1

    def test_abort_streak_resets_on_clean_capture(self):
        from repro.cpu.fastpath import FastPath, _ABORT_LIMIT

        fp = FastPath.__new__(FastPath)
        fp._st = _fastpath.stats()
        fp._abort_streak = 0
        fp._abort_reasons = {}
        fp._armed = True
        for _ in range(_ABORT_LIMIT - 1):
            fp._abort("effectful-op")
        assert not fp._abort_stand_down() and fp._armed
        fp._abort_streak = 0          # what a clean capture does
        fp._abort("effectful-op")
        assert not fp._abort_stand_down() and fp._armed
        fp._abort_streak = _ABORT_LIMIT
        assert fp._abort_stand_down() and not fp._armed


class TestDynamicAbortBackoff:
    def test_divider_drains_do_not_stand_down_dynamic_detection(
            self, monkeypatch):
        """fdiv+fdiv without lattice guidance: markers drain behind
        long divides, so captures abort for long stretches.  Dynamic
        detection must back off through them instead of charging each
        abort as a miss — no ``capture-abort`` stand-down, real jumps,
        and CPIs equal to the fast-forward-off run."""
        from repro.core.coexec import run_pair_cpis
        from repro.cpu.fastpath import FastPath

        plain = run_pair_cpis("fdiv", "fdiv", ILP.MAX, fastpath=False)
        monkeypatch.setattr(FastPath, "_arm_pair_cert", lambda self: None)
        _fastpath.reset_stats()
        guided = run_pair_cpis("fdiv", "fdiv", ILP.MAX, fastpath=True)
        st = _fastpath.stats()
        assert guided == plain
        assert st.pair_cert_runs == 0
        assert not any(k.startswith("capture-abort:")
                       for k in st.stand_downs)
        assert st.jumps >= 1


def _tiled_loop_program(tiles, passes, lines_per_tile=8):
    """A cyclic tiled workload: ``passes`` sweeps over ``tiles`` tiles
    of the same region.  Certifies ``recurrent`` (whole-pass identity:
    window deltas all zero at dphase == tiles), and after the cache
    warms the canonical key recurs pass over pass — the ideal
    certificate-guided case, in miniature."""
    from repro.common.addrspace import AddressSpace
    from repro.isa import F
    from repro.isa.trace import PHASE, compile_tiled

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

    trace = compile_tiled(gen(), [region])
    prog = Program(fastpath=True)
    prog.add_thread(lambda api, tr=trace: tr)
    return prog, trace


class TestCertificateGuidance:
    """The certificate-guided arm's accounting: cert-mode runs land in
    their own counters (``cert_runs``/``cert_captures``/``cert_jumps``)
    and the two stand-down verdicts — ``cert-none`` (proven fruitless,
    detection skipped) and ``cert-mismatch`` (static and dynamic views
    disagree, dynamic detection takes over) — are attributed exactly."""

    def test_cert_guided_run_jumps_under_cert_counters(self):
        prog, trace = _tiled_loop_program(tiles=4, passes=128)
        assert certify_tiled(trace).verdict == "recurrent"
        prog.run()
        st = _fastpath.stats()
        assert st.cert_runs == 1
        assert st.cert_captures >= 1
        assert st.cert_jumps >= 1
        assert st.jumps >= st.cert_jumps
        assert st.ticks_skipped > 0
        assert st.stand_downs == {}

    def test_cert_none_stands_down_without_any_capture(self):
        """Quadratic tile spacing: no phase distance admits a constant
        set-preserving shift, so the certificate proves the search
        fruitless and the run never arms at all."""
        from repro.common.addrspace import AddressSpace
        from repro.isa import F
        from repro.isa.trace import PHASE, compile_tiled

        aspace = AddressSpace()
        region = aspace.alloc("a", 24 * 24 * 8 * 64)

        def gen():
            for tile in range(24):
                base = region.base + tile * tile * 8 * 64
                for j in range(8):
                    yield Instr.load(base + j * 64, dst=F(0))
                    yield Instr.arith(Op.FADD, dst=F(1), src=F(0))
                yield PHASE

        trace = compile_tiled(gen(), [region])
        assert certify_tiled(trace).verdict == "none"
        prog = Program(fastpath=True)
        prog.add_thread(lambda api, tr=trace: tr)
        prog.run()
        st = _fastpath.stats()
        assert st.stand_downs == {"cert-none": 1}
        assert st.armed == 0 and st.captures == 0 and st.jumps == 0
        assert st.cert_runs == 0

    def test_cert_mismatch_falls_back_to_dynamic_detection(self):
        """Eight tiles per pass: the cache warms slower than the strike
        budget, so aligned captures never revisit a canonical state in
        time.  The run must record ``cert-mismatch`` — not a generic
        bucket — and hand the rest of the run to dynamic detection
        instead of disarming."""
        prog, trace = _tiled_loop_program(tiles=8, passes=64)
        assert certify_tiled(trace).verdict == "recurrent"
        prog.run()
        st = _fastpath.stats()
        assert st.stand_downs.get("cert-mismatch", 0) == 1
        assert st.cert_runs == 1
        assert st.cert_captures >= 1
        assert st.cert_jumps == 0
        assert "capture-budget" not in st.stand_downs
        assert "probe-budget" not in st.stand_downs
        # The fallback re-armed dynamic detection rather than standing
        # the run down outright.
        assert st.armed == 1


class TestPairCertificateGuidance:
    """The pair-lattice arm's accounting: a run of two compiled streams
    lands in ``pair_cert_runs``/``pair_cert_captures``/
    ``pair_cert_jumps``, and guided captures that keep missing hand the
    run to dynamic detection under ``pair-cert-mismatch``."""

    def _run_pair(self, names=("fload", "iload"), horizon=220_000):
        prog = Program(fastpath=True)
        for i, name in enumerate(names):
            spec = StreamSpec(name, ilp=ILP.MAX, count=1 << 30)
            region = None
            if spec.is_memory:
                region = prog.aspace.alloc(f"v{i}", 16384, elem_size=1)
            trace = compile_stream(spec, region)
            prog.add_thread(lambda api, tr=trace: tr)
        return prog.run(stop_at_tick=horizon)

    def test_pair_cert_run_jumps_under_pair_counters(self):
        self._run_pair()
        st = _fastpath.stats()
        assert st.pair_cert_runs == 1
        assert st.pair_cert_captures >= 1
        assert st.pair_cert_jumps >= 1
        assert st.jumps >= st.pair_cert_jumps
        assert st.ticks_skipped > 0
        assert st.stand_downs == {}

    def test_pair_cert_mismatch_falls_back_to_dynamic_detection(self):
        """fadd+iadd at MED ILP: the guided captures keep missing, the
        strikes record ``pair-cert-mismatch``, and dynamic detection
        still jumps — byte-identical to the fast-forward-off run."""
        from repro.core.coexec import run_pair_cpis

        plain = run_pair_cpis("fadd", "iadd", ILP.MED, fastpath=False)
        _fastpath.reset_stats()
        guided = run_pair_cpis("fadd", "iadd", ILP.MED, fastpath=True)
        st = _fastpath.stats()
        assert guided == plain
        assert st.pair_cert_runs == 1
        assert st.stand_downs.get("pair-cert-mismatch", 0) == 1
        assert st.jumps >= 1

    def test_persistent_aborts_stand_down_a_guided_run(self, monkeypatch):
        """Two compiled streams arm the lattice; captures that always
        abort must still reach the abort stand-down."""
        from repro.cpu.fastpath import FastPath

        monkeypatch.setattr(FastPath, "_capture",
                            lambda self, t: self._abort("effectful-op"))
        self._run_pair(names=("iadd", "iadd"), horizon=120_000)
        st = _fastpath.stats()
        assert st.pair_cert_runs == 1
        assert st.stand_downs == {"capture-abort:effectful-op": 1}
        assert st.jumps == 0


class TestCountersDoNotPerturbResults:
    def test_counters_are_pure_observers(self):
        r1 = measure_stream_cpi("iadd", ILP.MAX, 2, horizon_ticks=H)
        _fastpath.reset_stats()
        r2 = measure_stream_cpi("iadd", ILP.MAX, 2, horizon_ticks=H)
        snap = _fastpath.stats().to_dict()
        r3 = measure_stream_cpi("iadd", ILP.MAX, 2, horizon_ticks=H)
        assert r1.cpi == r2.cpi == r3.cpi
        assert snap["runs"] == 1
