"""The recurrence certification pass: lattice facts, window scanning,
machine checking, and the static/dynamic agreement property.

The property test at the bottom is the soundness contract in
miniature: for any legal stream, the statically certified position
period must divide every position delta the dynamic detector proves
and jumps by — or the detector must decline to jump at all.  The
``last_jump()`` hook observes the anchor pair without feeding back
into detection.
"""

import dataclasses

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.check.recurrence import (
    RECURRENCE_SCHEMA_VERSION,
    RecurrenceCertificate,
    cache_geometry,
    certify_stream,
    certify_tiled,
    certify_trace,
)
from repro.common.addrspace import AddressSpace
from repro.core.streams import _VECTOR_BYTES
from repro.cpu import fastpath as _fastpath
from repro.isa import F, Instr, Op
from repro.isa.streams import ILP, STREAM_OPS, StreamSpec
from repro.isa.trace import PHASE, compile_stream, compile_tiled
from repro.runtime.program import Program


def _stream_trace(name, ilp=ILP.MAX, stride=1, count=1 << 30):
    spec = StreamSpec(name, ilp=ilp, count=count, stride=stride)
    region = None
    if spec.is_memory:
        region = AddressSpace().alloc("v", _VECTOR_BYTES, elem_size=1)
    return compile_stream(spec, region)


def _cyclic_tiled(tiles=4, passes=16, lines_per_tile=8):
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

    return compile_tiled(gen(), [region])


def _aperiodic_tiled(tiles=16, lines_per_tile=8):
    aspace = AddressSpace()
    region = aspace.alloc("a", tiles * tiles * lines_per_tile * 64)

    def gen():
        for tile in range(tiles):
            base = region.base + tile * tile * lines_per_tile * 64
            for j in range(lines_per_tile):
                yield Instr.load(base + j * 64, dst=F(0))
                yield Instr.arith(Op.FADD, dst=F(1), src=F(0))
            yield PHASE

    return compile_tiled(gen(), [region])


class TestStreamLattice:
    def test_arith_period_is_the_rotation(self):
        trace = _stream_trace("fadd")
        cert = certify_stream(trace)
        assert cert.verdict == "periodic"
        assert cert.translation == "arith"
        assert cert.period_pos == trace.pattern_len

    def test_memory_period_is_a_pattern_multiple(self):
        cert = certify_stream(_stream_trace("fload"))
        assert cert.verdict == "periodic"
        assert cert.translation in ("sliding", "pass-identity")
        assert cert.period_pos > 0

    def test_every_catalog_stream_is_periodic(self):
        for name in sorted(STREAM_OPS):
            for ilp in ILP:
                cert = certify_stream(_stream_trace(name, ilp))
                assert cert.verdict == "periodic", (name, ilp)
                assert cert.period_pos > 0


class TestTiledWindows:
    def test_cyclic_trace_certifies_recurrent(self):
        cert = certify_tiled(_cyclic_tiled())
        assert cert.verdict == "recurrent"
        assert cert.windows
        assert cert.aligned_phases()
        # Whole-pass identity: some window advances with zero deltas.
        assert any(not any(w.deltas) for w in cert.windows)

    def test_aperiodic_trace_certifies_none(self):
        cert = certify_tiled(_aperiodic_tiled())
        assert cert.verdict == "none"
        assert not cert.windows
        assert cert.aligned_phases() == ()

    def test_certify_trace_dispatches_and_rejects(self):
        assert certify_trace(_cyclic_tiled()).kind == "tiled"
        assert certify_trace(_stream_trace("iadd")).kind == "stream"
        assert certify_trace(iter([])) is None


class TestMachineCheck:
    def test_honest_certificates_validate_clean(self):
        tiled = _cyclic_tiled()
        assert certify_tiled(tiled).validate(tiled) == []
        stream = _stream_trace("fload")
        assert certify_stream(stream).validate(stream) == []

    def test_wrong_trace_is_rejected(self):
        cert = certify_tiled(_cyclic_tiled())
        problems = cert.validate(_aperiodic_tiled())
        assert problems

    def test_forged_verdict_is_rejected(self):
        trace = _aperiodic_tiled()
        cert = dataclasses.replace(certify_tiled(trace),
                                   verdict="recurrent")
        assert any("recurrent" in p for p in cert.validate(trace))

    def test_stale_schema_version_is_rejected(self):
        trace = _cyclic_tiled()
        cert = dataclasses.replace(
            certify_tiled(trace),
            schema_version=RECURRENCE_SCHEMA_VERSION + 1)
        assert any("schema_version" in p for p in cert.validate(trace))

    def test_kind_mismatch_is_rejected(self):
        stream_cert = certify_stream(_stream_trace("fload"))
        assert stream_cert.validate(_cyclic_tiled())

    def test_certify_gate_machine_checks_every_recorded_trace(
            self, monkeypatch):
        """``certify --verify`` certifies each recorded app trace and
        machine-checks the result: a certifier that forges must fail
        the gate.  The replay half of the gate is stubbed out (one
        shared result) — it is not what this test checks."""
        import repro.check.recurrence as _rec
        import repro.core.apps as _apps
        from repro.cli import _certify_verify
        from repro.workloads.common import Variant

        result = _apps.run_app_experiment("mm", Variant.SERIAL, {"n": 16})
        monkeypatch.setattr(_apps, "run_app_experiment",
                            lambda *a, **kw: result)
        honest = _rec.certify_tiled
        monkeypatch.setattr(
            _rec, "certify_tiled", lambda trace, *a, **kw:
            dataclasses.replace(honest(trace, *a, **kw), nphases=-1))
        problems = _certify_verify("small")
        assert problems
        assert all("fails its machine check" in p for p in problems)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        cert = certify_tiled(_cyclic_tiled(), subject="mm/serial/t0")
        back = RecurrenceCertificate.from_dict(cert.to_dict())
        assert back == cert

    def test_fingerprint_ignores_the_subject(self):
        cert = certify_tiled(_cyclic_tiled(), subject="")
        relabeled = dataclasses.replace(cert, subject="mm/serial/t0")
        assert cert.fingerprint() == relabeled.fingerprint()

    def test_fingerprint_sees_structure(self):
        cert = certify_tiled(_cyclic_tiled())
        other = certify_tiled(_aperiodic_tiled())
        assert cert.fingerprint() != other.fingerprint()

    def test_geometry_is_positive(self):
        pm, gb = cache_geometry()
        assert pm > 0 and gb > 0


# ---------------------------------------------------------------------------
# Static/dynamic agreement (the soundness property)
# ---------------------------------------------------------------------------

@seed(20260808)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(name=st.sampled_from(sorted(STREAM_OPS)),
       ilp=st.sampled_from(list(ILP)),
       stride=st.integers(min_value=1, max_value=8))
def test_static_period_divides_every_dynamic_jump(name, ilp, stride):
    """For any legal stream: if the dynamic detector proves a pair and
    jumps, every per-thread position delta of the anchor pair is a
    whole multiple of the statically certified ``period_pos``; if no
    sound pair exists within the horizon, both sides stand down (the
    hook stays empty) — never a jump off the lattice."""
    spec = StreamSpec(name, ilp=ilp, count=1 << 30, stride=stride)
    region = None
    if spec.is_memory:
        region = AddressSpace().alloc("v", _VECTOR_BYTES, elem_size=1)
    cert = certify_stream(compile_stream(spec, region))
    assert cert.verdict == "periodic" and cert.period_pos > 0

    _fastpath._last_jump = None
    _fastpath.reset_stats()
    prog = Program(fastpath=True)
    trace = compile_stream(spec, region)
    prog.add_thread(lambda api, tr=trace: tr)
    prog.run(stop_at_tick=30_000)
    jump = _fastpath.last_jump()
    if jump is None:
        assert _fastpath.stats().jumps == 0
        return
    assert jump["k"] >= 1
    for dp in jump["dps"]:
        assert dp % cert.period_pos == 0, (
            f"dynamic jump delta {dp} is off the certified lattice "
            f"(period {cert.period_pos}, {cert.translation})")
