"""Phase-marker tags: signature widening for multi-sweep workloads.

A ``PhaseMarker`` carries an integer ``tag`` that widens the recorded
phase signature: :func:`compile_tiled` dedups patterns under
``(tag, pattern)``, so identical instruction rows recorded in
differently-tagged phases stay distinct pattern ids and the recurrence
machinery can never pair captures across a signature boundary.  BT is
the motivating case — its three directional sweeps touch the grid
through different strides, and untagged recording let x-sweep lines
alias with y-sweep lines whenever their relative rows coincided.
"""

from repro.check.recurrence import certify_tiled
from repro.common.addrspace import AddressSpace
from repro.isa import F, Instr, Op
from repro.isa.trace import PHASE, PhaseMarker, compile_tiled
from repro.pintool import DryRunAPI
from repro.workloads import bt
from repro.workloads.common import Variant


def _region():
    return AddressSpace().alloc("a", 4096)


def _line(region, base_off=0):
    yield Instr.load(region.base + base_off, dst=F(0))
    yield Instr.arith(Op.FADD, dst=F(1), src=F(0))


class TestMarkerSemantics:
    def test_shared_marker_carries_tag_zero(self):
        assert PHASE.tag == 0
        assert PhaseMarker().tag == 0

    def test_custom_tag_is_preserved(self):
        assert PhaseMarker(2).tag == 2

    def test_markers_are_not_instructions(self):
        region = _region()

        def gen():
            yield PhaseMarker(1)
            yield from _line(region)
            yield PhaseMarker(2)
            yield from _line(region)

        trace = compile_tiled(gen(), [region])
        assert trace.count == 4          # two 2-instruction lines


class TestTaggedDeduplication:
    def test_same_pattern_same_tag_collapses(self):
        region = _region()

        def gen():
            for _ in range(3):
                yield PHASE
                yield from _line(region)

        trace = compile_tiled(gen(), [region])
        assert len(trace.phases) == 3
        assert len(trace.patterns) == 1

    def test_same_pattern_distinct_tags_stay_distinct(self):
        region = _region()

        def gen():
            for tag in (0, 1, 0, 1):
                yield PhaseMarker(tag)
                yield from _line(region)

        trace = compile_tiled(gen(), [region])
        assert len(trace.phases) == 4
        assert len(trace.patterns) == 2

    def test_instructions_before_any_marker_carry_tag_zero(self):
        region = _region()

        def gen():
            yield from _line(region)     # implicit leading tag 0
            yield PHASE                  # tag 0 again
            yield from _line(region)
            yield PhaseMarker(1)
            yield from _line(region)

        trace = compile_tiled(gen(), [region])
        assert len(trace.phases) == 3
        assert len(trace.patterns) == 2


class TestBTDirectionalSignature:
    """The measured regression satellite: tagging BT's sweeps by
    direction keeps the three directional line patterns distinct, and
    the serial trace *stays* recurrent — two per-direction windows,
    each confined to a single sweep, never pairing across the
    direction boundary where the reference deltas change stride."""

    def test_bt_serial_stays_recurrent_with_per_direction_windows(self):
        build = bt.build(Variant.SERIAL, grid=8)
        trace = build.factories[0](DryRunAPI())
        assert len(trace.patterns) == 3      # one pattern per direction
        nlines = len(trace.phases) // 3      # phases per sweep

        cert = certify_tiled(trace)
        assert cert.verdict == "recurrent"
        assert len(cert.windows) == 2
        for w in cert.windows:
            assert w.start // nlines == w.end // nlines, (
                "a recurrence window paired across a sweep boundary")
