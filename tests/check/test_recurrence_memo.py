"""Regression tests for the tiled-recurrence certification memo.

The expensive part of ``certify_tiled`` is the O(nphases^2) window
scan.  Rebuilding a workload with identical geometry must reuse the
memoized certificate — in particular for verdict-``none`` traces (LU
serial), which previously paid the full scan on every rebuild just to
relearn that nothing is certifiable.
"""

import pytest

import repro.check.recurrence as recurrence
from repro.check.recurrence import (certify_tiled, reset_scan_counters,
                                    scan_counters)
from repro.pintool import DryRunAPI
from repro.workloads import lu, matmul
from repro.workloads.common import Variant


def _certify_lu(n=16, tile=8):
    """Build LU serial, bind its (recordable) thread factory and certify
    the compiled tiled trace — no simulation."""
    build = lu.build(Variant.SERIAL, n=n, tile=tile)
    return certify_tiled(build.factories[0](DryRunAPI(aspace=build.aspace)))


@pytest.fixture(autouse=True)
def clean_memo():
    recurrence._TILED_MEMO.clear()
    reset_scan_counters()
    yield
    recurrence._TILED_MEMO.clear()
    reset_scan_counters()


class TestMemo:
    def test_second_identical_build_skips_the_scan(self):
        cert1 = _certify_lu()
        first = reset_scan_counters()
        assert first["scans"] >= 1
        assert first["memo_hits"] == 0

        cert2 = _certify_lu()
        second = scan_counters()
        assert second["scans"] == 0
        assert second["memo_hits"] >= 1
        # LU serial is the verdict-'none' case this satellite exists
        # for: the rebuild must skip the scan *and* remember that the
        # answer was "nothing certifiable".
        assert second["none_skips"] >= 1
        assert cert1.verdict == "none"
        assert cert2.verdict == cert1.verdict

    def test_memoized_certificate_is_equivalent(self):
        c1 = _certify_lu()
        c2 = _certify_lu()
        assert c2.verdict == c1.verdict
        assert c2.fingerprint() == c1.fingerprint()

    def test_different_geometry_rescans(self):
        _certify_lu(n=16, tile=8)
        reset_scan_counters()
        _certify_lu(n=16, tile=4)
        snap = scan_counters()
        assert snap["scans"] >= 1

    def test_recurrent_verdict_also_memoized(self):
        """The memo is not 'none'-only: a certifiable trace (matmul
        serial) reuses its positive certificate too."""
        def certify_mm():
            b = matmul.build(Variant.SERIAL)
            return certify_tiled(b.factories[0](DryRunAPI(aspace=b.aspace)))

        c1 = certify_mm()
        reset_scan_counters()
        c2 = certify_mm()
        snap = scan_counters()
        assert snap["scans"] == 0
        assert snap["memo_hits"] >= 1
        assert c2.verdict == c1.verdict
        assert c2.fingerprint() == c1.fingerprint()


class TestCounters:
    def test_reset_returns_pre_reset_snapshot(self):
        _certify_lu()
        live = scan_counters()
        snap = reset_scan_counters()
        assert snap == live
        assert scan_counters() == {"scans": 0, "memo_hits": 0,
                                   "none_skips": 0}

    def test_snapshot_is_a_copy(self):
        snap = scan_counters()
        snap["scans"] = 999
        assert scan_counters()["scans"] != 999
