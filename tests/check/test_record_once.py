"""A recordable app cell's traces are recorded once per process.

The sweep preflight records and machine-checks each thread's trace;
the cell's cache key is a pure function of the cell and the machine
configs, so it records nothing — and equals the key a process without
preflight computes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.workloads.common as workloads_common
from repro.check.preflight import preflight_cells
from repro.sweep import ResultCache, SweepEngine
from repro.sweep.cells import app_cell
from repro.workloads.common import Variant

SRC = Path(__file__).resolve().parents[2] / "src"

#: Two recordable threads: both the certificate check and the race
#: scan read each thread's trace.
CELL = ("mm", Variant.TLP_COARSE, {"n": 16})


@pytest.fixture
def recordings(monkeypatch):
    """Count trace recordings (``compile_tiled`` calls) in this process."""
    calls = []
    original = workloads_common.compile_tiled

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(workloads_common, "compile_tiled", counting)
    return calls


def _fresh_process_key() -> str:
    code = (
        "from repro.sweep.cells import app_cell\n"
        "from repro.workloads.common import Variant\n"
        f"print(app_cell({CELL[0]!r}, Variant.{CELL[1].name}, "
        f"{CELL[2]!r}).key())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_preflight_then_key_records_each_thread_once(recordings):
    cell = app_cell(*CELL)
    preflight_cells([cell])
    assert len(recordings) == 2          # one per thread
    key = cell.key()
    assert len(recordings) == 2          # the key reused the preflight's
    assert cell.key() == key
    assert len(recordings) == 2
    assert key == _fresh_process_key()


def test_key_without_preflight_records_once(recordings):
    """Not even once: the key carries no certificate fingerprints."""
    cell = app_cell(*CELL)
    key = cell.key()
    assert app_cell(*CELL).key() == key
    assert len(recordings) == 0


def test_no_check_engine_stores_under_the_same_key(recordings, tmp_path):
    cell = app_cell(*CELL)
    expected = _fresh_process_key()
    cache = ResultCache(tmp_path)
    SweepEngine(cache=cache, check=False).run([cell])
    entry = cache.get(expected)
    assert entry is not None and entry["kind"] == "app-run"
    assert json.dumps(entry["config"], sort_keys=True) == json.dumps(
        cell.config, sort_keys=True)
