"""The benchmark's own tests, at tiny scale.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (a few minutes on 2 cores).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

#: Tiny stand-ins for the generated inputs: the same shapes, few cells.
TINY = {
    "streams": {"fig1_streams": ["iadd"],
                "pairs": [{"a": "fadd", "b": "iadd", "ilp": "MAX",
                           "stratum": "arithmetic"}]},
    "apps": {"sizes": {"lu": {"n": 16, "tile": 8}}, "cg_tile": None},
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def _run(monkeypatch, capsys, workload: str, trace: int,
         ref: str = reference.DEFAULT_PATH) -> tuple:
    if workload in TINY:
        monkeypatch.setattr(bench._inputs, "make_inputs",
                            lambda w, seed, seconds: TINY[w])
    monkeypatch.setattr(bench, "SERVE_TRACE_SECONDS", 2.0)
    code = bench.main(["--workload", workload, "--seed", "1",
                       "--seconds", "2", "--trace", str(trace),
                       "--reference", ref])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]), out


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_with_its_unit(monkeypatch, capsys, workload,
                                          trace):
    code, result, _ = _run(monkeypatch, capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_corrupted_reference_fails_the_run(monkeypatch, capsys, tmp_path):
    cells = reference.load()
    key = next(k for k in cells if k.startswith("stream-cpi:")
               and '"stream":"iadd"' in k)
    cells[key] = dict(cells[key], digest="0" * 32)
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps({"cells": cells}))
    code, result, out = _run(monkeypatch, capsys, "streams", 0, str(bad))
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("FAILED:") and key in line for line in out)


def test_same_seed_same_input_digest():
    for workload in bench.WORKLOADS:
        a = inputs.make_inputs(workload, 7, 10)
        b = inputs.make_inputs(workload, 7, 10)
        assert inputs.digest(a) == inputs.digest(b)
    assert (inputs.digest(inputs.make_inputs("serve", 7, 10))
            != inputs.digest(inputs.make_inputs("serve", 8, 10)))


def test_every_seed_draws_the_same_stratum_counts():
    for seed in range(20):
        pairs = inputs.streams_inputs(seed)["pairs"]
        counts = {}
        for p in pairs:
            counts[p["stratum"]] = counts.get(p["stratum"], 0) + 1
        assert counts == inputs.PAIR_COUNTS


def test_self_time_never_exceeds_duration(tmp_path):
    rec = spans.Recorder(str(tmp_path))
    leaf = rec.span("leaf", lambda: sum(range(1000)))
    hot = rec.hot("hot", lambda: None)

    def middle():
        for _ in range(3):
            leaf()
            hot()

    outer = rec.span("outer", rec.span("middle", middle))
    outer()
    outer()
    raw, _ = spans.load(str(tmp_path))
    expanded = spans.expand(raw)
    assert {s["name"] for s in expanded} == {"outer", "middle", "leaf",
                                             "hot"}
    selfs = spans.self_times(expanded)
    for s in expanded:
        assert 0.0 <= selfs[s["id"]] <= s["end"] - s["start"]
    roots = [s for s in raw if s["parent"] is None]
    assert len(roots) == 2
    for s in raw:
        root = next(r for r in roots if r["id"] == s["trace"])
        assert root["start"] <= s["start"] <= s["end"] <= root["end"]
    assert spans.inclusive(expanded, "outer") == pytest.approx(
        sum(r["end"] - r["start"] for r in roots))
