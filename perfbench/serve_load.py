"""The ``repro serve`` daemon under an open-loop load.

One generator process (this one) drives two Poisson arrival streams,
each on its own keep-alive connection: *readers* (warm ``/cells``
reads, ``/manifest`` reads, follow-ups of fresh submissions) and
*submitters* (novel cells that miss the cache).  Every request is
timed from when it was due, so a stalled connection charges its wait
to the requests queued behind it.

One exception keeps the warm figures about the warm path: a follow-up
that joins an in-flight simulation holds the readers' connection for
the rest of that simulation, so every request that queues in the busy
period it starts is marked ``behind_join``.  Those requests are checked
and counted, but the warm percentiles leave them out: their wait is
simulation time, which the cold figures already measure, and a faster
simulator must not show up as faster warm reads.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from inputs import percentile

#: Warm p99 limit for the rate ladder (ms).  Fixed from measurements on
#: a 2-vCPU host: at the base rate the warm p99 is 50-110 ms (a
#: /manifest answer takes ~20 ms and the cold path's checks and the
#: pool worker compete for the CPU); once the reader connection
#: saturates, near 350-400 req/s, a backlog grows and the p99 passes
#: the limit within a ladder step.
LATENCY_LIMIT_MS = 200.0
#: Fewest warm samples a ladder step is judged on.
MIN_STEP_SAMPLES = 20
#: A ladder step whose sends run this far behind their due times is
#: cut short, and the higher steps are not sent.
ABANDON_LAG_S = 1.0
#: Latency percentiles are taken per window of due times, then the
#: median over a step's windows is reported.
WINDOW_S = 1.0
MIN_WINDOW_SAMPLES = 20
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def wait_child(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Reap ``proc``; returns (exit code, peak RSS in MB of it and every
    descendant it reaped).  Kills it if ``timeout`` passes first."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def http(host: str, port: int, method: str, path: str,
         body: bytes = b"", timeout: float = REQUEST_TIMEOUT_S
         ) -> Tuple[int, bytes]:
    """One blocking request on its own connection."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request(method, path, body, keep=False))
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def request(method: str, path: str, body: bytes, keep: bool = True
             ) -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
            ).encode() + body


class Daemon:
    """A ``repro serve --jobs 1`` subprocess on a fresh cache."""

    def __init__(self, root: str, work: str, env: dict,
                 trace_dir: Optional[str] = None):
        self.root, self.work, self.env = root, work, env
        self.trace_dir = trace_dir
        self.host, self.port = "127.0.0.1", 0
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Launch; returns seconds until ``/healthz`` answers."""
        os.makedirs(self.work, exist_ok=True)
        ready = os.path.join(self.work, "ready")
        args = ["--host", self.host, "--port", "0", "--jobs", "1",
                "--cache-dir", os.path.join(self.work, "cache"),
                "--telemetry-dir", os.path.join(self.work, "telemetry"),
                "--ready-file", ready]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + args
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench",
                                           "daemon.py"),
                   self.trace_dir] + args
        log = open(os.path.join(self.work, "daemon.log"), "wb")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                     stdout=log, stderr=log)
        log.close()
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f"; see {self.work}/daemon.log")
            if time.monotonic() - t0 > START_TIMEOUT_S:
                wait_child(self.proc, 0.0)
                raise RuntimeError("daemon did not become healthy")
            if os.path.exists(ready):
                with open(ready) as fp:
                    parts = fp.read().split()
                if len(parts) == 2:
                    self.port = int(parts[1])
                    try:
                        status, _ = http(self.host, self.port, "GET",
                                         "/healthz", timeout=5)
                        if status == 200:
                            return time.monotonic() - t0
                    except OSError:
                        pass
            time.sleep(0.002)

    def stats(self) -> dict:
        status, body = http(self.host, self.port, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)["counters"]

    def stop(self) -> float:
        """Interrupt and reap; returns the tree's peak RSS in MB."""
        if self.proc is None or self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGINT)
        _code, rss = wait_child(self.proc, STOP_TIMEOUT_S)
        return rss

    def telemetry_logs(self) -> List[str]:
        d = os.path.join(self.work, "telemetry")
        return [os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".jsonl")] if os.path.isdir(d) else []


# -- the open loop ---------------------------------------------------------

async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _drive(host: str, port: int, items: List[dict], t0: float,
                 out: List[dict]) -> None:
    """Send ``items`` on one keep-alive connection, each at its due time
    or as soon as the connection frees up, whichever is later."""
    conn = await asyncio.open_connection(host, port)
    last_done = t0
    behind_join = False
    abandon_step = None
    try:
        for item in items:
            if abandon_step is not None and item["step"] >= abandon_step:
                continue
            due = t0 + item["due"]
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            # Lateness counts only when the connection was free at the
            # due time; otherwise the wait belongs to the server.
            idle = last_done <= due
            if idle:
                behind_join = False
            rec = {"item": item, "due": due, "sent": sent,
                   "lag": sent - due if idle else None,
                   "behind_join": behind_join, "status": 0, "body": b""}
            try:
                conn[1].write(item["request"])
                rec["status"], rec["body"] = await asyncio.wait_for(
                    _read_response(conn[0]), REQUEST_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError, ValueError,
                    asyncio.IncompleteReadError) as e:
                rec["error"] = f"{type(e).__name__}: {e}"
                conn[1].close()
                conn = await asyncio.open_connection(host, port)
            rec["done"] = last_done = time.monotonic()
            if item["op"] == "followup":
                behind_join = True
            out.append(rec)
            if (item["step"] is not None and item["step"] > 0
                    and sent - due > ABANDON_LAG_S):
                # A backlog this deep already fails the limit; the rest
                # of this step and the higher rates would only grow it.
                abandon_step = item["step"]
    finally:
        conn[1].close()
        await conn[1].wait_closed()


def open_loop(host: str, port: int, reads: List[dict],
              submits: List[dict]) -> List[dict]:
    """Run both streams to completion; returns one record per request."""
    out: List[dict] = []

    async def main() -> None:
        t0 = time.monotonic() + 0.05
        await asyncio.gather(_drive(host, port, reads, t0, out),
                             _drive(host, port, submits, t0, out))

    asyncio.run(main())
    return out


def cells_request(specs: List[dict]) -> bytes:
    body = json.dumps({"cells": specs}).encode()
    return request("POST", "/cells", body)


def classify(rec: dict) -> str:
    """warm | cold (led a simulation) | joined | failed."""
    if rec.get("error") or not 200 <= rec["status"] < 300:
        return "failed"
    if rec["item"]["op"] == "manifest":
        return "warm"
    serve = rec["parsed"]["serve"]
    if serve["led"] > 0:
        return "cold"
    if serve["coalesced"] > 0:
        return "joined"
    return "warm"


def windowed(records: List[dict], q: float, start: float
             ) -> Optional[float]:
    """The q-th percentile latency (ms, from due time) of each
    WINDOW_S window of due times from ``start``, then the median over
    windows: a host stall that hits one window moves one sample of the
    median, where it would set a pooled p99 outright."""
    windows: Dict[int, List[float]] = {}
    for r in records:
        windows.setdefault(int((r["due"] - start) // WINDOW_S), []).append(
            (r["done"] - r["due"]) * 1e3)
    values = [percentile(ls, q) for ls in windows.values()
              if len(ls) >= MIN_WINDOW_SAMPLES]
    return statistics.median(values) if values else None


def max_rate(steps: List[dict], p99s: List[Optional[float]],
             completed: List[float], limit_ms: float) -> float:
    """Highest offered rate whose warm p99 meets ``limit_ms``, with
    linear interpolation between the last passing and first failing
    ladder step (so the figure moves continuously with the p99s).  If
    every step passes, the top step's completed rate."""
    prev_r, prev_p = 0.0, 0.0
    for step, p99 in zip(steps, p99s):
        p = float("inf") if p99 is None else p99
        if p > limit_ms:
            if p == float("inf"):
                return prev_r
            return prev_r + (step["rps"] - prev_r) * (
                (limit_ms - prev_p) / (p - prev_p))
        prev_r, prev_p = step["rps"], p
    return completed[-1]


def summarize(records: List[dict], steps: List[dict]) -> Dict[str, Any]:
    """Latency, rate and lateness figures of one open-loop run."""
    kinds: Dict[str, List[dict]] = {}
    for r in records:
        kinds.setdefault(classify(r), []).append(r)

    def lat(rs: List[dict]) -> List[float]:
        return [(r["done"] - r["due"]) * 1e3 for r in rs]

    warm_all = kinds.get("warm", [])
    warm = [r for r in warm_all if not r["behind_join"]]
    t0 = records[0]["due"] - records[0]["item"]["due"]
    p50s, p99s, completed, per_step = [], [], [], []
    for k, step in enumerate(steps):
        rs = [r for r in warm if r["item"].get("step") == k]
        if len(rs) < MIN_STEP_SAMPLES:
            # A saturated step's backlog never drains, so its busy
            # period may never end: judge it on every warm answer.
            rs = [r for r in warm_all if r["item"].get("step") == k]
        p50s.append(windowed(rs, 50, t0 + step["start"]))
        p99s.append(windowed(rs, 99, t0 + step["start"]))
        done = [r for r in records if r["item"].get("step") == k]
        span = max((r["done"] for r in done), default=0.0) - (
            t0 + step["start"])
        completed.append(len(done) / span if done else 0.0)
        per_step.append({"rps": step["rps"], "n": len(rs),
                         "p50_ms": p50s[-1], "p99_ms": p99s[-1],
                         "completed_rps": completed[-1]})
    cold = lat(kinds.get("cold", []))
    joined = lat(kinds.get("joined", []))
    lags = [r["lag"] * 1e3 for r in records if r["lag"] is not None]
    span = max(r["done"] for r in records) - min(r["due"] for r in records)
    batch = [r["parsed"]["serve"]["wall_s"] * 1e3 for r in records
             if r.get("parsed") and "serve" in r["parsed"]]
    http_ms = [(r["done"] - r["sent"]) * 1e3
               - r["parsed"]["serve"]["wall_s"] * 1e3 for r in records
               if r.get("parsed") and "serve" in r["parsed"]]
    return {
        "warm_p50_ms": p50s[0],
        "warm_p99_ms": p99s[0],
        "warm_n": per_step[0]["n"],
        "cold_p50_ms": percentile(cold, 50) if cold else None,
        "cold_p90_ms": percentile(cold, 90) if cold else None,
        "cold_n": len(cold),
        "max_rate_rps": max_rate(steps, p99s, completed, LATENCY_LIMIT_MS),
        "steps": per_step,
        "behind_join": len(warm_all) - len(warm),
        "join_p50_ms": percentile(joined, 50) if joined else 0.0,
        "joined_n": len(joined),
        "lag_p99_ms": percentile(lags, 99) if lags else 0.0,
        "offered_rps": len(records) / (max(r["due"] for r in records)
                                       - t0),
        "completed_rps": len(records) / span,
        "batch_p50_ms": percentile(batch, 50) if batch else 0.0,
        "http_p50_ms": percentile(http_ms, 50) if http_ms else 0.0,
    }
