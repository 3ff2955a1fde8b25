"""``repro serve`` — the sweep engine as a long-running service.

The CLI pays interpreter start-up, static preflight, and pool spin-up
on every invocation — even when every requested cell is already in the
content-addressed object store.  This package keeps all of that
resident: a persistent worker pool behind an asyncio HTTP/JSON daemon,
with two performance pillars:

* a **warm-hit fast path** that answers straight from the object
  store: no pool dispatch, and no oracle re-run for an entry whose
  stored provenance says the current model's oracle accepted it;
  preflight runs once per cell per daemon.  Microseconds per cell,
  single-digit milliseconds per HTTP batch;
* **single-flight request coalescing** keyed on the cell's existing
  cache key — N concurrent clients asking for the same in-flight cell
  share one computation, and all N receive the one result.

Modules:

* :mod:`repro.serve.coalesce`  — the single-flight table;
* :mod:`repro.serve.store`     — the store adapter and its provenance
  rule;
* :mod:`repro.serve.scheduler` — persistent pool, counters, telemetry;
* :mod:`repro.serve.app`       — the stdlib-only asyncio HTTP server
  (JSON endpoints + server-sent-event telemetry stream);
* :mod:`repro.serve.client`    — blocking HTTP client used by the
  benchmarks, the CI smoke, and scripts.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.coalesce import Flight, SingleFlight
from repro.serve.scheduler import CellScheduler, ServeCounters
from repro.serve.store import CacheAdapter
from repro.sweep.targets import resolve_target

__all__ = [
    "CacheAdapter",
    "CellScheduler",
    "Flight",
    "ServeClient",
    "ServeCounters",
    "SingleFlight",
    "resolve_target",
]
