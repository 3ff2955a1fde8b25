"""Static analysis for simulated experiments (no simulation required).

Eight passes over a bounded symbolic unrolling of an experiment:

1. **hazards** — RAW/WAW chain walking confirms a stream's declared
   ILP (|T|) matches the dependence-chain width it realizes;
2. **units**  — every opcode must route to an execution port the
   machine exposes and carry a CoreConfig timing;
3. **races**  — vector-clock happens-before over the runtime.sync
   edges; unordered conflicting accesses are reported (the paper's
   prefetch-overlap idiom is recognized and exempt);
4. **spans**  — SPR precomputation spans must sit in the paper's
   [1/A, 1/2]-of-L2 window with a sane lookahead;
5. **lint**   — AST scan of the source tree for determinism hazards
   (unseeded RNGs, wall-clock reads, set iteration, unordered
   filesystem listings, builtin ``hash``);
6. **model**  — the analytic machine model (:mod:`repro.model`)
   reports each stream's provable CPI interval and each pair's
   slowdown envelope, and errors when the model itself is
   inconsistent (missing timing, lower above upper);
7. **recurrence** — symbolic unrolling of compiled traces proves
   where steady-state recurrence lives (period lattices, tiled
   recurrence windows, guard splices) and emits versioned,
   machine-checkable certificates the fast-forward consumes as
   capture hints (:mod:`repro.check.recurrence`);
8. **compose** — composes two solo stream lattices into joint
   super-period pair certificates (lcm lattice, RR fetch parity,
   interference windows cross-checked against the model's pair
   envelopes, guard-aware splice windows) whose per-side lattices
   the dual-thread fast-forward re-derives from the traces it runs
   (:mod:`repro.check.compose`).

Surfaces: the ``repro check`` CLI verb (human or ``--json`` output),
``repro certify`` (certificate inventory and static/dynamic agreement
check), and :func:`preflight_cells`, the fail-fast gate the sweep
engine runs before simulating anything.
"""

from repro.check.compose import (
    COMPOSE_SCHEMA_VERSION,
    InterferenceWindow,
    PairCertificate,
    PairSplice,
    compose_pair,
    pair_inventory,
)
from repro.check.findings import (
    CHECK_SCHEMA_ID,
    CHECK_SCHEMA_VERSION,
    CheckReport,
    Finding,
    Severity,
    schema_fingerprint,
)
from repro.check.hazards import (
    ChainStats,
    chain_stats,
    unroll_stream,
    verify_instrs,
    verify_stream,
)
from repro.check.lint import lint_paths, lint_source
from repro.check.preflight import preflight_cells
from repro.check.races import detect_races
from repro.check.recurrence import (
    RECURRENCE_SCHEMA_VERSION,
    PatternFamily,
    RecurrenceCertificate,
    RecurrenceWindow,
    SplicePoint,
    attach_certificate,
    cache_geometry,
    certificate_inventory,
    certify_stream,
    certify_tiled,
    certify_trace,
)
from repro.check.runner import load_experiment, run_targets
from repro.check.spans import verify_span_plan, verify_span_request
from repro.check.targets import (
    CheckTarget,
    ComposeTarget,
    InstrsTarget,
    PairTarget,
    ProgramTarget,
    RecurrenceTarget,
    SpanTarget,
    StreamTarget,
    WorkloadTarget,
    compose_targets,
    default_targets,
    recurrence_targets,
    stream_targets,
    workload_targets,
)
from repro.check.units import pair_contention, verify_ops

__all__ = [
    "CHECK_SCHEMA_ID",
    "CHECK_SCHEMA_VERSION",
    "COMPOSE_SCHEMA_VERSION",
    "RECURRENCE_SCHEMA_VERSION",
    "ChainStats",
    "CheckReport",
    "CheckTarget",
    "ComposeTarget",
    "Finding",
    "InstrsTarget",
    "InterferenceWindow",
    "PairCertificate",
    "PairSplice",
    "PairTarget",
    "PatternFamily",
    "ProgramTarget",
    "RecurrenceCertificate",
    "RecurrenceTarget",
    "RecurrenceWindow",
    "Severity",
    "SpanTarget",
    "SplicePoint",
    "StreamTarget",
    "WorkloadTarget",
    "attach_certificate",
    "cache_geometry",
    "certificate_inventory",
    "certify_stream",
    "certify_tiled",
    "certify_trace",
    "chain_stats",
    "compose_pair",
    "compose_targets",
    "default_targets",
    "detect_races",
    "lint_paths",
    "lint_source",
    "load_experiment",
    "pair_contention",
    "pair_inventory",
    "preflight_cells",
    "recurrence_targets",
    "run_targets",
    "schema_fingerprint",
    "stream_targets",
    "unroll_stream",
    "verify_instrs",
    "verify_ops",
    "verify_span_plan",
    "verify_span_request",
    "verify_stream",
    "workload_targets",
]
