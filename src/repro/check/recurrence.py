"""Static recurrence certification: the seventh analysis pass.

The fast-forward (:mod:`repro.cpu.fastpath`) proves each jump
dynamically — capture, canonical-key equality, element-wise memory
verification — but until now it had to *discover* recurrence by
probing: signature warmup, candidate latching, capture cadences.  For
the compiled sources (:class:`~repro.isa.trace.CompiledTrace`,
:class:`~repro.isa.trace.TiledTrace`) the recurrence structure is a
pure function of the trace tables, so this pass computes it
symbolically, before any simulation:

* **Stream period lattices** — a compiled stream's canonical source
  key repeats exactly on a sub-lattice of instruction positions:
  multiples of ``lcm(pattern_len, phase_mod / gcd(stride, phase_mod))``
  for set-preserving sliding walks (the PR-5 lcm soundness condition:
  the byte shift must be ``0 mod line_size x lcm(L1 sets, L2 sets)``),
  or of ``lcm(pattern_len, wrap_len)`` when only whole-pass identity
  recurrence is sound (span not a multiple of the set-span).  Every
  dynamically detected per-period position delta is a lattice point —
  the divisibility property the hypothesis suite checks.

* **Tiled recurrence windows** — maximal phase ranges ``[start, end]``
  where phase ``p`` and ``p + dphase`` replay the same pattern with a
  constant, non-negative, set-preserving per-region reference delta.
  Within a window the runtime can capture at *aligned* phases only and
  pair without any signature warmup.  Window discovery is the same
  soundness predicate :meth:`~repro.isa.trace.TiledTrace.
  extrapolation_limit` re-checks at jump time, so a certificate can
  hint but never override the dynamic proof.

* **Pattern-family coalescing** — patterns are grouped by the minimal
  repeating unit of their ``(op, region)`` row sequence: lu's dozens of
  distinct trailing-update tile patterns share one per-element body and
  collapse into a family parameterized by row length.  Families are
  reported (they explain *why* a trace has no windows) and fingerprint
  the trace's shape.

* **Phase-signature widening** — bt's line sweeps never repeat at
  ``dphase = 1`` (per-line deltas are not set-preserving), but the
  window scan matches them at the symbolic sweep index where the
  cumulative delta first closes the set-span (``dphase = 8`` at the
  default geometry) — the sweep recurs as a whole even though no two
  adjacent lines do.

* **Guard-aware splice plans** — inside each window, the first phase
  whose shifted prefetch overshoot would cross a region's top edge
  (mm's circular-B rotation chunk) is recorded as a splice point: the
  runtime fast-forwards up to it and steps across, instead of standing
  down for the whole pass.

The output is a versioned, machine-checkable
:class:`RecurrenceCertificate`: ``validate()`` re-derives every claim
from the trace it describes, so a stale or forged certificate is
detected by ``repro check`` and ``repro certify --verify``;
``fingerprint()`` (canonical-JSON SHA-256) identifies it in the
``repro certify`` inventory.  The fast-forward certifies the trace it
runs when it arms.  Certificates are *hints*, never part of a cache
key: the runtime still proves every jump dynamically and falls back to the
plain detector (stand-down reason ``cert-mismatch``) whenever reality
disagrees — so a wrong certificate can cost time, never correctness
(the seeded-defect suite kills certificates that could).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.findings import Finding, Severity
from repro.isa.trace import CompiledTrace, TiledTrace

#: Bumped on any change to certificate semantics or JSON layout.  Part
#: of every certificate fingerprint.
RECURRENCE_SCHEMA_VERSION = 1

#: Windows retained per certificate, best coverage first.  Enough for
#: the nested mm lattice (whole-block window plus the per-block runs);
#: selection drops windows implied by an already-kept coarser one.
_MAX_WINDOWS = 12

#: Splice points recorded per certificate (each window contributes at
#: most its first guard trip and its schedule break).
_MAX_SPLICES = 16

#: Candidate-distance prefilter sample positions (fractions of the
#: phase count).  A distance is fully scanned only if at least one
#: sample pair matches — the scan stays near-linear for traces like
#: cg's bench solve (thousands of phases) where only whole-iteration
#: distances can match at all.
_SAMPLE_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8)


def cache_geometry(mem_config: Any = None) -> Tuple[int, int]:
    """(phase_mod, guard_bytes) for a memory config — the same derivation
    :class:`~repro.cpu.fastpath.FastPath` makes from a built hierarchy.

    ``phase_mod`` is the set-preservation modulus (line size x lcm of
    L1/L2 set counts): a byte shift ``== 0 mod phase_mod`` maps every
    cache set onto itself, which is what makes per-set LRU evolution
    translation-invariant.  ``guard_bytes`` is the forward headroom a
    monotone walk must keep from its region's top edge (prefetch
    overshoot depth plus slack).
    """
    if mem_config is None:
        from repro.mem.config import MemConfig

        mem_config = MemConfig()
    ls = mem_config.line_size
    l1_sets = mem_config.l1_size // (ls * mem_config.l1_assoc)
    l2_sets = mem_config.l2_size // (ls * mem_config.l2_assoc)
    phase_mod = ls * math.lcm(l1_sets, l2_sets)
    guard_bytes = (mem_config.prefetch_degree + 2) * ls
    return phase_mod, guard_bytes


@dataclass(frozen=True)
class RecurrenceWindow:
    """One proven recurrence range of a tiled trace.

    For every phase ``p`` in ``[start, end - dphase]``, phase ``p`` and
    ``p + dphase`` replay the same pattern and their per-region
    reference deltas equal ``deltas`` (each non-negative and
    ``0 mod phase_mod``).  ``end`` is inclusive: the last phase the
    window covers.
    """

    start: int
    end: int
    dphase: int
    deltas: Tuple[int, ...]

    @property
    def span(self) -> int:
        return self.end - self.start + 1

    @property
    def score(self) -> int:
        """Phases a detector pairing at ``dphase`` could skip: the span
        minus the two recurrences it must observe to form a pair."""
        return self.span - 2 * self.dphase

    def aligned(self) -> range:
        """Aligned capture phases: ``start, start + dphase, ...``."""
        return range(self.start, self.end + 1, self.dphase)

    def to_dict(self) -> Dict[str, Any]:
        return {"start": self.start, "end": self.end,
                "dphase": self.dphase, "deltas": list(self.deltas)}

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "RecurrenceWindow":
        return RecurrenceWindow(int(d["start"]), int(d["end"]),
                                int(d["dphase"]),
                                tuple(int(x) for x in d["deltas"]))


@dataclass(frozen=True)
class SplicePoint:
    """A phase the runtime must not extrapolate across.

    ``guard``: entering ``phase`` under the window's shift would put
    prefetch overshoot past a region's top edge (mm's circular-B top
    chunk) — fast-forward up to it, step across.  ``schedule``: the
    window's delta pattern breaks at ``phase`` (next episode has a
    different shape).
    """

    phase: int
    reason: str                # "guard" | "schedule"
    window_start: int
    dphase: int

    def to_dict(self) -> Dict[str, Any]:
        return {"phase": self.phase, "reason": self.reason,
                "window_start": self.window_start, "dphase": self.dphase}

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "SplicePoint":
        return SplicePoint(int(d["phase"]), str(d["reason"]),
                           int(d["window_start"]), int(d["dphase"]))


@dataclass(frozen=True)
class PatternFamily:
    """A group of per-phase patterns sharing one repeating row unit.

    ``unit_len`` is the length of the minimal repeating ``(op,
    region)`` unit; ``members`` counts the distinct pattern ids the
    family coalesces; ``min_rows``/``max_rows`` are the member lengths
    (lu: one family whose members differ only in row count); ``phases``
    counts how many phases replay a member.
    """

    unit_len: int
    members: int
    min_rows: int
    max_rows: int
    phases: int

    def to_dict(self) -> Dict[str, Any]:
        return {"unit_len": self.unit_len, "members": self.members,
                "min_rows": self.min_rows, "max_rows": self.max_rows,
                "phases": self.phases}

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "PatternFamily":
        return PatternFamily(int(d["unit_len"]), int(d["members"]),
                             int(d["min_rows"]), int(d["max_rows"]),
                             int(d["phases"]))


@dataclass(frozen=True)
class RecurrenceCertificate:
    """The versioned, machine-checkable product of the pass.

    ``kind`` is ``"tiled"`` or ``"stream"``.  Tiled certificates carry
    windows/splices/families and verdict ``"recurrent"`` (usable
    windows exist) or ``"none"`` (proven: no phase distance admits a
    constant set-preserving forward shift — the dynamic tiled detector
    cannot jump either, so the runtime skips detection overhead
    entirely).  Stream certificates carry the position-period lattice
    generator ``period_pos`` with ``translation`` naming the sound
    mode (``arith`` / ``sliding`` / ``pass-identity``) and verdict
    ``"periodic"``.
    """

    kind: str
    subject: str
    phase_mod: int
    guard_bytes: int
    verdict: str
    nphases: int = 0
    npatterns: int = 0
    windows: Tuple[RecurrenceWindow, ...] = ()
    splices: Tuple[SplicePoint, ...] = ()
    families: Tuple[PatternFamily, ...] = ()
    period_pos: int = 0
    translation: str = ""
    schema_version: int = field(default=RECURRENCE_SCHEMA_VERSION)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "subject": self.subject,
            "phase_mod": self.phase_mod,
            "guard_bytes": self.guard_bytes,
            "verdict": self.verdict,
            "nphases": self.nphases,
            "npatterns": self.npatterns,
            "windows": [w.to_dict() for w in self.windows],
            "splices": [s.to_dict() for s in self.splices],
            "families": [f.to_dict() for f in self.families],
            "period_pos": self.period_pos,
            "translation": self.translation,
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "RecurrenceCertificate":
        return RecurrenceCertificate(
            kind=str(d["kind"]),
            subject=str(d["subject"]),
            phase_mod=int(d["phase_mod"]),
            guard_bytes=int(d["guard_bytes"]),
            verdict=str(d["verdict"]),
            nphases=int(d.get("nphases", 0)),
            npatterns=int(d.get("npatterns", 0)),
            windows=tuple(RecurrenceWindow.from_dict(w)
                          for w in d.get("windows", ())),
            splices=tuple(SplicePoint.from_dict(s)
                          for s in d.get("splices", ())),
            families=tuple(PatternFamily.from_dict(f)
                           for f in d.get("families", ())),
            period_pos=int(d.get("period_pos", 0)),
            translation=str(d.get("translation", "")),
            schema_version=int(d["schema_version"]),
        )

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form — the inventory token.

        ``subject`` is excluded: it is a display label, and identical
        recurrence structure must hash identically however the
        certificate was reached (the fast-forward's unlabelled arm-time
        certification vs. an inventory pass that labels as it goes).
        """
        from repro.sweep.keys import canonical_json

        d = self.to_dict()
        d.pop("subject")
        return hashlib.sha256(
            canonical_json(d).encode()).hexdigest()[:16]

    # -- runtime consumption --------------------------------------------

    def aligned_phases(self) -> Tuple[int, ...]:
        """Sorted union of every window's aligned capture phases."""
        out: set = set()
        for w in self.windows:
            out.update(w.aligned())
        return tuple(sorted(out))

    # -- machine checking -----------------------------------------------

    def validate(self, trace: Any) -> List[str]:
        """Re-derive every claim against ``trace``; return the problems.

        An empty list certifies the certificate describes this trace at
        this geometry.  This is the check the ``repro check`` pass and
        the ``repro certify --verify`` gate run on every certificate
        they derive — a certifier that disagrees with itself must never
        pass silently.
        """
        problems: List[str] = []
        if self.schema_version != RECURRENCE_SCHEMA_VERSION:
            problems.append(
                f"schema_version {self.schema_version} != "
                f"{RECURRENCE_SCHEMA_VERSION}")
            return problems
        if self.kind == "stream":
            if type(trace) is not CompiledTrace:
                problems.append("stream certificate for a non-stream trace")
                return problems
            fresh = certify_stream(trace, phase_mod=self.phase_mod,
                                   guard_bytes=self.guard_bytes,
                                   subject=self.subject)
            if fresh.period_pos != self.period_pos \
                    or fresh.translation != self.translation:
                problems.append(
                    f"period lattice mismatch: certificate says "
                    f"({self.period_pos}, {self.translation!r}), trace "
                    f"derives ({fresh.period_pos}, {fresh.translation!r})")
            return problems
        if self.kind != "tiled" or type(trace) is not TiledTrace:
            problems.append(
                f"certificate kind {self.kind!r} does not match the trace")
            return problems
        phases = trace.phases
        nph = len(phases)
        if self.nphases != nph:
            problems.append(f"nphases {self.nphases} != trace {nph}")
            return problems
        for w in self.windows:
            if not (0 <= w.start <= w.end < nph) or w.dphase <= 0 \
                    or w.span < 2 * w.dphase + 1:
                problems.append(f"window {w.to_dict()} is malformed")
                continue
            for p in range(w.start, w.end - w.dphase + 1):
                ds = _pair_deltas(trace, p, p + w.dphase, self.phase_mod)
                if ds != w.deltas:
                    problems.append(
                        f"window {w.to_dict()} breaks at phase {p}: "
                        f"deltas {ds}")
                    break
        if self.verdict == "none" and self.windows:
            problems.append("verdict 'none' with windows attached")
        if self.verdict == "recurrent" and not self.windows:
            problems.append("verdict 'recurrent' without windows")
        return problems


def _pair_deltas(trace: TiledTrace, p: int, q: int,
                 phase_mod: int) -> Optional[Tuple[int, ...]]:
    """Per-region reference deltas between phases ``p`` and ``q``, or
    ``None`` when the pair is not a sound recurrence step (different
    patterns, a backwards reference, or a non-set-preserving shift)."""
    pa, ra = trace.phases[p]
    pb, rb = trace.phases[q]
    if pa != pb:
        return None
    out: List[int] = []
    for a, b in zip(ra, rb):
        d = b - a
        if d < 0 or d % phase_mod:
            return None
        out.append(d)
    return tuple(out)


def _family_key(pat: Sequence[tuple]) -> Tuple[Tuple[int, int], ...]:
    """Minimal repeating ``(op, region)`` unit of one pattern's rows."""
    seq = tuple((int(op), ri) for op, _d, _s, _site, ri, _rel in pat)
    n = len(seq)
    for u in range(1, n // 2 + 1):
        if n % u == 0 and seq == seq[:u] * (n // u):
            return seq[:u]
    return seq


def _pattern_families(trace: TiledTrace) -> Tuple[PatternFamily, ...]:
    groups: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
    for pid, pat in enumerate(trace.patterns):
        groups.setdefault(_family_key(pat), []).append(pid)
    phase_count: Dict[int, int] = {}
    for pid, _refs in trace.phases:
        phase_count[pid] = phase_count.get(pid, 0) + 1
    fams: List[PatternFamily] = []
    for key in sorted(groups, key=lambda k: min(groups[k])):
        pids = groups[key]
        lens = [len(trace.patterns[p]) for p in pids]
        fams.append(PatternFamily(
            unit_len=len(key), members=len(pids),
            min_rows=min(lens), max_rows=max(lens),
            phases=sum(phase_count.get(p, 0) for p in pids)))
    return tuple(fams)


def _scan_windows(trace: TiledTrace,
                  phase_mod: int) -> List[RecurrenceWindow]:
    """All maximal constant-delta runs worth keeping, unselected."""
    phases = trace.phases
    nph = len(phases)
    raw: List[RecurrenceWindow] = []
    if nph < 3:
        return raw
    samples = sorted({int(f * nph) for f in _SAMPLE_FRACTIONS})
    for d in range(1, nph // 2 + 1):
        if not any(s + d < nph
                   and _pair_deltas(trace, s, s + d, phase_mod) is not None
                   for s in samples):
            continue
        p = 0
        while p + d < nph:
            ds = _pair_deltas(trace, p, p + d, phase_mod)
            if ds is None:
                p += 1
                continue
            q = p
            while q + 1 + d < nph and \
                    _pair_deltas(trace, q + 1, q + 1 + d, phase_mod) == ds:
                q += 1
            end = q + d
            if end - p + 1 >= 2 * d + 1:
                raw.append(RecurrenceWindow(p, end, d, ds))
            p = q + 1
    return raw


def _select_windows(
        raw: List[RecurrenceWindow]) -> Tuple[RecurrenceWindow, ...]:
    """Keep the best few windows, dropping ones a kept window implies.

    A window nested inside a kept one whose ``dphase`` divides its own
    is redundant: its pairs are telescoped multiples of the coarser
    window's, so the runtime gains nothing by capturing for it.
    """
    raw = sorted(raw, key=lambda w: (-w.score, w.dphase, w.start))
    chosen: List[RecurrenceWindow] = []
    for w in raw:
        if len(chosen) >= _MAX_WINDOWS:
            break
        if w.score <= 0:
            continue
        if any(v.start <= w.start and w.end <= v.end
               and w.dphase % v.dphase == 0 for v in chosen):
            continue
        chosen.append(w)
    chosen.sort(key=lambda w: (w.start, w.dphase))
    return tuple(chosen)


def _splice_points(trace: TiledTrace,
                   windows: Sequence[RecurrenceWindow],
                   guard_bytes: int) -> Tuple[SplicePoint, ...]:
    """Guard trips and schedule breaks the runtime must splice around.

    The guard predicate mirrors :meth:`~repro.isa.trace.TiledTrace.
    extrapolation_limit`: extrapolating *into* phase ``b`` is unsound
    once the previous phase's touch extent plus prefetch overshoot
    reaches its region's top edge.
    """
    phases = trace.phases
    extents = trace.extents
    rends = [r.end for r in trace.regions]
    nph = len(phases)
    out: List[SplicePoint] = []
    for w in windows:
        if len(out) >= _MAX_SPLICES:
            break
        if any(w.deltas):
            for b in range(w.start + 1, w.end + 1):
                pid_prev, rprev = phases[b - 1]
                ext = extents[pid_prev]
                trip = False
                for r, dd in enumerate(w.deltas):
                    e = ext[r]
                    if dd and e is not None and \
                            rprev[r] + e[1] + guard_bytes >= rends[r]:
                        trip = True
                        break
                if trip:
                    out.append(SplicePoint(b, "guard", w.start, w.dphase))
                    break
        if w.end + 1 < nph and len(out) < _MAX_SPLICES:
            out.append(SplicePoint(w.end + 1, "schedule",
                                   w.start, w.dphase))
    return tuple(out)


#: Memo of :func:`certify_tiled` results keyed on the structural
#: signature below.  The fast-forward certifies every tiled-only run
#: when it arms, and a sweep runs the same trace shapes many times, so
#: lu and bt would pay the O(nphases^2) window scan repeatedly just to
#: re-derive the same verdict (for them: ``none``, i.e. the scan proves
#: there is nothing to fast-forward).  The signature is a pure O(trace-size)
#: function of everything the certificate reads, so a memo hit is
#: exact, not heuristic; ``validate()`` would accept the cached
#: certificate against the new trace by construction.
_TILED_MEMO: Dict[tuple, RecurrenceCertificate] = {}

#: Memo ceiling — far above the distinct (workload, size, geometry)
#: population of any real session; cleared wholesale if ever reached.
_TILED_MEMO_MAX = 128

#: Advisory counters for the memo's effectiveness (asserted by the
#: regression test in ``tests/check/test_recurrence_memo.py``):
#: ``scans`` counts full window scans actually run, ``memo_hits``
#: certificates served from the memo, ``none_skips`` the subset of
#: hits whose verdict is ``none`` — the previously-wasted lu/bt scans.
_SCAN_COUNTERS = {"scans": 0, "memo_hits": 0, "none_skips": 0}


def scan_counters() -> Dict[str, int]:
    """Snapshot of the tiled-scan memo counters."""
    return dict(_SCAN_COUNTERS)


def reset_scan_counters() -> Dict[str, int]:
    """Zero the counters; returns the pre-reset snapshot (tests)."""
    snap = dict(_SCAN_COUNTERS)
    for k in _SCAN_COUNTERS:
        _SCAN_COUNTERS[k] = 0
    return snap


def _tiled_signature(trace: TiledTrace, phase_mod: int,
                     guard_bytes: int) -> tuple:
    """Everything :func:`certify_tiled` reads, as one hashable value.

    Windows derive from ``phases`` (pattern ids + reference vectors)
    at the given ``phase_mod``; splices additionally read ``extents``,
    region top edges and ``guard_bytes``; families read each pattern's
    ``(op, region)`` rows.  Two traces equal under this signature
    therefore certify identically — sites, operand registers and
    instruction counts are deliberately not part of it.
    """
    return (
        phase_mod,
        guard_bytes,
        trace.phases,
        tuple(tuple((int(op), ri)
                    for op, _d, _s, _site, ri, _rel in pat)
              for pat in trace.patterns),
        trace.extents,
        tuple(r.end for r in trace.regions),
    )


def certify_tiled(trace: TiledTrace, mem_config: Any = None,
                  subject: str = "", *, phase_mod: Optional[int] = None,
                  guard_bytes: Optional[int] = None
                  ) -> RecurrenceCertificate:
    """Certify one tiled trace: windows, splices, families, verdict.

    Results are memoized by structural signature: rebuilding the same
    workload (same phases/patterns/extents at the same geometry) skips
    the window scan and returns the cached certificate — which matters
    most when the cached verdict is ``none``, the case where the scan
    was pure overhead to begin with.
    """
    if phase_mod is None or guard_bytes is None:
        pm, gb = cache_geometry(mem_config)
        phase_mod = pm if phase_mod is None else phase_mod
        guard_bytes = gb if guard_bytes is None else guard_bytes
    sig = _tiled_signature(trace, phase_mod, guard_bytes)
    cached = _TILED_MEMO.get(sig)
    if cached is not None:
        # Racing threads can at worst both scan and both store the
        # same value; the counters are advisory, the memo is not a
        # correctness surface.
        _SCAN_COUNTERS["memo_hits"] += 1
        if cached.verdict == "none":
            _SCAN_COUNTERS["none_skips"] += 1
        return (cached if cached.subject == subject
                else replace(cached, subject=subject))
    _SCAN_COUNTERS["scans"] += 1
    windows = _select_windows(_scan_windows(trace, phase_mod))
    cert = RecurrenceCertificate(
        kind="tiled",
        subject=subject,
        phase_mod=phase_mod,
        guard_bytes=guard_bytes,
        verdict="recurrent" if windows else "none",
        nphases=len(trace.phases),
        npatterns=len(trace.patterns),
        windows=windows,
        splices=_splice_points(trace, windows, guard_bytes),
        families=_pattern_families(trace),
    )
    if len(_TILED_MEMO) >= _TILED_MEMO_MAX:
        _TILED_MEMO.clear()
    _TILED_MEMO[sig] = cert
    return cert


def certify_stream(trace: CompiledTrace, mem_config: Any = None,
                   subject: str = "", *, phase_mod: Optional[int] = None,
                   guard_bytes: Optional[int] = None
                   ) -> RecurrenceCertificate:
    """Certify one compiled stream: its position-period lattice.

    The generator ``period_pos`` divides every per-period position
    delta the dynamic detector can prove:

    * arithmetic streams recur purely on register rotation —
      ``pattern_len``;
    * memory walks whose span is a whole number of set-spans
      (``span == 0 mod phase_mod``) admit sliding translation; the
      source key (position mod ``pattern_len``, offset mod
      ``phase_mod``) repeats every
      ``lcm(pattern_len, phase_mod / gcd(stride, phase_mod))``
      positions.  Whole-pass identity pairs land on multiples of
      ``lcm(pattern_len, wrap_len)`` — a multiple of the generator,
      because ``stride * wrap_len == span == 0 mod phase_mod``;
    * otherwise only whole-pass identity recurrence is sound:
      ``lcm(pattern_len, wrap_len)``.
    """
    if phase_mod is None or guard_bytes is None:
        pm, gb = cache_geometry(mem_config)
        phase_mod = pm if phase_mod is None else phase_mod
        guard_bytes = gb if guard_bytes is None else guard_bytes
    if not trace.is_memory:
        period = trace.pattern_len
        translation = "arith"
    elif trace.span % phase_mod == 0:
        g = math.gcd(trace.stride, phase_mod)
        period = math.lcm(trace.pattern_len, phase_mod // g)
        translation = "sliding"
    else:
        period = math.lcm(trace.pattern_len, trace.wrap_len)
        translation = "pass-identity"
    return RecurrenceCertificate(
        kind="stream",
        subject=subject,
        phase_mod=phase_mod,
        guard_bytes=guard_bytes,
        verdict="periodic",
        period_pos=period,
        translation=translation,
    )


def certify_trace(trace: Any, mem_config: Any = None,
                  subject: str = "") -> Optional[RecurrenceCertificate]:
    """Certify whatever ``trace`` is; ``None`` for unrecordable sources."""
    if type(trace) is TiledTrace:
        return certify_tiled(trace, mem_config, subject)
    if type(trace) is CompiledTrace:
        return certify_stream(trace, mem_config, subject)
    return None


#: Kept importable only because ``perfbench/spans.py`` resolves this
#: name when it records spans (``--trace 1``); nothing in the program
#: calls it — the fast-forward certifies the trace it runs.
attach_certificate = certify_trace


# ---------------------------------------------------------------------------
# repro check pass + experiment inventory
# ---------------------------------------------------------------------------

def recurrence_findings(app: str, variant: Any, size: Dict[str, Any],
                        mem_config: Any = None) -> List[Finding]:
    """The ``repro check`` recurrence pass over one recordable workload.

    INFO findings summarize the certificate (verdict, windows,
    families); an ERROR finding means the freshly derived certificate
    fails its own machine check — a checker defect, never acceptable.
    """
    from repro.workloads import WORKLOADS
    from repro.workloads.common import Variant

    variant = (variant if isinstance(variant, Variant)
               else Variant(variant))
    site = workload_label(app, variant.value, size)
    build = WORKLOADS[app].build(variant, mem_config=mem_config,
                                 **dict(size))
    findings: List[Finding] = []
    for tid, factory in enumerate(build.factories):
        trace = factory(None)
        if type(trace) is not TiledTrace:
            continue
        cert = certify_tiled(trace, mem_config, subject=f"{site}/t{tid}")
        problems = cert.validate(trace)
        for p in problems:
            findings.append(Finding(
                check="recurrence", severity=Severity.ERROR,
                site=f"{site}/t{tid}",
                message=f"certificate fails its machine check: {p}",
                hint="the recurrence pass disagrees with itself; "
                     "this is a checker bug",
            ))
        if problems:
            continue
        best = max(cert.windows, key=lambda w: w.score, default=None)
        detail = (
            f"verdict {cert.verdict}: {len(cert.windows)} windows"
            + (f" (best d={best.dphase} span={best.span})"
               if best is not None else "")
            + f", {len(cert.families)} families / {cert.npatterns} "
              f"patterns, {len(cert.splices)} splices"
        )
        findings.append(Finding(
            check="recurrence", severity=Severity.INFO,
            site=f"{site}/t{tid}", message=detail,
            data={"fingerprint": cert.fingerprint(),
                  "verdict": cert.verdict,
                  "nphases": cert.nphases},
        ))
    return findings


def workload_label(app: str, variant_value: str,
                   size: Dict[str, Any]) -> str:
    """``app/variant(k=v,...)``: how certificates and findings name a
    workload build."""
    return "{}/{}({})".format(
        app, variant_value,
        ",".join(f"{k}={v}" for k, v in sorted(size.items())))


def workload_certificates(app: str, variant: Any, size: Dict[str, Any],
                          mem_config: Any = None
                          ) -> List[RecurrenceCertificate]:
    """Certificates of one workload build's recorded (tiled) threads,
    in thread order, each labelled ``label/t<tid>``."""
    from repro.workloads import WORKLOADS
    from repro.workloads.common import Variant

    variant = (variant if isinstance(variant, Variant)
               else Variant(variant))
    recordable = getattr(WORKLOADS[app], "_RECORDABLE", None)
    if recordable is not None and variant not in recordable:
        # Unrecordable variants carry no tiled traces; skip the whole
        # (expensive) build instead of compiling it to learn nothing.
        return []
    build = WORKLOADS[app].build(variant, mem_config=mem_config,
                                 **dict(size))
    label = workload_label(app, variant.value, size)
    traces = [factory(None) for factory in build.factories]
    return [certify_tiled(trace, mem_config, subject=f"{label}/t{tid}")
            for tid, trace in enumerate(traces)
            if type(trace) is TiledTrace]


def certificate_inventory(app_sizes: str = "all") -> Dict[str, Any]:
    """Certificates for every fig1/fig2 stream spec and every recordable
    app experiment — the ``repro certify`` / CI ``certificates.json``
    payload.

    ``app_sizes`` selects app coverage: ``"all"`` certifies every
    shipped size, ``"small"`` only the smallest (fast enough to run on
    every CI push).
    """
    from repro.core.apps import APP_SIZES, APP_VARIANTS
    from repro.core.streams import _VECTOR_BYTES
    from repro.isa.streams import ILP, STREAM_OPS, StreamSpec
    from repro.isa.trace import compile_stream
    from repro.common.addrspace import AddressSpace

    streams: List[Dict[str, Any]] = []
    for name in sorted(STREAM_OPS):
        for ilp in ILP:
            spec = StreamSpec(name, ilp=ilp)
            region = None
            if spec.is_memory:
                aspace = AddressSpace()
                region = aspace.alloc(f"vec-{name}", _VECTOR_BYTES,
                                      elem_size=1)
            cert = certify_stream(compile_stream(spec, region),
                                  subject=f"stream {name}/{ilp.name}")
            entry = cert.to_dict()
            entry["fingerprint"] = cert.fingerprint()
            streams.append(entry)

    apps: List[Dict[str, Any]] = []
    from repro.workloads.common import Variant

    recordable = {
        "mm": (Variant.SERIAL, Variant.SW_PREFETCH, Variant.TLP_COARSE,
               Variant.TLP_FINE),
        "lu": (Variant.SERIAL,),
        "cg": (Variant.SERIAL,),
        "bt": (Variant.SERIAL,),
    }
    for app in sorted(APP_SIZES):
        sizes = (APP_SIZES[app] if app_sizes == "all"
                 else APP_SIZES[app][:1])
        variants = [v for v in recordable.get(app, ())
                    if v in APP_VARIANTS.get(app, ())
                    or v is Variant.SERIAL]
        for variant in variants:
            for size in sizes:
                for cert in workload_certificates(app, variant,
                                                  dict(size)):
                    entry = cert.to_dict()
                    entry["fingerprint"] = cert.fingerprint()
                    apps.append(entry)
    return {
        "schema_version": RECURRENCE_SCHEMA_VERSION,
        "streams": streams,
        "apps": apps,
    }
