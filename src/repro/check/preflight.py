"""Sweep pre-flight: fail fast before any simulation or cache write.

``preflight_cells`` runs passes 1-4 over the *static* description of
every cell an engine is about to execute:

* ``stream-cpi`` / ``coexec-pair`` — the cell's embedded stream recipe
  must match the current :data:`~repro.isa.streams.STREAM_OPS` (a
  stale cell would be simulated against code it does not describe),
  and the stream must pass the hazard/ILP and unit-legality passes;
* ``app-run`` — the embedded workload fingerprint must match the
  current module source; every recorded thread's recurrence
  certificate must pass its machine check; multi-thread variants get a
  bounded race scan and, when the build publishes one, a span-plan
  validation;
* ``table1-row`` — fingerprint staleness only (the column derivation
  never simulates).

Any ERROR finding raises :class:`~repro.common.errors.CheckError`
before the first cell runs — a broken cell must not reach the
simulator or leave a cache entry behind.  The race-scan budget is
deliberately small: pre-flight guards against structural mistakes, not
full-depth verification (run ``repro check`` for that).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.check import hazards, races, spans, units
from repro.check.findings import Finding, Severity
from repro.common.errors import CheckError

#: Bounded per-thread race-scan budget for app cells: enough to cross
#: the first synchronization epoch, cheap next to the simulation.
PREFLIGHT_RACE_BUDGET = 2_000


def _check_stream(name: str, ilp_name: str, recipe: Any,
                  core_config: Any) -> List[Finding]:
    from repro.isa.streams import ILP, STREAM_OPS, StreamSpec
    from repro.sweep.cells import stream_recipe

    site = f"stream {name!r} ({ilp_name} ILP)"
    if name not in STREAM_OPS:
        return [Finding(
            check="preflight", severity=Severity.ERROR, site=site,
            message=f"unknown stream {name!r}",
            hint=f"known streams: {sorted(STREAM_OPS)}",
        )]
    if recipe is not None and recipe != stream_recipe(name):
        return [Finding(
            check="preflight", severity=Severity.ERROR, site=site,
            message=(
                f"cell was enumerated against a different recipe for "
                f"stream {name!r} ({recipe} != {stream_recipe(name)}) — "
                f"the stream definition changed after enumeration"
            ),
            hint="re-enumerate the sweep from the current source tree",
            data={"cell_recipe": recipe, "current": stream_recipe(name)},
        )]
    spec = StreamSpec(name, ilp=ILP[ilp_name])
    findings = hazards.verify_stream(spec)
    findings.extend(units.verify_ops(site, spec.ops,
                                     core_config=core_config))
    return findings


def _check_app(cell: Any) -> List[Finding]:
    from repro.sweep.cells import workload_fingerprint
    from repro.workloads import WORKLOADS
    from repro.workloads.common import Variant

    config = cell.config
    app = config["app"]
    site = f"app {app!r}/{config.get('variant', '?')}"
    if app not in WORKLOADS:
        return [Finding(
            check="preflight", severity=Severity.ERROR, site=site,
            message=f"unknown application {app!r}",
            hint=f"known applications: {sorted(WORKLOADS)}",
        )]
    sha = config.get("workload_sha")
    if sha is not None and sha != workload_fingerprint(app):
        return [Finding(
            check="preflight", severity=Severity.ERROR, site=site,
            message=(
                f"cell carries workload fingerprint {sha} but the "
                f"current {app!r} module digests to "
                f"{workload_fingerprint(app)} — the workload changed "
                f"after enumeration"
            ),
            hint="re-enumerate the sweep from the current source tree",
            data={"cell_sha": sha, "current": workload_fingerprint(app)},
        )]
    variant_value = config.get("variant")
    if variant_value is None:
        return []
    try:
        variant = Variant(variant_value)
    except ValueError:
        return [Finding(
            check="preflight", severity=Severity.ERROR, site=site,
            message=f"unknown variant {variant_value!r}",
            hint=f"known variants: {[v.value for v in Variant]}",
        )]
    size = dict(config.get("size") or {})
    build = WORKLOADS[app].build(variant, mem_config=cell.mem_config,
                                 **size)
    findings: List[Finding] = []
    plan = build.meta.get("span_plan")
    if plan is not None:
        findings.extend(spans.verify_span_plan(
            site, plan, mem_config=cell.mem_config))
    # Certificate machine check: a recordable cell is about to execute
    # under certificate guidance; a certificate that does not describe
    # its own trace must never reach the jump engine silently.  Each
    # thread is recorded once here; the race scan below reuses it.
    from repro.check.recurrence import thread_certificates, workload_label
    from repro.isa.trace import TiledTrace

    threads = [factory(None) for factory in build.factories]
    certs = thread_certificates(
        threads, workload_label(app, variant.value, size), cell.mem_config)
    cert_findings: List[Finding] = []
    for tid, cert in certs:
        for problem in cert.validate(threads[tid]):
            cert_findings.append(Finding(
                check="preflight", severity=Severity.ERROR,
                site=f"{site}/t{tid}",
                message=f"recurrence certificate fails its machine "
                        f"check: {problem}",
                hint="the certificate does not describe the trace it "
                     "is attached to; rebuild or re-certify",
            ))
    if build.num_threads >= 2:
        # A recorded thread replays its own trace (the same instruction
        # stream its factory would record again); the others start
        # fresh against the scan's API.
        scan = [(lambda api, tr=tr: tr) if type(tr) is TiledTrace else f
                for f, tr in zip(build.factories, threads)]
        findings.extend(races.detect_races(
            scan, build.aspace, name=site, budget=PREFLIGHT_RACE_BUDGET))
    return findings + cert_findings


def preflight_cells(cells: Sequence[Any]) -> List[Finding]:
    """Statically analyze ``cells``; raise :class:`CheckError` on ERROR.

    Returns the full (non-failing) finding list so callers can surface
    warnings.  Unknown cell kinds are skipped — the engine's own
    registry lookup reports those.
    """
    findings: List[Finding] = []
    for cell in cells:
        config = cell.config
        if cell.kind == "stream-cpi":
            findings.extend(_check_stream(
                config["stream"], config["ilp"], config.get("recipe"),
                cell.core_config))
        elif cell.kind == "coexec-pair":
            for which in ("a", "b"):
                findings.extend(_check_stream(
                    config[f"stream_{which}"], config["ilp"],
                    config.get(f"recipe_{which}"), cell.core_config))
        elif cell.kind in ("app-run", "table1-row"):
            if cell.kind == "table1-row":
                from repro.sweep.cells import workload_fingerprint
                from repro.workloads import WORKLOADS

                app = config["app"]
                sha = config.get("workload_sha")
                if app in WORKLOADS and sha is not None \
                        and sha != workload_fingerprint(app):
                    findings.append(Finding(
                        check="preflight", severity=Severity.ERROR,
                        site=f"table1 {app!r}/{config.get('column', '?')}",
                        message=(
                            f"cell carries workload fingerprint {sha} but "
                            f"the current {app!r} module digests to "
                            f"{workload_fingerprint(app)}"
                        ),
                        hint=("re-enumerate the sweep from the current "
                              "source tree"),
                    ))
            else:
                findings.extend(_check_app(cell))
    errors = [f for f in findings if f.severity is Severity.ERROR]
    if errors:
        head = errors[0]
        more = (f" (+{len(errors) - 1} more error(s))"
                if len(errors) > 1 else "")
        raise CheckError(
            f"pre-flight check failed at {head.site}: {head.message}"
            f"{more} — nothing was simulated or cached; "
            f"run `repro check` for the full report or pass --no-check "
            f"to skip pre-flight",
            check=head.check,
        )
    return findings
