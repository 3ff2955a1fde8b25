"""The daemon's view of the content-addressed object store.

The daemon and the CLI share one store through one adapter
(:class:`repro.sweep.cache.CacheAdapter`), driven by one cell pipeline
(:class:`repro.sweep.engine.CellPipeline`), so warmth is shared both
ways.  The provenance rule is enforced by the stored data:

* an entry is published only after the model oracle accepted its
  result, and records ``provenance.oracle``, the model fingerprint it
  was accepted under;
* a probed entry whose fingerprint matches the running model is served
  without re-running the oracle;
* any other entry (written with checks off, before provenance existed,
  or under an older model) is re-run through the oracle before it is
  served: accepted, it is republished with provenance; rejected, the
  request fails with :class:`~repro.common.errors.ModelViolation` (422)
  and the entry is never served.
"""

from repro.sweep.cache import CacheAdapter

__all__ = ["CacheAdapter"]
