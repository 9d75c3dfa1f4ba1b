"""Sweep execution layer: parallel fan-out + content-addressed caching.

The paper's experiments are embarrassingly parallel — every figure is a
grid of independent ``SystemSimulator.run()`` calls. This package turns
that grid into a first-class object:

* :class:`SweepPoint` — the complete, hashable description of one run.
* :class:`MitigationSpec` — a picklable recipe for the defense under
  test (live mitigations carry state and can't cross process lines).
* :class:`SweepRunner` — fans points over worker processes
  (``jobs`` / ``$REPRO_JOBS``) with bit-identical-to-serial results.
* :class:`ResultCache` — SHA-256 content-addressed on-disk memoization
  of :class:`~repro.mem.metrics.SimMetrics`, keyed on the run and on
  :func:`~repro.exec.cache.source_digest` of the package's own code.
"""

from repro.exec.cache import (
    ResultCache,
    cache_enabled_by_env,
    canonical_key,
    default_cache_dir,
)
from repro.exec.runner import (
    SweepPoint,
    SweepRunner,
    SweepStats,
    default_jobs,
    execute_point,
)
from repro.exec.specs import MitigationSpec, register_mitigation, registered_kinds

__all__ = [
    "ResultCache",
    "cache_enabled_by_env",
    "canonical_key",
    "default_cache_dir",
    "SweepPoint",
    "SweepRunner",
    "SweepStats",
    "default_jobs",
    "execute_point",
    "MitigationSpec",
    "register_mitigation",
    "registered_kinds",
]
