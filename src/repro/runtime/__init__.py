"""repro.runtime — fault-tolerant, cached, parallel experiment orchestration.

The runtime layer turns every paper sweep (heatmap grids, trace
replays, sensitivity matrices) into a list of content-addressed
:class:`~repro.runtime.jobs.Job` objects executed by
:func:`~repro.runtime.executor.run_sweep`:

* :mod:`repro.runtime.jobs` — hashable job abstraction, stable spec
  fingerprints, hashlib-based seed derivation;
* :mod:`repro.runtime.cache` — content-addressed on-disk result cache
  (atomic JSON files) so interrupted sweeps resume where they stopped;
* :mod:`repro.runtime.executor` — streaming process-pool execution with
  per-cell timeouts, bounded retry, and partial-result return;
* :mod:`repro.runtime.progress` — live stderr progress line + JSONL
  machine-readable run log;
* :mod:`repro.runtime.context` — the :class:`RuntimeContext` value
  object the CLI threads through every experiment (no globals).

See ``docs/RUNTIME.md`` for the architecture and on-disk formats.
"""

from .cache import DEFAULT_CACHE_DIR, NullCache, ResultCache, open_cache
from .context import RuntimeContext, resolve
from .executor import CellTimeout, SweepResult, run_sweep
from .jobs import CODE_VERSION, DictConfig, Job, canonical, fingerprint, spec_job, stable_seed
from .progress import ProgressReporter, RunLog

__all__ = [
    "CODE_VERSION",
    "CellTimeout",
    "DEFAULT_CACHE_DIR",
    "DictConfig",
    "Job",
    "NullCache",
    "ProgressReporter",
    "ResultCache",
    "RunLog",
    "RuntimeContext",
    "SweepResult",
    "canonical",
    "fingerprint",
    "open_cache",
    "resolve",
    "run_sweep",
    "spec_job",
    "stable_seed",
]
