"""Canonical, hashable job abstraction for sweep experiments.

Every cell of a paper sweep (a heatmap cell, one fig11 repetition, one
table3 failure replay, …) becomes a :class:`Job`: a hashable grid key, a
picklable payload for the worker function, and a **stable content
fingerprint** used by the on-disk result cache.

The fingerprint is a SHA-256 over a *canonical* rendering of the payload
(dataclass fields — including nested tree geometry — rendered
recursively, dict keys sorted, floats via ``repr``) salted with
:data:`CODE_VERSION`.  Two processes on two machines computing the
fingerprint of the same spec get the same hex string; any change to a
spec field, to the tree geometry, or to the code-version salt yields a
different one, so stale cache entries can never be returned for a
changed experiment.

This module also provides :func:`stable_seed`, the hashlib-based RNG
seed derivation used by the experiment runners.  Unlike
``hash()``-based or ``repr``-of-tuple-based schemes it does not depend
on ``PYTHONHASHSEED``, object identity, or ``repr`` formatting details,
so seeds are reproducible across processes and Python versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Hashable, Optional, TypeVar, cast

__all__ = [
    "CODE_VERSION",
    "DictConfig",
    "Job",
    "canonical",
    "fingerprint",
    "spec_job",
    "stable_seed",
]

#: Version salt mixed into every fingerprint.  Bump whenever a change to
#: the simulator or scoring semantics invalidates previously cached
#: results (cache entries from older versions are then simply missed).
CODE_VERSION = "fancy-runtime-1"


def canonical(obj: Any) -> str:
    """Render ``obj`` as a canonical, deterministic string.

    Supports the types that appear in experiment specs: dataclasses
    (rendered as ``ClassName{field=..., ...}`` in field order), dicts
    (keys sorted), lists/tuples, sets (sorted), scalars.  Floats use
    ``repr`` so the rendering round-trips exactly.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}{{{fields}}}"
    if isinstance(obj, dict):
        items = ",".join(
            f"{canonical(k)}:{canonical(v)}" for k, v in sorted(obj.items(), key=lambda kv: canonical(kv[0]))
        )
        return f"{{{items}}}"
    if isinstance(obj, (list, tuple)):
        return f"[{','.join(canonical(v) for v in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"set[{','.join(sorted(canonical(v) for v in obj))}]"
    if isinstance(obj, bool) or obj is None:
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (int, str, bytes)):
        return repr(obj)
    # Fall back to the type name + repr for anything exotic (Paths, enums).
    return f"{type(obj).__name__}:{obj!r}"


def fingerprint(*parts: Any, salt: str = CODE_VERSION) -> str:
    """Stable hex content-address of ``parts`` (SHA-256, 32 hex chars)."""
    h = hashlib.sha256()
    h.update(salt.encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(canonical(part).encode())
    return h.hexdigest()[:32]


def stable_seed(*parts: Any, bits: int = 63) -> int:
    """Derive a reproducible RNG seed from a canonical tuple.

    Replaces the fragile ``random.Random((seed, rep, "x").__repr__())``
    idiom: this derivation is explicit, documented, and identical across
    processes (hashlib is independent of ``PYTHONHASHSEED``).
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(b"\x1f")
        h.update(canonical(part).encode())
    return int.from_bytes(h.digest(), "big") % (1 << bits)


_C = TypeVar("_C", bound="DictConfig")


class DictConfig:
    """JSON round-trip for config dataclasses that ride job payloads.

    ``from_dict`` ignores unknown keys and lets missing ones default, so
    reproducer files written before a field was added still load.
    """

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(cast(Any, self))

    @classmethod
    def from_dict(cls: type[_C], d: dict[str, Any]) -> _C:
        dc: Any = cls
        return cast(_C, dc(**{f.name: d[f.name] for f in dataclasses.fields(dc)
                              if f.name in d}))


@dataclass(frozen=True)
class Job:
    """One schedulable unit of a sweep.

    Attributes:
        key: hashable grid key (e.g. ``(i, j)`` for a heatmap cell).
            Results and errors are reported under this key.
        payload: picklable arguments for the sweep's worker function.
        fingerprint: content address for the result cache; the empty
            string marks the job uncacheable.
        sim_s: simulated seconds this job covers (telemetry only; feeds
            the "simulated-seconds per wall-second" rate).
        timeout_s: per-job timeout override (None = sweep default).
    """

    key: Hashable
    payload: Any
    fingerprint: str = ""
    sim_s: Optional[float] = None
    timeout_s: Optional[float] = None


def spec_job(key: Hashable, spec: Any, repetitions: int = 1,
             sim_s: Optional[float] = None, extra: Any = None,
             options: Optional[dict] = None) -> Job:
    """Build a cacheable :class:`Job` over an experiment spec.

    The fingerprint covers the spec's dataclass fields (recursively — a
    changed tree geometry changes the fingerprint), the repetition
    count, any ``extra`` discriminator, and the code-version salt.

    ``options`` (e.g. ``{"telemetry": True}``) are appended to the
    payload as a third element *and* folded into the fingerprint, so a
    telemetry-enabled cell — whose cached value carries a metrics
    snapshot — never aliases a plain cell.  ``options=None`` keeps both
    the two-element payload and the historical fingerprint.
    """
    if options:
        payload: Any = (spec, repetitions, dict(options))
        fp = fingerprint(spec, repetitions, extra, dict(options))
    else:
        payload = (spec, repetitions)
        fp = fingerprint(spec, repetitions, extra)
    return Job(key=key, payload=payload, fingerprint=fp, sim_s=sim_s)
