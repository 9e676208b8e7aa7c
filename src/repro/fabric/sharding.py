"""Process-sharded fabric execution: plan, seed, and merge link shards.

A fabric's link monitors share no simulator state with each other beyond
the packets that happen to cross them — which is why a fabric run can be
sharded across processes at all.  The unit of determinism here is the
**link**, not the shard: every per-link probe simulation is a pure
function of ``(experiment config, case, link_id)``, and a shard is
merely a batch of links one worker happens to execute.  Grouping is an
execution knob — ``--shards 1``, ``2`` and ``4`` must (and do) produce
byte-identical merged output.

Three pieces enforce that contract:

* :func:`plan_shards` partitions the link list round-robin and derives a
  per-link seed with :func:`~repro.runtime.stable_seed` keyed **only**
  on ``(base seed, link_id)`` — never on the shard index or count, so
  regrouping cannot reshuffle anyone's RNG stream.  (fancylint FCY010
  flags shard-spec seeding that bypasses ``stable_seed``.)
* each per-link probe runs its own :class:`~repro.telemetry.session.
  Telemetry` whose forks are scoped by link id, so minted trace ids are
  grouping-independent.
* :func:`merge_link_results` folds the per-link payloads back together
  in **sorted link order**: detection records re-sorted under the
  deployment's contract, metric registries merged with
  :func:`~repro.telemetry.registry.merge_snapshots` (commutative over
  sorted input), trace spans concatenated then serialized once — so the
  Prometheus text and trace JSONL are byte-identical for any worker or
  shard count.

:func:`run_link_shards` is the one runner over per-link probes: the
fabric experiment's ``run_sharded`` and the serve soak's ``run_serve``
both hand it their probe function and merge what it returns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..obs.trace import spans_to_jsonl
from ..runtime import Job, RuntimeContext, fingerprint, resolve, run_sweep, stable_seed
from ..telemetry.export import to_prometheus
from ..telemetry.registry import merge_snapshots

__all__ = ["ShardSpec", "plan_shards", "run_link_shards", "merge_link_results"]


@dataclass(frozen=True)
class ShardSpec:
    """One worker's batch of per-link probe simulations.

    ``link_seeds[i]`` is the derived seed for ``links[i]`` — a pure
    function of the base seed and the link id, never of ``index`` or the
    shard count (the regrouping-invariance contract).
    """

    index: int
    links: tuple[str, ...]
    link_seeds: tuple[int, ...]


def plan_shards(link_ids: Sequence[str], n_shards: int,
                seed: int = 0) -> list[ShardSpec]:
    """Partition ``link_ids`` into ``n_shards`` round-robin batches.

    Empty shards are dropped (a 4-shard plan over 3 links yields 3
    specs), so callers can pass ``--shards`` values larger than the
    fabric without special-casing.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    ordered = list(link_ids)
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate link ids in shard plan")
    specs: list[ShardSpec] = []
    for index in range(n_shards):
        links = tuple(ordered[index::n_shards])
        if not links:
            continue
        seeds = tuple(
            stable_seed(seed, "fabric-shard", link_id, bits=31)
            for link_id in links
        )
        specs.append(ShardSpec(index=index, links=links, link_seeds=seeds))
    return specs


def run_link_shards(probe: Callable[..., dict[str, Any]], args: tuple[Any, ...],
                    link_ids: Sequence[str], shards: int, *, seed: int,
                    fingerprint_parts: tuple[Any, ...], sim_s: float, label: str,
                    runtime: RuntimeContext | None = None,
                    ) -> tuple[dict[str, dict[str, Any]], int]:
    """Run module-level ``probe(*args, link_id, link_seed)`` for every link.

    One :func:`~repro.runtime.run_sweep` job per :func:`plan_shards`
    batch, cached under ``fingerprint(*fingerprint_parts, links)``;
    returns the payloads by link id and the number of shards run.
    """
    specs = plan_shards(link_ids, shards, seed=seed)
    jobs = [
        Job(
            key=f"shard-{spec.index}",
            payload=(probe, args, spec.links, spec.link_seeds),
            fingerprint=fingerprint(*fingerprint_parts, spec.links),
            sim_s=sim_s * len(spec.links),
        )
        for spec in specs
    ]
    sweep = run_sweep(jobs, _probe_shard, runtime=resolve(runtime), label=label)
    # A silently missing shard would merge into a plausible-but-wrong
    # result (fewer links, fewer detections) — insist on completeness.
    sweep.require_ok(label)
    per_link: dict[str, dict[str, Any]] = {}
    for job in jobs:
        per_link.update(sweep.results[job.key])
    return per_link, len(specs)


def _probe_shard(payload: tuple[Any, ...]) -> dict[str, dict[str, Any]]:
    """Top-level (picklable) shard executor: one probe per assigned link."""
    probe, args, links, link_seeds = payload
    return {
        link_id: probe(*args, link_id, link_seed)
        for link_id, link_seed in zip(links, link_seeds)
    }


def _as_record(record: Iterable[Any]) -> tuple[Any, ...]:
    """Normalize a detection record (JSON cache round-trips lists)."""
    return tuple(record)


def merge_link_results(per_link: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Deterministically merge per-link probe payloads.

    Each payload carries ``detections`` (deployment-contract tuples),
    ``metrics`` (a registry snapshot dict), ``spans`` (span dicts),
    ``sessions_completed``, ``events_processed`` and ``fluid_absorbed``.
    Links are folded in sorted id order so the output is a pure function
    of the payload *set* — the shards 1/2/4 byte-equality contract.
    """
    ordered = sorted(per_link)
    detections = sorted(
        _as_record(rec)
        for link_id in ordered
        for rec in per_link[link_id].get("detections", ())
    )
    snapshots = [per_link[link_id]["metrics"] for link_id in ordered
                 if per_link[link_id].get("metrics") is not None]
    metrics = merge_snapshots(*snapshots) if snapshots else {"metrics": []}
    spans = [span for link_id in ordered
             for span in per_link[link_id].get("spans", ())]
    return {
        "links": ordered,
        "detections": detections,
        "metrics": metrics,
        "prometheus": to_prometheus(metrics),
        "trace_jsonl": spans_to_jsonl(spans),
        "sessions_completed": {
            link_id: per_link[link_id].get("sessions_completed", 0)
            for link_id in ordered
        },
        "events_processed": sum(
            per_link[link_id].get("events_processed", 0)
            for link_id in ordered),
        "fluid_absorbed": sum(
            per_link[link_id].get("fluid_absorbed", 0)
            for link_id in ordered),
    }
