"""Metrics primitives: counters, gauges and log-scale histograms.

The registry follows the Prometheus data model (metric *families*
identified by name, instruments identified by name + label set) but is
designed for a discrete-event simulator's hot path:

* instruments are plain Python objects with ``__slots__`` and one-line
  ``inc``/``set``/``observe`` methods;
* components *pre-bind* their instruments at construction time, so the
  per-event cost is one method call on an already-resolved object;
* "telemetry disabled" means no registry at all: every instrumented
  component takes ``telemetry=None`` and binds nothing.

Histograms use log-scale buckets (a geometric ladder), the right shape
for latency- and duration-like quantities that span several orders of
magnitude (per-event callback wall time, queue occupancy).

Snapshots are plain JSON-serializable dicts so they can ride the
runtime's JSONL run log and the content-addressed result cache;
:func:`merge_snapshots` folds the snapshots of repeated runs together
(counters add, gauges keep the latest, histograms merge bucket-wise).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
]

#: Labels are carried as a sorted tuple of (key, value) pairs so that the
#: same label set always resolves to the same instrument.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, packets, bytes)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Instantaneous value (queue depth, active explorations)."""

    __slots__ = ("name", "labels", "value", "max_value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """Log-scale (geometric) histogram.

    Bucket ``i`` counts observations with ``value <= start * base**i``;
    one overflow bucket counts the rest (Prometheus ``+Inf``).  With the
    defaults (start 1e-6, base 10, 12 buckets) the ladder spans
    microseconds to ~10⁶ units, fine for wall-clock timings and queue
    depths alike.
    """

    __slots__ = ("name", "labels", "start", "base", "buckets", "counts",
                 "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet = (), *,
                 start: float = 1e-6, base: float = 10.0, n_buckets: int = 12):
        if start <= 0 or base <= 1 or n_buckets < 1:
            raise ValueError("histogram needs start > 0, base > 1, n_buckets >= 1")
        self.name = name
        self.labels = labels
        self.start = start
        self.base = base
        self.buckets = [start * base ** i for i in range(n_buckets)]
        self.counts = [0] * (n_buckets + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= self.start:
            self.counts[0] += 1
            return
        idx = int(math.ceil(math.log(value / self.start, self.base) - 1e-12))
        if idx >= len(self.buckets):
            self.counts[-1] += 1
        else:
            self.counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Registry of named instruments, keyed by (name, label set).

    Calling :meth:`counter` / :meth:`gauge` / :meth:`histogram` returns
    the existing instrument for that name + label combination or creates
    it — the Prometheus ``labels()`` idiom.  A name registered with one
    instrument kind cannot be re-registered as another.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelSet], object] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # -- instrument factories -------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", *,
                  start: float = 1e-6, base: float = 10.0, n_buckets: int = 12,
                  **labels: str) -> Histogram:
        return self._get(Histogram, name, help, labels, start=start, base=base,
                         n_buckets=n_buckets)

    def _get(self, cls, name: str, help: str, labels: dict, **options):
        key = (name, _labelset(labels))
        self._check_kind(name, cls.kind, help)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[1], **options)
            self._instruments[key] = inst
        return inst

    def _check_kind(self, name: str, kind: str, help: str) -> None:
        seen = self._kinds.get(name)
        if seen is not None and seen != kind:
            raise ValueError(f"metric {name!r} already registered as {seen}, not {kind}")
        self._kinds[name] = kind
        if help and name not in self._help:
            self._help[name] = help

    # -- queries --------------------------------------------------------------

    def __iter__(self) -> Iterable:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def get(self, name: str, **labels: str):
        """Existing instrument or ``None`` (never creates)."""
        return self._instruments.get((name, _labelset(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Scalar value of a counter/gauge; 0 when absent."""
        inst = self.get(name, **labels)
        if inst is None:
            return 0
        return inst.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(
            inst.value for (n, _), inst in self._instruments.items()  # type: ignore[union-attr]
            if n == name and isinstance(inst, Counter)
        )

    def families(self) -> dict[str, list]:
        """Instruments grouped by metric name (sorted for stable output)."""
        out: dict[str, list] = {}
        for (name, _), inst in sorted(self._instruments.items()):
            out.setdefault(name, []).append(inst)
        return out

    # -- serialization ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state of every instrument."""
        metrics = []
        for (name, labels), inst in sorted(self._instruments.items()):
            entry = {
                "name": name,
                "kind": inst.kind,  # type: ignore[attr-defined]
                "labels": {k: v for k, v in labels},
            }
            entry.update(inst.snapshot())  # type: ignore[attr-defined]
            metrics.append(entry)
        return {"metrics": metrics}


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold registry snapshots together (e.g. across cell repetitions).

    Counters add; gauges keep the last value and the running max;
    histograms require identical bucket ladders and merge bucket-wise.
    """
    merged: dict[tuple[str, tuple], dict] = {}
    for snap in snapshots:
        for entry in snap.get("metrics", ()):
            key = (entry["name"], tuple(sorted(entry.get("labels", {}).items())))
            seen = merged.get(key)
            if seen is None:
                merged[key] = {
                    **entry,
                    "labels": dict(entry.get("labels", {})),
                    "buckets": list(entry.get("buckets", ())) or None,
                    "counts": list(entry.get("counts", ())) or None,
                }
                # strip the None placeholders for non-histograms
                if merged[key]["buckets"] is None:
                    merged[key].pop("buckets")
                    merged[key].pop("counts")
                continue
            kind = entry["kind"]
            if kind == "counter":
                seen["value"] += entry["value"]
            elif kind == "gauge":
                seen["value"] = entry["value"]
                seen["max"] = max(seen.get("max", 0), entry.get("max", 0))
            elif kind == "histogram":
                if seen.get("buckets") != entry.get("buckets"):
                    raise ValueError(
                        f"cannot merge histogram {entry['name']!r}: bucket ladders differ"
                    )
                seen["count"] += entry["count"]
                seen["sum"] += entry["sum"]
                mins = [m for m in (seen.get("min"), entry.get("min")) if m is not None]
                maxs = [m for m in (seen.get("max"), entry.get("max")) if m is not None]
                seen["min"] = min(mins) if mins else None
                seen["max"] = max(maxs) if maxs else None
                seen["counts"] = [a + b for a, b in zip(seen["counts"], entry["counts"])]
    return {"metrics": [merged[k] for k in sorted(merged)]}
