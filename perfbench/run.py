"""Benchmark runner for the FANcY reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fat-tree --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` from fresh
interpreters, then repeated in-process runs of the workload on the
inputs generated from ``--seed`` until ``--seconds`` are used up.  Both
timings are in reference seconds, corrected by a host-speed probe
sampled throughout each timed interval (``speed.py``).
``--trace 1`` runs the workload untraced and then once under the
per-layer tracer, and reports the per-layer metrics.  Both modes check
the program's outputs.  A table goes to standard output first; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from perfbench.speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_RUNS = 5
#: Timed in-process runs per measurement: at least / at most.
MIN_RUNS = 3
MAX_RUNS = 50


class Checks:
    """Named pass/fail correctness checks; each one is an attempt."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def extend(self, checks: list[tuple[str, bool]]) -> None:
        for name, ok in checks:
            self.add(name, ok)


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Raises ImportError unless ``repro`` comes from this checkout: the
    benchmark measures the source next to it, never an installed copy.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS) -> list[float]:
    """Reference seconds from process start to the first ``Simulator.run``, per run."""
    from perfbench.speed import reference_seconds

    out = []
    for _ in range(runs):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        reached, probe_total, probe_mean = map(float, proc.stdout.split()[-3:])
        out.append(reference_seconds(reached - started, probe_total, probe_mean))
    return out


def run_once(workload: Any, inputs: Any, reference: Any,
             probe: SpeedProbe | None = None) -> tuple[float, Any]:
    """One timed program run (host seconds), then its (untimed) evaluation.

    With a ``probe``, the host's speed is sampled during the run.
    """
    gc.collect()
    with probe or contextlib.nullcontext():
        started = time.perf_counter()
        result = workload.run(inputs)
        wall = time.perf_counter() - started
    return wall, workload.evaluate(inputs, result, reference)


def measure(workload: Any, inputs: Any, seed: int, seconds: float,
            checks: Checks, report: list[str]) -> dict[str, float]:
    """End-to-end metrics: set-up, then timed runs until ``seconds`` are used."""
    from perfbench.probes import WorkCounts
    from perfbench.speed import SpeedProbe

    deadline = time.perf_counter() + seconds
    setups = measure_setup(workload.name, seed)
    reference = workload.reference(inputs) if workload.reference else None
    counts = WorkCounts()
    counts.install()
    try:
        # The first in-process run pays lazy imports and warms caches:
        # it is checked and sets the digests and counts to repeat, untimed.
        _, first = run_once(workload, inputs, reference)
        first_work = counts.take()
        checks.extend(first.checks)
        probe = SpeedProbe()
        walls: list[float] = []
        host_walls: list[float] = []
        probe_means: list[float] = []
        while len(walls) < MAX_RUNS:
            wall, outcome = run_once(workload, inputs, reference, probe)
            host_walls.append(wall)
            probe_means.append(probe.mean_s)
            walls.append(probe.reference_seconds(wall))
            checks.extend(outcome.checks)
            checks.add("digests_repeat", outcome.digests == first.digests)
            checks.add("work_counts_repeat", counts.take() == first_work)
            if (len(walls) >= MIN_RUNS
                    and time.perf_counter() + statistics.median(host_walls) > deadline):
                break
    finally:
        counts.uninstall()
    report.append(f"runs: {len(walls)} timed after 1 warm-up; wall_s per run "
                  + " ".join(f"{w:.4f}" for w in walls))
    report.append("host seconds per run: " + " ".join(f"{w:.4f}" for w in host_walls))
    report.append("speed probe mean per run, us: "
                  + " ".join(f"{m * 1e6:.1f}" for m in probe_means))
    report.append("setup_s per process: " + " ".join(f"{s:.4f}" for s in setups))
    report.append("work counts per run: " + json.dumps(first_work, sort_keys=True))
    if counts.missing:
        report.append("probes skipped (target missing): " + ", ".join(counts.missing))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "detect_sim_s": float(first.detect_sim_s),
        "tpr": float(first.tpr),
    }


def measure_traced(workload: Any, inputs: Any, seed: int, checks: Checks,
                   report: list[str]) -> dict[str, float]:
    """Per-layer metrics from one traced run, checked against untraced runs."""
    from perfbench.metrics import CHECKSUM_FUNCTIONS, layer_metrics
    from perfbench.probes import DETERMINISTIC, WorkCounts
    from perfbench.tracer import Tracer, callable_attributes, fold

    reference = workload.reference(inputs) if workload.reference else None
    counts = WorkCounts(traced=True)
    counts.install()
    try:
        _, first = run_once(workload, inputs, reference)
        first_work = counts.take()
        counts.take_instances("links")
        untraced_wall, outcome = run_once(workload, inputs, reference)
        checks.extend(first.checks + outcome.checks)
        checks.add("digests_repeat", outcome.digests == first.digests)
        checks.add("work_counts_repeat", counts.take() == first_work)
        counts.take_instances("links")

        before = callable_attributes()
        tracer = Tracer(always_span=CHECKSUM_FUNCTIONS)
        tracer.install()
        try:
            traced_wall, traced = run_once(workload, inputs, reference)
        finally:
            tracer.uninstall()
        after = callable_attributes()
        checks.add("tracer_wrappers_removed", before.keys() == after.keys()
                   and all(after[key] is obj for key, obj in before.items()))
        traced_work = counts.take()
        links = counts.take_instances("links")
    finally:
        counts.uninstall()
    checks.extend(traced.checks)
    checks.add("traced_digests_equal_untraced", traced.digests == first.digests)
    checks.add("traced_counts_equal_untraced",
               all(traced_work[key] == first_work[key] for key in DETERMINISTIC))

    spans = tracer.spans()
    folded = fold(spans, traced_wall, {"checksum": CHECKSUM_FUNCTIONS})
    total = sum(folded["self_s"].values()) + folded["unattributed_s"]
    checks.add("self_times_add_up_to_wall",
               folded["consistent"] and abs(total - traced_wall) <= 1e-6 * traced_wall)
    metrics = layer_metrics(tracer, folded, traced_work, links, untraced_wall)
    path = write_trace(workload.name, seed, spans, folded, metrics)
    report.append(f"untraced wall {untraced_wall:.4f} s, traced wall {traced_wall:.4f} s, "
                  f"{folded['spans']} spans over {len(tracer.names)} wrapped "
                  f"functions; trace written to {path.relative_to(ROOT)}")
    return metrics


def write_trace(workload: str, seed: int, spans: dict[str, Any],
                folded: dict[str, Any], metrics: dict[str, float]) -> Path:
    """Raw spans (``.npz``) and a summary with the top functions (``.json``)."""
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    base = OUT_DIR / f"{workload}-seed{seed}"
    np.savez(base.with_suffix(".npz"), **spans)
    by_name = folded["self_by_name"]
    top = sorted(range(len(by_name)), key=lambda i: -by_name[i])[:40]
    summary = {
        "metrics": metrics,
        "top_self_s": [[str(spans["names"][i]), float(by_name[i]),
                        int(spans["calls"][i])] for i in top],
    }
    base.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    return base.with_suffix(".npz")


def main(argv: list[str] | None = None) -> int:
    try:
        import_program()
        from perfbench.metrics import END_TO_END, PER_LAYER
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    checks = Checks()
    report: list[str] = [f"workload {workload.name}, seed {args.seed}: {workload.why}"]
    if args.trace:
        metrics = measure_traced(workload, inputs, args.seed, checks, report)
        units = PER_LAYER
    else:
        metrics = measure(workload, inputs, args.seed, args.seconds, checks, report)
        metrics["pass_rate"] = 1.0 - len(checks.failed) / checks.attempted
        units = END_TO_END
    report.append(f"checks: {checks.attempted} attempted, {len(checks.failed)} failed"
                  + (" (" + ", ".join(sorted(set(checks.failed))) + ")"
                     if checks.failed else ""))
    report.append(f"  {'error_rate':<26} {len(checks.failed) / checks.attempted:>14.6g} ratio")
    for name, value in metrics.items():
        report.append(f"  {name:<26} {value:>14.6g} {units[name][0]}")
    print("\n".join(report))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
