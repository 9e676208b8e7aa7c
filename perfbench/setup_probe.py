"""Print the monotonic clock at a workload's first ``Simulator.run`` call.

``python3 perfbench/setup_probe.py <workload> <seed>`` starts a fresh
interpreter, imports the program, builds the workload's inputs and runs
it until the engine is first asked to run; there it prints
``time.monotonic()`` and the speed probe's total and mean duration
(``speed.py``), and exits at once.  The caller subtracts its own clock
reading taken just before starting the process, which gives ``setup_s``
(interpreter start, ``import repro``, and building the simulation), and
converts it to reference seconds with the probe's figures.
(``CLOCK_MONOTONIC`` is system-wide on Linux, so the two readings
compare across processes.)
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.speed import SpeedProbe

    with SpeedProbe() as probe:
        from perfbench.workloads import WORKLOADS
        from repro.simulator.engine import Simulator

        def first_run(self: Simulator, *args: object, **kwargs: object) -> None:
            reached = time.monotonic()
            print(repr(reached), repr(probe.total_s), repr(probe.mean_s), flush=True)
            os._exit(0)

        Simulator.run = first_run  # type: ignore[method-assign]
        workload = WORKLOADS[argv[1]]
        workload.run(workload.make_inputs(int(argv[2])))
    print(f"setup_probe: {argv[1]} never called Simulator.run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
