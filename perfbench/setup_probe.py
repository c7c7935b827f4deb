"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first call: importing the layers
(which declares and checks the concept models) and building the
workload's inputs.  Imports happen once per process, so each set-up
sample needs its own process.  Prints one JSON object: the time and the
speed factor measured just before it (``perfbench.common.
reference_speed``); with ``--trace`` also the concept checks made
during set-up.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR [--trace]
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import reference_speed
    from perfbench.run import WORKLOADS
    from perfbench.spans import Recorder

    rec = None
    if "--trace" in argv:
        from repro.concepts.modeling import ModelRegistry

        rec = Recorder()
        rec.span(ModelRegistry, "check", "concepts.check")
    speed = reference_speed()
    t0 = time.perf_counter()
    WORKLOADS[workload].build(seed, workdir)
    out = {"setup_s": time.perf_counter() - t0, "speed": speed}
    if rec is not None:
        out["checks"] = len(rec.spans)
        out["check_self_s"] = rec.self_times().get("concepts.check", 0.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
