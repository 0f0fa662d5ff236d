"""Run one pass of a workload in a fresh interpreter.

    python3 bench/worker.py PLAN.json INDEX TRACE RESULT.json SPANS.json

Started by run.py once per pass, so no cache outlives a pass and the peak
resident memory is that of one pass.  INDEX picks the pass's input set.
A host probe runs beside the pass (timing.HostProbe); the pass's wall and
each code's time are also given scaled to the reference host speed
(`wall_ref_s`, `ref_s`).  With TRACE=1 the layer boundaries are wrapped
(see hooks.py), the spans are written to SPANS.json and the per-layer
totals go into RESULT.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv):
    plan_path, index, trace, result_path, spans_path = argv[1:]
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, str(SRC))
    import umconv

    if not Path(umconv.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"umconv imported from {umconv.__file__}, not from {SRC}")

    import hooks
    import timing
    import workloads

    # The probe must see the core the pass runs on, so both threads share one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if trace == "1":
        tracer = hooks.Tracer()
        tracer.install()
    try:
        with timing.HostProbe() as host:
            start = time.perf_counter()
            wall, codes = workloads.run_pass(plan, int(index), tracer)
            end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for c in codes:
        if c["s"] is not None:
            c["ref_s"] = c["s"] * timing.speed_scale(host.samples, c["start"],
                                                     c["start"] + c["s"])
    result = {
        "wall_s": wall,
        "wall_ref_s": wall * timing.speed_scale(host.samples, start, end),
        "codes": codes,
        "probe": host.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        totals = hooks.layer_totals(tracer.spans(), tracer.counts)
        hooks.check_crossed(plan["workload"], totals)
        result["layers"] = hooks.layer_metrics(totals)
        Path(spans_path).write_text(json.dumps(tracer.to_json()))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
