"""Benchmark umconv end to end, and layer by layer with --trace 1.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh interpreter (bench/worker.py),
one after another.  The number of passes follows from --seconds and the
per-pass cost recorded at the commit that added the benchmark
(workloads.passes), not from how fast the program runs.  Times are given in
reference seconds: scaled by the host's speed during the interval, which a
probe in the worker measures (timing.HostProbe).  Every output is
checked against bench/refs.  Prints each metric by name and unit, writes
the full result with raw samples to bench/out/results/, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 pass 0
runs once untraced and once traced, the metrics are the per-layer ones of
the traced pass, and the deterministic counts of a traced pass over the
reference inputs are checked against bench/refs/counts.json.  Exits 1 when
any output differs from its reference or a pass, the set-up, a hook or a
count check fails; 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hooks
import timing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # every run must end within 180 s
# Fresh-interpreter imports timed before the first pass and after each pass,
# so that setup_s samples the host at several moments of the run.
SETUP_FIRST, SETUP_BETWEEN = 3, 1

END_TO_END_UNITS = {
    "wall_s": "s",
    "code_s.p50": "s",
    "code_s.tail": "s",
    "slowest_code_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(count):
    """Seconds from a fresh interpreter until umconv.cli is imported.

    The child reads the system-wide monotonic clock once the import is done,
    so the sample does not include the parent's wait for the child to exit.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import umconv.cli; "
            "print(time.monotonic())")
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RunFailed(f"importing umconv.cli failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout) - start)
    return samples


class RunFailed(RuntimeError):
    """A pass, the set-up or a count check failed; the run reports no result."""


def run_worker(plan_path, index, trace, workdir, deadline):
    label = f"{Path(plan_path).stem}-{'traced' if trace else 'pass'}{index}"
    result = workdir / f"{label}.json"
    spans = OUT / "spans" / f"{label}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(index), str(trace),
            str(result), str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, cwd=ROOT, timeout=timeout, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{label} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{label} exited {proc.returncode}:\n{proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return json.loads(result.read_text())


def run_passes(plan_path, indices, workdir, deadline, setup):
    """Untraced passes `indices`; set-up samples are appended to `setup`
    after each pass."""
    passes = []
    for index in indices:
        passes.append(run_worker(plan_path, index, 0, workdir, deadline))
        setup += measure_setup(SETUP_BETWEEN)
    return passes


def summarize_pass(raw):
    return {
        "wall_s": raw["wall_ref_s"],
        "raw_wall_s": raw["wall_s"],
        "probe_s.median": statistics.median(cpu for _, cpu in raw["probe"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "attempted": len(raw["codes"]),
        "failed": sum(not c["ok"] for c in raw["codes"]),
        "failures": [c for c in raw["codes"] if not c["ok"]][:10],
    }


def per_code_summary(passes):
    """Median, tail and maximum over codes of each code's median time in
    reference seconds over the run's passes (each pass gives the code
    another order or transform, the same ones for every version of the
    program).  The median and the tail are Harrell-Davis estimates; the tail
    is taken at the percentile that timing.tail picks."""
    samples = {}
    for raw in passes:
        for c in raw["codes"]:
            if c["s"] is not None:
                samples.setdefault(c["code"], []).append(c["ref_s"])
    typical = {code: statistics.median(times) for code, times in samples.items()}
    times = list(typical.values())
    _, pct, n = timing.tail(times)
    slowest = max(typical, key=typical.get)
    return {
        "code_s.p50": timing.harrell_davis(times, 0.5),
        "code_s.tail": timing.harrell_davis(times, pct / 100),
        "tail_percentile": pct,
        "codes": n,
        "slowest_code_s": typical[slowest],
        "slowest_code": slowest,
        "samples": samples,
    }


def distribution(values):
    q1, med, q3 = timing.quartiles(values)
    return {"min": min(values), "median": med, "q1": q1, "q3": q3, "samples": values}


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy

    return {
        "git_sha": git_sha(),
        "code_version": workloads.code_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


COUNTED = [m for m, (unit, _, _) in hooks.LAYER_METRICS.items() if unit == "count"]


def traced_passes(plan, plan_path, workdir, deadline):
    """Traced pass 0, and the check of the deterministic per-layer counts.

    The counts of a traced pass over the reference inputs (pass 0 itself
    where the workload has none, see workloads.reference_plan) must equal
    bench/refs/counts.json for the program version it was recorded for.
    Another version is not checked, since its counts may rightly differ;
    the returned note says which.
    """
    workload = plan["workload"]
    traced = [run_worker(plan_path, 0, 1, workdir, deadline)]
    ref = workloads.load_ref("counts")
    version = workloads.code_version()
    if ref["code_version"] != version:
        return traced, (f"not checked: bench/refs/counts.json is for program version "
                        f"{ref['code_version'][:12]}, this is {version[:12]}")
    reference = workloads.reference_plan(workload, workdir)
    if reference is not None:
        reference_path = workdir / f"{workload}-reference.json"
        reference_path.write_text(json.dumps(reference))
        traced.append(run_worker(reference_path, 0, 1, workdir, deadline))
    expected, now = ref["counts"][workload], traced[-1]["layers"]
    diff = {m: (expected[m], now[m]) for m in COUNTED if expected[m] != now[m]}
    if diff:
        raise RunFailed(f"per-layer counts (recorded, now) differ from bench/refs/counts.json: "
                        f"{diff}")
    return traced, "identical to bench/refs/counts.json"


def layer_summary(traced, untraced):
    """Per-layer metrics of traced pass 0, which has the inputs of the
    untraced pass 0; the difference of their walls is the tracing cost."""
    metrics = {
        name: {"value": traced[0]["layers"][name], "unit": unit}
        for name, (unit, _, _) in hooks.LAYER_METRICS.items()
    }
    metrics["trace.wall_s"] = {"value": traced[0]["wall_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced[0]["wall_s"] - untraced[0]["wall_s"], "unit": "s"
    }
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "umconv" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'umconv'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    (OUT / "spans").mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = measure_setup(SETUP_FIRST)
        count = 1 if args.trace else workloads.passes(args.workload, args.seconds)
        plan = workloads.prepare(args.workload, args.seed, workdir, count)
        plan_path = workdir / f"{args.workload}-seed{args.seed}.json"
        plan_path.write_text(json.dumps(plan))
        # A traced run needs only pass 0 untraced, to price the tracing.
        indices = [0] if args.trace else range(len(plan["inputs"]))
        untraced = run_passes(plan_path, indices, workdir, deadline, setup)
        traced, counts_check = [], None
        if args.trace:
            traced, counts_check = traced_passes(plan, plan_path, workdir, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    summaries = [summarize_pass(p) for p in untraced + traced]
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    codes = per_code_summary(untraced)
    base = [summaries[i] for i, index in enumerate(indices) if plan["full"][index]]
    samples = {
        "wall_s": distribution([s["wall_s"] for s in base]),
        "raw_wall_s": distribution([s["raw_wall_s"] for s in base]),
        "probe_s.median": distribution([s["probe_s.median"] for s in base]),
        "setup_s": distribution(setup),
        "peak_rss_mb": distribution([s["peak_rss_mb"] for s in base]),
    }
    # Medians of the times in reference seconds and of set-up; the lowest
    # peak memory.
    end_to_end = {
        "wall_s": samples["wall_s"]["median"],
        "code_s.p50": codes["code_s.p50"],
        "code_s.tail": codes["code_s.tail"],
        "slowest_code_s": codes["slowest_code_s"],
        "setup_s": samples["setup_s"]["median"],
        "peak_rss_mb": samples["peak_rss_mb"]["min"],
    }
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": summaries,
        "raw_passes": untraced + traced,
        "per_code": codes,
        "samples": samples,
        "end_to_end": end_to_end,
        "fail_ratio": failed / attempted,
    }
    if args.trace:
        metrics = layer_summary(traced, untraced)
        result["layers"] = [p["layers"] for p in traced]
        result["counts_check"] = counts_check
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    result["metrics"] = metrics
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f", {len(traced)} traced  (results in {(results / name).relative_to(ROOT)})")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  code_s.tail is p{codes['tail_percentile']} of {codes['codes']} per-code median times;"
          f" slowest code {codes['slowest_code']}")
    print(f"  raw wall of the passes {samples['raw_wall_s']['samples']} s; median host probe"
          f" {samples['probe_s.median']['median'] * 1e3:.3f} ms against"
          f" {timing.PROBE_REF_S * 1e3:.3f} ms at the reference speed")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    if args.trace:
        print(f"  per-layer counts: {counts_check}")
    for summary in summaries:
        for failure in summary["failures"]:
            print(f"  FAILED {failure}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
