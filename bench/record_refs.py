"""Record the references the benchmark checks every run against.

    python3 bench/record_refs.py

Writes bench/refs/{sweep,construct,verify,counts}.json from the program in
src/.  Run it only when the program's output or its per-layer counts are
meant to change; it takes about three and a half minutes.

- sweep.json: every row of `umconv sweep --q 3,4,5,7,8 --format json`
  minus ms_elapsed, and the exit code of that command and of the short
  sweep `--q 3,4,5,7`;
- construct.json: sha256 of each bundle's to_json() plus split distances;
- verify.json: the `verify --format json` report and exit code of each
  untransformed pool member;
- counts.json: the deterministic per-layer counts of one traced pass of
  each workload over its reference inputs (workloads.reference_plan), each
  in a fresh interpreter as run.py makes them, with the program version
  (sha256 of src/umconv) they hold for.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import hooks  # noqa: E402
import workloads  # noqa: E402
from umconv import cli  # noqa: E402


def _write(name, obj):
    (workloads.REFS / f"{name}.json").write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def traced_counts(workload, tmp):
    """Per-layer counts of one traced pass in a fresh interpreter."""
    plan = workloads.reference_plan(workload, tmp) or workloads.prepare(workload, 0, tmp, 1)
    plan_path, result = tmp / f"{workload}-plan.json", tmp / f"{workload}-result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path), "0", "1",
                    str(result), str(tmp / f"{workload}-spans.json")], check=True)
    layers = json.loads(result.read_text())["layers"]
    return {m: layers[m] for m, (unit, _, _) in hooks.LAYER_METRICS.items() if unit == "count"}


def main():
    workloads.REFS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        tmp = Path(tmp)
        out = tmp / "sweep.json"
        exits = {}
        for qs in (workloads.SWEEP_SHORT_Q, workloads.SWEEP_Q):
            key = workloads.q_key(qs)
            exits[key] = cli.main(["sweep", "--q", key, "--format", "json", "--output", str(out)])
        rows = workloads.strip_elapsed(json.loads(out.read_text()))
        _write("sweep", {"exit": exits, "rows": rows})

        digests = {
            key: workloads.bundle_digest(cli.construct_family(spec))
            for key, spec in workloads.construct_specs().items()
        }
        _write("construct", digests)

        reports = {}
        for name, bundle in workloads.verify_pool():
            path = tmp / "bundle.json"
            coeffs = bundle.parity.to_json()["coeffs"]
            path.write_text(json.dumps(workloads.verify_payload(bundle, coeffs)))
            rc, stdout = workloads.run_verify(path)
            reports[name] = {"exit": rc, "report": json.loads(stdout)}
        _write("verify", reports)

        counts = {w: traced_counts(w, tmp) for w in workloads.WORKLOADS}
        _write("counts", {"code_version": workloads.code_version(), "counts": counts})


if __name__ == "__main__":
    main()
