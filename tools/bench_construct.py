"""Time the construction of every admissible code at each given q.

    python tools/bench_construct.py --q 13,16 --out BENCH_construct.json

For each q this builds `construct_family(spec)` for every spec of
`admissible_parameters(q)`, in that order, in this one process, and records
the code count, the wall time (the sum of the construct calls), the seconds
spent in the block-distance search (`blockcode._dependency_min_weight`),
the budget steps spent (every `_Budget.spend` call is counted, limited or
not), the slowest code and a digest of the bundles.  The digest is sha256
over the hex `bench/workloads.bundle_digest` of each bundle in that order:
equal digests mean equal bundles.  The wrappers live in this script only.

The output file is a JSON object keyed by --label; a run replaces its own
label's entry and keeps the others, so the records of two versions of the
program can sit side by side.  Steps are deterministic; seconds depend on
the host, which is recorded with them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from umconv import blockcode  # noqa: E402
from umconv.constructions import admissible_parameters, construct_family  # noqa: E402
from workloads import bundle_digest  # noqa: E402


def measure(q):
    steps = [0]
    search_s = [0.0]
    spend = blockcode._Budget.spend
    search = blockcode._dependency_min_weight

    def counted_spend(self, amount=1, lower_bound=None):
        steps[0] += amount
        return spend(self, amount, lower_bound)

    def timed_search(parity, r, budget=None):
        begin = time.perf_counter()
        try:
            return search(parity, r, budget)
        finally:
            search_s[0] += time.perf_counter() - begin

    blockcode._Budget.spend = counted_spend
    blockcode._dependency_min_weight = timed_search
    try:
        digest = hashlib.sha256()
        slowest = (0.0, None)
        wall = 0.0
        specs = admissible_parameters(q)
        for spec in specs:
            begin = time.perf_counter()
            bundle = construct_family(spec)
            seconds = time.perf_counter() - begin
            wall += seconds
            key = f"{spec.family}/q{q}/n{spec.n}/k{spec.k}/d{spec.delta}"
            slowest = max(slowest, (seconds, key))
            digest.update(bundle_digest(bundle).encode())
    finally:
        blockcode._Budget.spend = spend
        blockcode._dependency_min_weight = search
    return {
        "codes": len(specs),
        "wall_s": round(wall, 4),
        "search_s": round(search_s[0], 4),
        "search_steps": steps[0],
        "slowest_code": slowest[1],
        "slowest_code_s": round(slowest[0], 4),
        "digest": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", required=True, help="comma-separated field sizes")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--label", default="current", help="key of this run's record")
    args = parser.parse_args(argv)
    record = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "q": {},
    }
    for q in (int(x) for x in args.q.split(",")):
        record["q"][str(q)] = result = measure(q)
        print(f"q={q}: {json.dumps(result)}")
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
