"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Every workload drives umconv through its public entry points from one
process in a closed loop: one caller, each code starting only after the
previous one finished, no other thread calling the program.

- sweep: `umconv sweep --q 3,4,5,7,8 --format json` in-process (83 codes,
  each constructed and classified with precomputed certificates).  Each
  such pass is followed by SHORT_PER_FULL passes of `--q 3,4,5,7`, the
  full sweep's first 40 codes, so that these short codes are timed at more
  moments of the run than the one full pass gives.
- construct: `construct_family` for every admissible spec at
  q = 3,4,5,7,8,9,11 (248 bundles) in an order shuffled by the seed.
- verify-perm: `umconv verify --input FILE --format json` on seeded
  monomial transforms of the 11 fixtures and the 35 admissible codes at
  q = 5,7.

A run makes a fixed number of passes (`passes`), and pass i uses input
set i: its own shuffle on construct, its own transformed copy of each code
on verify-perm.  The number depends on --seconds only, never on how fast
the program is, so two versions of the program sample the same inputs the
same number of times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

SWEEP_Q = (3, 4, 5, 7, 8)
SWEEP_SHORT_Q = (3, 4, 5, 7)
SHORT_PER_FULL = 4
CONSTRUCT_Q = (3, 4, 5, 7, 8, 9, 11)
VERIFY_Q = (5, 7)

WORKLOADS = ("sweep", "construct", "verify-perm")

# Seconds one untraced pass (on sweep: a full pass and its short passes)
# took at the commit that added the benchmark (2 cores, Python 3.11).  They
# fix how many passes fit in --seconds, once, so that a faster or slower
# program still makes the same passes.  Sweep's full pass is one sample of
# its wall and of its slowest code, and the scaling to reference seconds
# makes one steady enough; the others need two orders or transforms at least.
PASS_COST_S = {"sweep": 28.0, "construct": 15.0, "verify-perm": 7.5}
MIN_PASSES = {"sweep": 1, "construct": 2, "verify-perm": 2}


def passes(workload, seconds):
    """Number of full passes of a run; every pass has its own input set."""
    return max(MIN_PASSES[workload], int(seconds // PASS_COST_S[workload]))


def spec_key(spec):
    return f"{spec.family}/q{spec.q}/n{spec.n}/k{spec.k}/d{spec.delta}/t{spec.tau}"


def row_key(row):
    """Key of a sweep row (or a bundle's vars) by its convolutional parameters."""
    return f"{row['family']}/q{row['q']}/({row['n']},{row['k']},{row['delta']})"


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def bundle_digest(bundle):
    """sha256 of the bundle's JSON together with its split distances."""
    payload = {"bundle": bundle.to_json(), "split_distances": list(bundle.split_distances)}
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def code_version():
    """sha256 over the program's sources; the checkout need not be git."""
    digest = hashlib.sha256()
    src = REFS.parent.parent / "src"
    for path in sorted((src / "umconv").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_ref(name):
    with open(REFS / f"{name}.json") as handle:
        return json.load(handle)


# -- sweep -------------------------------------------------------------------


def q_key(qs):
    return ",".join(map(str, qs))


def strip_elapsed(rows):
    return [{k: v for k, v in row.items() if k != "ms_elapsed"} for row in rows]


def sweep_mismatches(ref_rows, got_rows):
    """Keys of rows that differ, are missing, or were not expected."""
    ref = {row_key(r): canonical(r) for r in ref_rows}
    got = {row_key(r): canonical(r) for r in strip_elapsed(got_rows)}
    return sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))


def _sweep_pass(plan, qs, tracer):
    from umconv import cli

    out = Path(plan["workdir"]) / "sweep.json"
    construct, classify = cli.construct_family, cli.classify
    marks = []  # [spec key, row key, start, end] per code

    # Per-code time covers the interval the CLI's ms_elapsed covers
    # (construct, then classify), at full clock resolution.
    def timed_construct(spec, *args, **kwargs):
        if tracer is not None:
            tracer.set_code(spec_key(spec))
        start = time.perf_counter()
        bundle = construct(spec, *args, **kwargs)
        marks.append([spec_key(spec), row_key(vars(bundle)), start, None])
        return bundle

    def timed_classify(*args, **kwargs):
        try:
            return classify(*args, **kwargs)
        finally:
            marks[-1][3] = time.perf_counter()

    cli.construct_family, cli.classify = timed_construct, timed_classify
    argv = ["sweep", "--q", q_key(qs), "--format", "json", "--output", str(out)]
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        cli.construct_family, cli.classify = construct, classify

    ref = load_ref("sweep")
    ref_rows = [row for row in ref["rows"] if row["q"] in qs]
    bad = set(sweep_mismatches(ref_rows, json.loads(out.read_text())))
    everything_failed = rc != ref["exit"][q_key(qs)]
    codes = [
        {
            "code": key,
            "start": begin,
            "s": end - begin,
            "ok": not everything_failed and rkey not in bad,
        }
        for key, rkey, begin, end in marks
    ]
    # A reference row the run never produced counts as a failed code.
    seen = {rkey for _, rkey, _, _ in marks}
    codes += [{"code": k, "start": None, "s": None, "ok": False} for k in sorted(bad - seen)]
    return wall, codes


# -- construct ---------------------------------------------------------------


def construct_specs():
    from umconv.constructions import admissible_parameters

    return {spec_key(s): s for q in CONSTRUCT_Q for s in admissible_parameters(q)}


def _construct_pass(plan, order, tracer):
    from umconv import constructions

    specs = construct_specs()
    refs = load_ref("construct")
    codes = []
    checking = 0.0
    start = time.perf_counter()
    for key in order:
        if tracer is not None:
            tracer.set_code(key)
        begin = time.perf_counter()
        try:
            bundle = constructions.construct_family(specs[key])
        except Exception as exc:  # a raising code is a failed operation
            codes.append({"code": key, "start": begin, "s": time.perf_counter() - begin,
                          "ok": False, "error": repr(exc)})
            continue
        end = time.perf_counter()
        ok = bundle_digest(bundle) == refs.get(key)
        checking += time.perf_counter() - end
        codes.append({"code": key, "start": begin, "s": end - begin, "ok": ok})
    wall = time.perf_counter() - start - checking
    return wall, codes


# -- verify-perm --------------------------------------------------------------


def verify_pool():
    """(name, bundle) for the 11 fixtures and the admissible codes at q = 5, 7."""
    from umconv.constructions import admissible_parameters, construct_family
    from umconv.fixtures import FIXTURES, build_fixture

    pool = [(f"fixture-{fx.number}", build_fixture(fx)) for fx in FIXTURES]
    for q in VERIFY_Q:
        pool += [(spec_key(s), construct_family(s)) for s in admissible_parameters(q)]
    return pool


def monomial_transform(coeffs, field, rng):
    """Apply one random column permutation and nonzero column scaling to
    every coefficient matrix.  Monomially equivalent codes have the same
    weights, so every distance and verdict is unchanged."""
    n = len(coeffs[0][0])
    perm = rng.sample(range(n), n)
    scale = [rng.randrange(1, field.order) for _ in range(n)]
    return [
        [[field.mul(scale[j], row[perm[j]]) for j in range(n)] for row in matrix]
        for matrix in coeffs
    ]


def verify_payload(bundle, coeffs):
    """Bundle JSON as `umconv verify --input` reads it."""
    return {
        "family": bundle.family,
        "q": bundle.q,
        "n": bundle.n,
        "k": bundle.k,
        "delta": bundle.delta,
        "parity": {"coeffs": coeffs},
        "expected": dict(bundle.expected),
    }


def run_verify(path):
    """(exit code, parsed report) of `umconv verify` on one bundle file."""
    from umconv import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--input", str(path), "--format", "json"])
    return rc, buf.getvalue()


def verify_mismatch(ref, rc, stdout):
    """Why a verify result differs from its reference, or None."""
    if rc != ref["exit"]:
        return f"exit {rc}, expected {ref['exit']}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if canonical(report) != canonical(ref["report"]):
        return "report differs"
    return None


def _verify_pass(plan, files, tracer):
    refs = load_ref("verify")
    codes = []
    checking = 0.0
    start = time.perf_counter()
    for name, path in files:
        if tracer is not None:
            tracer.set_code(name)
        begin = time.perf_counter()
        try:
            rc, stdout = run_verify(path)
        except Exception as exc:  # a raising code is a failed operation
            codes.append({"code": name, "start": begin, "s": time.perf_counter() - begin,
                          "ok": False, "error": repr(exc)})
            continue
        end = time.perf_counter()
        error = verify_mismatch(refs[name], rc, stdout)
        checking += time.perf_counter() - end
        codes.append({"code": name, "start": begin, "s": end - begin, "ok": error is None,
                      "error": error})
    wall = time.perf_counter() - start - checking
    return wall, codes


# -- plans -------------------------------------------------------------------


def _verify_files(pool, workdir, index, seed):
    """Bundle files of one verify-perm pass: transformed copy `index` of
    every pool member, or the untransformed pool when `seed` is None."""
    files = []
    for name, bundle in pool:
        coeffs = bundle.parity.to_json()["coeffs"]
        if seed is not None:
            rng = random.Random(f"verify-perm/{seed}/{name}/{index}")
            coeffs = monomial_transform(coeffs, bundle.parity.field, rng)
        path = Path(workdir) / f"{name.replace('/', '_')}.{index}.json"
        path.write_text(json.dumps(verify_payload(bundle, coeffs)))
        files.append((name, str(path)))
    return files


def prepare(workload, seed, workdir, count):
    """Inputs for the `count` passes of one run, derived from the seed only."""
    plan = {"workload": workload, "seed": seed, "workdir": str(workdir)}
    if workload == "sweep":
        # The sweep's inputs are fixed; the seed does not change them.
        # Only the full passes give wall_s and peak_rss_mb samples.
        plan["inputs"], plan["full"] = [], []
        for _ in range(count):
            plan["inputs"] += [list(SWEEP_Q)] + [list(SWEEP_SHORT_Q)] * SHORT_PER_FULL
            plan["full"] += [True] + [False] * SHORT_PER_FULL
    elif workload == "construct":
        orders = []
        for index in range(count):
            order = sorted(construct_specs())
            random.Random(f"construct/{seed}/{index}").shuffle(order)
            orders.append(order)
        plan["inputs"] = orders
        plan["full"] = [True] * count
    elif workload == "verify-perm":
        pool = verify_pool()
        plan["inputs"] = [_verify_files(pool, workdir, i, seed) for i in range(count)]
        plan["full"] = [True] * count
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def reference_plan(workload, workdir):
    """A pass over inputs that no seed changes, for the per-layer count
    check, or None where pass 0's own counts serve: the sweep is the same
    for every seed, and construct's seed only orders codes that share no
    work, so its counts do not depend on the seed.  verify-perm's transforms
    change the search path, so its reference is the untransformed pool."""
    if workload != "verify-perm":
        return None
    pool = verify_pool()
    return {"workload": workload, "seed": None, "workdir": str(workdir),
            "inputs": [_verify_files(pool, workdir, "ref", None)]}


_PASSES = {
    "sweep": _sweep_pass,
    "construct": _construct_pass,
    "verify-perm": _verify_pass,
}


def run_pass(plan, index, tracer=None):
    """Pass `index` over the plan: (wall seconds, per-code records)."""
    return _PASSES[plan["workload"]](plan, plan["inputs"][index], tracer)
