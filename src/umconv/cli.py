"""Command line front end.

Subcommands: field (inspect a finite field), construct (build one code),
verify (classify a bundle), examples (regenerate the pinned examples),
sweep (classify every admissible tuple of the guaranteed ranges).

Exit codes: 0 success, 1 a claimed property was refuted or a pinned
example mismatched, 2 invalid parameters, 3 search budget exhausted with
inconclusive verdicts, 4 an internal consistency check failed.  Output is
deterministic for fixed inputs: rows are sorted, never arrival-ordered.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .constructions import (
    FAMILIES,
    FAMILY_TABLE,
    admissible_parameters,
    construct_family,
    family,
)
from .convcode import (
    BudgetExceeded,
    ConvCodeDesc,
    PolyMatrix,
    Verdict,
    classify,
)
from .fixtures import FIXTURES, check_fixture, fixture_by_number
from .galois import field_for_order, make_ext_field, make_field, poly_str
from .linalg import FMatrix

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Family parameters in table order, and the flags only extension families take.
_PARAMS = tuple(dict.fromkeys(p for fam in FAMILY_TABLE.values() for p in fam.params))
_EXT_OPTS = ("ext_modulus", "ext_theta")


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _add_common(parser):
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_classify_opts(parser):
    parser.add_argument("--jmax", type=int, default=4, help="last column-distance window")
    parser.add_argument(
        "--budget", type=int, default=10_000_000, help="total search-step budget"
    )


def _add_construct_opts(parser):
    parser.add_argument("--family", choices=FAMILIES, help="construction family")
    parser.add_argument("--q", type=int, help="field size")
    ext_families = ", ".join(f for f, fam in FAMILY_TABLE.items() if fam.extension)
    for name in _PARAMS:
        users = [f for f, fam in FAMILY_TABLE.items() if name in fam.params]
        parser.add_argument(
            f"--{name}", type=int, help=f"parameter of {', '.join(users)}"
        )
    parser.add_argument(
        "--ext-modulus",
        type=_int_list,
        default=None,
        metavar="C0,C1",
        help="quadratic extension modulus coefficients (constant, linear); "
        f"{ext_families} only",
    )
    parser.add_argument(
        "--ext-theta",
        type=int,
        default=None,
        help="primitive element override for the quadratic extension; "
        f"{ext_families} only",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="umconv",
        description="Construct and verify unit-memory MDS convolutional codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="describe a finite field")
    p.add_argument("--p", type=int, required=True, help="characteristic")
    p.add_argument("--m", type=int, required=True, help="extension degree")
    p.add_argument(
        "--modulus",
        type=_int_list,
        default=None,
        metavar="C0,..,CM",
        help="ascending modulus coefficients; default smallest irreducible",
    )
    p.add_argument("--tables", action="store_true", help="print full Cayley tables")
    _add_common(p)

    p = sub.add_parser("construct", help="build one code bundle")
    _add_construct_opts(p)
    _add_common(p)

    p = sub.add_parser("verify", help="classify a bundle (file, stdin, or inline)")
    p.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="bundle JSON path, '-' for stdin; omit to construct inline",
    )
    _add_construct_opts(p)
    _add_classify_opts(p)
    _add_common(p)

    p = sub.add_parser("examples", help="regenerate the pinned worked examples")
    p.add_argument(
        "--id",
        type=_int_list,
        default=None,
        metavar="I,J,..",
        help="example numbers (default all)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any regenerated example mismatches its pinned data",
    )
    _add_classify_opts(p)
    _add_common(p)

    p = sub.add_parser("sweep", help="classify every admissible tuple")
    p.add_argument(
        "--q", type=_int_list, required=True, metavar="Q,..", help="field sizes"
    )
    p.add_argument(
        "--families",
        default=",".join(FAMILIES),
        metavar="F,..",
        help="comma-separated family subset",
    )
    p.add_argument("--output", default=None, metavar="PATH", help="write table here")
    _add_classify_opts(p)
    _add_common(p)
    return parser


def _ext_from_args(q, args):
    if args.ext_modulus is None and args.ext_theta is None:
        return None
    base = field_for_order(q)
    modulus = args.ext_modulus
    if modulus is not None:
        modulus = list(modulus)
        if len(modulus) == 2:
            modulus.append(1)
        modulus = tuple(modulus)
    return make_ext_field(base, modulus=modulus, theta=args.ext_theta)


def _flags(args, names, given):
    """The flags among `names` that were given, or (given=False) left out."""
    return [
        "--" + name.replace("_", "-")
        for name in names
        if (getattr(args, name) is not None) == given
    ]


def _construct_from_args(args):
    if args.family is None or args.q is None:
        raise ValueError("construction needs --family and --q")
    fam = family(args.family)
    takes = fam.params + (_EXT_OPTS if fam.extension else ())
    unused = _flags(args, [n for n in _PARAMS + _EXT_OPTS if n not in takes], True)
    if unused:
        raise ValueError(f"{args.family} does not take {', '.join(unused)}")
    missing = _flags(args, fam.params, False)
    if missing:
        raise ValueError(f"{args.family} needs {', '.join(missing)}")
    spec = fam.spec(args.q, *(getattr(args, name) for name in fam.params))
    return construct_family(spec, ext=_ext_from_args(args.q, args))


def _print_json(obj):
    print(json.dumps(obj, indent=2))


# -- field ------------------------------------------------------------------


def cmd_field(args):
    modulus = tuple(args.modulus) if args.modulus is not None else None
    field = make_field(args.p, args.m, modulus=modulus)
    if args.format == "json":
        out = {
            "p": field.p,
            "m": field.m,
            "q": field.q,
            "modulus": list(field.modulus),
            "modulus_str": poly_str(field, field.modulus, var="t"),
            "theta": field.theta,
            "theta_str": field.element_str(field.theta),
        }
        if args.tables:
            els = field.elements()
            out["add"] = [[field.add(a, b) for b in els] for a in els]
            out["mul"] = [[field.mul(a, b) for b in els] for a in els]
        _print_json(out)
        return EXIT_OK
    print(f"GF({field.q}) = GF({field.p}^{field.m})")
    print(f"modulus   {poly_str(field, field.modulus, var='t')}")
    print(f"theta     {field.theta} = {field.element_str(field.theta)}")
    if args.tables:
        els = field.elements()
        width = len(str(field.q - 1))
        for name, op in (("add", field.add), ("mul", field.mul)):
            print(f"{name} table:")
            for a in els:
                print("  " + " ".join(f"{op(a, b):>{width}}" for b in els))
    return EXIT_OK


# -- construct ---------------------------------------------------------------


def _render_bundle(bundle):
    desc = bundle.desc
    block = bundle.block
    lines = [
        f"family {bundle.family}  q={bundle.q}  "
        f"code ({desc.n},{desc.k},{desc.delta})  nu={desc.nu}",
        f"block [{block.n},{block.k},{block.d}]"
        + ("  MDS" if block.is_mds else "  not MDS"),
        "expected "
        + " ".join(f"{prop}={value}" for prop, value in bundle.expected.items()),
        "H0:",
        bundle.parity.coefficient(0).render(),
        "H1:",
        bundle.parity.coefficient(1).render(),
    ]
    return "\n".join(lines)


def cmd_construct(args):
    bundle = _construct_from_args(args)
    if args.format == "json":
        _print_json(bundle.to_json())
    else:
        print(_render_bundle(bundle))
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _bundle_from_json(data):
    field = field_for_order(data["q"])
    coeffs = [FMatrix(field, rows) for rows in data["parity"]["coeffs"]]
    parity = PolyMatrix(field, coeffs)
    desc = ConvCodeDesc.from_parity(parity)
    expected = data.get("expected") or {}
    stated = (data.get("n"), data.get("k"), data.get("delta"))
    if None not in stated and stated != (desc.n, desc.k, desc.delta):
        raise ValueError(
            f"bundle states parameters {stated}, parity gives "
            f"{(desc.n, desc.k, desc.delta)}"
        )
    return desc, expected


def _budget_hit(report):
    return any(c.get("type") == "budget-exhausted" for c in report.certificates)


def _verdict_exit(report, expected):
    verdicts = report.verdicts()
    if any(expected.get(p) and v is Verdict.REFUTED for p, v in verdicts.items()):
        return EXIT_REFUTED
    inconclusive = Verdict.INCONCLUSIVE in verdicts.values()
    if _budget_hit(report) and inconclusive:
        return EXIT_BUDGET
    return EXIT_OK


def _render_report(report, expected):
    cds = " ".join(f"d{j}={d}" for j, d in sorted(report.column_distances.items()))
    lines = [
        f"code ({report.desc.n},{report.desc.k},{report.desc.delta})  "
        f"nu={report.desc.nu}  singleton={report.singleton_bound}  "
        f"M={report.M}  L={report.L}",
        f"column distances  {cds}" if cds else "column distances  none computed",
        f"dfree in [{report.dfree_lower},{report.dfree_upper}]",
        "verdicts "
        + " ".join(f"{prop}={v.value}" for prop, v in report.verdicts().items()),
    ]
    if expected:
        lines.append(
            "expected " + " ".join(f"{k}={v}" for k, v in sorted(expected.items()))
        )
    for cert in report.certificates:
        lines.append("certificate " + json.dumps(cert, sort_keys=True))
    return "\n".join(lines)


def cmd_verify(args):
    inline = ("family", "q") + _PARAMS + _EXT_OPTS
    if args.input is not None and _flags(args, inline, True):
        raise ValueError("give either --input or inline construction flags")
    if args.input is not None:
        text = sys.stdin.read() if args.input == "-" else open(args.input).read()
        desc, expected = _bundle_from_json(json.loads(text))
        report = classify(desc, jmax=args.jmax, budget=args.budget)
    else:
        bundle = _construct_from_args(args)
        expected = bundle.expected
        report = classify(
            bundle.desc,
            certs=bundle.split_distances,
            jmax=args.jmax,
            budget=args.budget,
        )
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(_render_report(report, expected))
    return _verdict_exit(report, expected)


# -- examples ----------------------------------------------------------------


def cmd_examples(args):
    numbers = args.id if args.id is not None else [fx.number for fx in FIXTURES]
    results = []
    for number in sorted(set(numbers)):
        fx = fixture_by_number(number)
        results.append(check_fixture(fx, jmax=args.jmax, budget=args.budget))
    if args.format == "json":
        _print_json(
            [
                {
                    "number": r["number"],
                    "ok": r["ok"],
                    "failures": r["failures"],
                    "report": r["report"].to_json(),
                }
                for r in results
            ]
        )
    else:
        for r in results:
            rep = r["report"]
            status = "ok" if r["ok"] else "MISMATCH"
            print(
                f"example {r['number']:2d}  {status:8s} "
                f"dfree=[{rep.dfree_lower},{rep.dfree_upper}]  "
                + " ".join(f"{p}={v.value}" for p, v in rep.verdicts().items())
            )
            for failure in r["failures"]:
                for line in failure.splitlines():
                    print("    " + line)
    if args.check and any(not r["ok"] for r in results):
        return EXIT_REFUTED
    if any(_budget_hit(r["report"]) for r in results):
        return EXIT_BUDGET
    return EXIT_OK


# -- sweep ---------------------------------------------------------------------


def _sweep_rows(args, families):
    rows = []
    for q in sorted(set(args.q)):
        for spec in admissible_parameters(q, families=families):
            start = time.perf_counter()
            bundle = construct_family(spec)
            report = classify(
                bundle.desc,
                certs=bundle.split_distances,
                jmax=args.jmax,
                budget=args.budget,
            )
            elapsed_ms = int((time.perf_counter() - start) * 1000)
            rows.append((spec, bundle, report, elapsed_ms))
    # Order by the emitted columns, which carry the convolutional parameters.
    rows.sort(key=lambda row: (row[1].q, row[1].family, row[1].n, row[1].k, row[1].delta))
    return rows


def cmd_sweep(args):
    families = tuple(f for f in args.families.split(",") if f)
    if not families:
        raise ValueError("no families given")
    for name in families:
        family(name)
    rows = _sweep_rows(args, families)

    exit_code = EXIT_OK
    for _, bundle, report, _ in rows:
        code = _verdict_exit(report, bundle.expected)
        exit_code = max(exit_code, code)

    jcols = list(range(args.jmax + 1))
    if args.format == "json":
        payload = [
            {
                "family": bundle.family,
                "q": bundle.q,
                "n": bundle.n,
                "k": bundle.k,
                "delta": bundle.delta,
                "column_distances": {
                    str(j): d for j, d in sorted(report.column_distances.items())
                },
                "dfree": [report.dfree_lower, report.dfree_upper],
                "verdicts": {p: v.value for p, v in report.verdicts().items()},
                "expected": dict(bundle.expected),
                "ms_elapsed": elapsed,
            }
            for _, bundle, report, elapsed in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["family", "q", "n", "k", "delta"]
            + [f"d{j}c" for j in jcols]
            + ["dfree_lo", "dfree_hi", "mds", "smds", "mdp", "ms_elapsed"]
        )
        for _, bundle, report, elapsed in rows:
            writer.writerow(
                [bundle.family, bundle.q, bundle.n, bundle.k, bundle.delta]
                + [report.column_distances.get(j, "") for j in jcols]
                + [
                    report.dfree_lower,
                    report.dfree_upper,
                    report.mds.value,
                    report.strongly_mds.value,
                    report.mdp.value,
                    elapsed,
                ]
            )
        text = buf.getvalue()
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


_COMMANDS = {
    "field": cmd_field,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "examples": cmd_examples,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        # PropertyViolation and the other cross-checks that found the
        # program disagreeing with itself.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
