"""Command line front end.

Subcommands: field (inspect a finite field), construct (build one code),
verify (classify a bundle), examples (regenerate the pinned examples),
sweep (classify every admissible tuple of the guaranteed ranges).  Every
output and exit code is rendered from one document per report, its
``to_json()``; `field` prints the dict it dumps, a sweep's CSV its JSON rows.

Exit codes: 0 success, 1 a claimed property was refuted or a pinned
example mismatched, 2 invalid parameters, 3 a claimed property left
inconclusive (by the budget or --jmax) or the budget exhausted with
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
    DEFAULT_BUDGET,
    DEFAULT_JMAX,
    BudgetExceeded,
    ConvCodeDesc,
    PolyMatrix,
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


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_common(parser):
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_classify_opts(parser):
    parser.add_argument(
        "--jmax",
        type=_nonnegative_int,
        default=DEFAULT_JMAX,
        help="last column-distance window",
    )
    parser.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=DEFAULT_BUDGET,
        help="total search-step budget",
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
    if args.format == "json":
        _print_json(out)
        return EXIT_OK
    print(f"GF({out['q']}) = GF({out['p']}^{out['m']})")
    print(f"modulus   {out['modulus_str']}")
    print(f"theta     {out['theta']} = {out['theta_str']}")
    if args.tables:
        width = len(str(out["q"] - 1))
        for name in ("add", "mul"):
            print(f"{name} table:")
            for row in out[name]:
                print("  " + " ".join(f"{x:>{width}}" for x in row))
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


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_bundle(data):
    """Raise ValueError unless the bundle JSON has the types verify reads."""
    if not isinstance(data, dict):
        raise ValueError("bundle must be a JSON object")
    if not _is_int(data.get("q")):
        raise ValueError("bundle needs an integer field size q")
    parity = data.get("parity")
    coeffs = parity.get("coeffs") if isinstance(parity, dict) else None
    if not isinstance(coeffs, list) or not all(
        isinstance(m, list)
        and all(isinstance(row, list) and all(map(_is_int, row)) for row in m)
        for m in coeffs
    ):
        raise ValueError("bundle parity.coeffs must be a list of integer matrices")
    for key in ("n", "k", "delta"):
        if data.get(key) is not None and not _is_int(data[key]):
            raise ValueError(f"bundle {key} must be an integer")
    expected = data.get("expected")
    if expected is not None and not (
        isinstance(expected, dict)
        and all(isinstance(v, bool) for v in expected.values())
    ):
        raise ValueError("bundle expected must map each property to true or false")
    unknown = sorted(set(expected or ()) - {"mds", "smds", "mdp"})
    if unknown:
        raise ValueError(
            f"bundle expected names unknown property {unknown[0]!r}; "
            "known: mds, smds, mdp"
        )


def _bundle_from_json(data):
    _check_bundle(data)
    field = field_for_order(data["q"])
    coeffs = [FMatrix(field, rows) for rows in data["parity"]["coeffs"]]
    parity = PolyMatrix(field, coeffs)
    desc = ConvCodeDesc.from_parity(parity)
    expected = data.get("expected") or {}
    for key in ("n", "k", "delta"):
        if data.get(key) is not None and data[key] != getattr(desc, key):
            raise ValueError(
                f"bundle states {key}={data[key]}, parity gives "
                f"{(desc.n, desc.k, desc.delta)}"
            )
    return desc, expected


def _budget_hit(doc):
    return any(c["type"] == "budget-exhausted" for c in doc["certificates"])


def _verdict_exit(doc, expected):
    verdicts = doc["verdicts"]
    claimed = [v for p, v in verdicts.items() if expected.get(p)]
    if "refuted" in claimed:
        return EXIT_REFUTED
    # A claim left open exits 3 whether the budget or --jmax stopped the search.
    if "inconclusive" in claimed:
        return EXIT_BUDGET
    if _budget_hit(doc) and "inconclusive" in verdicts.values():
        return EXIT_BUDGET
    return EXIT_OK


def _render_report(doc, expected):
    cds = " ".join(f"d{j}={d}" for j, d in doc["column_distances"].items())
    lines = [
        f"code ({doc['n']},{doc['k']},{doc['delta']})  nu={doc['nu']}  "
        f"singleton={doc['singleton_bound']}  M={doc['M']}  L={doc['L']}",
        f"column distances  {cds}",
        "dfree in [{},{}]".format(*doc["dfree"]),
        "verdicts " + " ".join(f"{p}={v}" for p, v in doc["verdicts"].items()),
    ]
    if expected:
        lines.append(
            "expected " + " ".join(f"{k}={v}" for k, v in sorted(expected.items()))
        )
    for cert in doc["certificates"]:
        lines.append("certificate " + json.dumps(cert, sort_keys=True))
    return "\n".join(lines)


def cmd_verify(args):
    inline = ("family", "q") + _PARAMS + _EXT_OPTS
    if args.input is not None and _flags(args, inline, True):
        raise ValueError("give either --input or inline construction flags")
    if args.input is not None:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as handle:
                text = handle.read()
        desc, expected = _bundle_from_json(json.loads(text))
        certs = None
    else:
        bundle = _construct_from_args(args)
        desc, expected, certs = bundle.desc, bundle.expected, bundle.split_distances
    doc = classify(desc, certs=certs, jmax=args.jmax, budget=args.budget).to_json()
    if args.format == "json":
        _print_json(doc)
    else:
        print(_render_report(doc, expected))
    return _verdict_exit(doc, expected)


# -- examples ----------------------------------------------------------------


def cmd_examples(args):
    numbers = args.id if args.id is not None else [fx.number for fx in FIXTURES]
    if not numbers:
        raise ValueError("no example numbers given")
    entries = []
    for number in sorted(set(numbers)):
        r = check_fixture(fixture_by_number(number), jmax=args.jmax, budget=args.budget)
        entries.append(
            {key: r[key] for key in ("number", "ok", "failures")}
            | {"report": r["report"].to_json()}
        )
    if args.format == "json":
        _print_json(entries)
    else:
        for e in entries:
            status = "ok" if e["ok"] else "MISMATCH"
            lo, hi = e["report"]["dfree"]
            print(
                f"example {e['number']:2d}  {status:8s} dfree=[{lo},{hi}]  "
                + " ".join(f"{p}={v}" for p, v in e["report"]["verdicts"].items())
            )
            for failure in e["failures"]:
                for line in failure.splitlines():
                    print("    " + line)
    if args.check and any(not e["ok"] for e in entries):
        return EXIT_REFUTED
    if any(_budget_hit(e["report"]) for e in entries):
        return EXIT_BUDGET
    return EXIT_OK


# -- sweep ---------------------------------------------------------------------

# The report keys a sweep row copies, between the bundle's q and expected.
_ROW_KEYS = ("n", "k", "delta", "column_distances", "dfree", "verdicts")


def _sweep_rows(args, families):
    """One JSON row per admissible code, sorted, and the row exit codes."""
    rows, codes = [], set()
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
            doc = report.to_json()
            codes.add(_verdict_exit(doc, bundle.expected))
            rows.append(
                {"family": bundle.family, "q": bundle.q}
                | {key: doc[key] for key in _ROW_KEYS}
                | {"expected": dict(bundle.expected), "ms_elapsed": elapsed_ms}
            )
    # Order by the emitted columns, which carry the convolutional parameters.
    rows.sort(key=lambda r: (r["q"], r["family"], r["n"], r["k"], r["delta"]))
    return rows, codes


def cmd_sweep(args):
    # A repeated family is dropped, as a repeated --q is, keeping the order.
    families = tuple(dict.fromkeys(f for f in args.families.split(",") if f))
    if not families:
        raise ValueError("no families given")
    for name in families:
        family(name)
    if not args.q:
        raise ValueError("no field sizes given")
    for q in args.q:
        field_for_order(q)  # rejects a size that is not a prime power
    rows, codes = _sweep_rows(args, families)
    # A refuted claim in any row outranks a claim left open in another.
    exit_code = next((c for c in (EXIT_REFUTED, EXIT_BUDGET) if c in codes), EXIT_OK)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:  # the JSON rows projected onto the CSV columns
        jcols = [str(j) for j in range(args.jmax + 1)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["family", "q", "n", "k", "delta"]
            + [f"d{j}c" for j in jcols]
            + ["dfree_lo", "dfree_hi", "mds", "smds", "mdp", "ms_elapsed"]
        )
        for row in rows:
            writer.writerow(
                [row[key] for key in ("family", "q", "n", "k", "delta")]
                + [row["column_distances"].get(j, "") for j in jcols]
                + row["dfree"]
                + list(row["verdicts"].values())
                + [row["ms_elapsed"]]
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
