"""Command line behavior: output shapes, exit codes, determinism."""

import contextlib
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import umconv
from umconv import cli
from umconv.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REFUTED,
    main,
)
from umconv.convcode import PropertyViolation
from umconv.constructions import sec3_code, sec4_code


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_text(capsys):
    code, out, _ = run_cli(capsys, "field", "--p", "2", "--m", "3")
    assert code == EXIT_OK
    assert "GF(8)" in out
    assert "1+t+t^3" in out
    assert "theta     2" in out


def test_field_json_tables(capsys):
    code, out, _ = run_cli(
        capsys, "field", "--p", "2", "--m", "2", "--tables", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["q"] == 4
    assert data["modulus"] == [1, 1, 1]
    assert data["add"][2][3] == 1
    assert data["mul"][2][2] == 3


def test_field_over_a_large_prime_skips_the_prime_field(capsys):
    # The theta search starts past GF(p), whose elements cannot generate
    # GF(p^2); trying them first took time linear in p.
    code, out, _ = run_cli(capsys, "field", "--p", "1000003", "--m", "2")
    assert code == EXIT_OK
    assert "modulus   1+t^2" in out
    assert "theta     1000005 = 2+t" in out


def test_field_rejects_composite_characteristic(capsys):
    code, _, err = run_cli(capsys, "field", "--p", "4", "--m", "1")
    assert code == EXIT_INVALID
    assert "not prime" in err


def test_field_trivial_f2(capsys):
    code, out, _ = run_cli(capsys, "field", "--p", "2", "--m", "1", "--tables")
    assert code == EXIT_OK
    assert "GF(2)" in out


def test_construct_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct",
        "--family",
        "sec3",
        "--q",
        "8",
        "--n",
        "7",
        "--k",
        "2",
        "--delta",
        "2",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == sec3_code(8, 7, 2, 2).to_json()


def test_construct_invalid_names_the_violation(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--family", "sec4", "--q", "8", "--k", "7",
        "--delta", "1",
    )
    assert code == EXIT_INVALID
    assert "sec4" in err
    code, _, err = run_cli(capsys, "construct", "--family", "sec3", "--q", "8")
    assert code == EXIT_INVALID
    assert "--n" in err


@pytest.mark.parametrize(
    "flags, unused",
    [
        (["--family", "sec4", "--q", "8", "--n", "5", "--k", "2", "--delta", "2"],
         "--n"),
        (["--family", "sec3", "--q", "8", "--n", "7", "--k", "2", "--delta", "2",
          "--tau", "9", "--ext-modulus", "1,2"], "--tau, --ext-modulus"),
        (["--family", "sec5c2", "--q", "8", "--tau", "3", "--k", "99",
          "--delta", "99"], "--k, --delta"),
    ],
)
def test_construct_rejects_flags_the_family_does_not_take(capsys, flags, unused):
    code, out, err = run_cli(capsys, "construct", *flags)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {flags[1]} does not take {unused}\n"


def test_verify_round_trip(tmp_path, capsys):
    flags = ["--family", "sec4", "--q", "8", "--k", "1", "--delta", "2"]
    code, bundle_json, _ = run_cli(
        capsys, "construct", *flags, "--format", "json"
    )
    assert code == EXIT_OK
    path = tmp_path / "bundle.json"
    path.write_text(bundle_json)
    code_file, out_file, _ = run_cli(
        capsys, "verify", "--input", str(path), "--format", "json"
    )
    code_inline, out_inline, _ = run_cli(
        capsys, "verify", *flags, "--format", "json"
    )
    assert code_file == code_inline == EXIT_OK
    assert out_file == out_inline
    report = json.loads(out_file)
    assert report["column_distances"]["1"] == 8
    assert report["verdicts"]["smds"] == "confirmed"
    assert report["dfree"] == [8, 8]


def test_verify_tampered_expectation_fails(tmp_path, capsys):
    code, bundle_json, _ = run_cli(
        capsys,
        "construct",
        "--family",
        "sec3",
        "--q",
        "8",
        "--n",
        "7",
        "--k",
        "1",
        "--delta",
        "3",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(bundle_json)
    assert data["expected"]["smds"] is False
    data["expected"]["smds"] = True  # claim something the code does not have
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code, _, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_REFUTED


def test_verify_budget_exhaustion(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "sec5p2",
        "--q",
        "8",
        "--k",
        "1",
        "--delta",
        "1",
        "--budget",
        "100",
        "--format",
        "json",
    )
    assert code == EXIT_BUDGET
    report = json.loads(out)
    assert any(
        c.get("type") == "budget-exhausted" for c in report["certificates"]
    )


def test_verify_conflicting_inputs(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text("{}")
    code, _, err = run_cli(
        capsys, "verify", "--input", str(path), "--family", "sec3"
    )
    assert code == EXIT_INVALID
    code, _, err = run_cli(capsys, "verify", "--input", str(path), "--k", "2")
    assert code == EXIT_INVALID
    assert "either --input or inline" in err


def test_verify_corrupt_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INVALID


def _sec3_bundle_data():
    return sec3_code(8, 7, 2, 2).to_json()


def test_verify_rejects_memory_two_parity(tmp_path, capsys):
    # The search reads only coefficients 0 and 1, so a degree-2 term would
    # be ignored and the code certified with a false free distance.
    data = _sec3_bundle_data()
    coeffs = data["parity"]["coeffs"]
    coeffs.append(coeffs[1])
    data["delta"] = 4
    path = tmp_path / "memory2.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert "memory 2" in err


def test_verify_rejects_rank_deficient_h0(tmp_path, capsys):
    data = _sec3_bundle_data()
    h0 = data["parity"]["coeffs"][0]
    h0[1] = list(h0[0])
    path = tmp_path / "rank_deficient.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "full row rank" in err


def test_verify_rejects_dependent_h1_rows(tmp_path, capsys):
    # Equal H1 rows make the parity not row reduced: the row degrees sum to
    # 2, but the code's degree is 1, so its Singleton bound would be wrong.
    data = sec3_code(8, 7, 3, 2).to_json()
    for h1 in (data["H1"], data["parity"]["coeffs"][1]):
        h1[1] = list(h1[0])
    path = tmp_path / "dependent_h1.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "degree-1" in err


def test_verify_rejects_parity_not_row_reduced(tmp_path, capsys):
    # H0 and H1's one nonzero row each have full row rank, but H0's first
    # row equals that H1 row, so the leading-row-coefficient matrix is
    # singular: the row-degree sum 1 is not the code's degree.
    data = {
        "q": 5,
        "parity": {"coeffs": [[[1, 2, 3, 4], [0, 1, 1, 2]],
                              [[0, 0, 0, 0], [1, 2, 3, 4]]]},
    }
    path = tmp_path / "not_row_reduced.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and "not row reduced" in err


def test_verify_field_above_256_elements(capsys):
    # GF(257) codes do not fit uint8 lookup tables; the column search and the
    # coset-leader table apply the field's own operations elementwise.
    code, out, _ = run_cli(
        capsys, "verify", "--family", "sec3", "--q", "257", "--n", "5", "--k", "3",
        "--delta", "1",
    )
    assert code == EXIT_OK
    assert "column distances  d0=2 d1=3 d2=3 d3=3 d4=3" in out
    assert "verdicts mds=confirmed smds=confirmed mdp=confirmed" in out


def test_verify_inconclusive_claim_exits_3(capsys):
    # --jmax 0 stops before window M = 1, so the claimed mds and smds stay
    # inconclusive although no budget ran out.
    code, out, _ = run_cli(
        capsys, "verify", "--family", "sec4", "--q", "8", "--k", "2", "--delta", "2",
        "--jmax", "0",
    )
    assert code == EXIT_BUDGET
    assert "mds=inconclusive smds=inconclusive mdp=confirmed" in out
    assert "budget-exhausted" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "sec4", "--q", "8", "--k", "2", "--delta", "2"),
        ("examples", "--id", "1"),
        ("sweep", "--q", "3"),
    ],
    ids=["verify", "examples", "sweep"],
)
@pytest.mark.parametrize("flag", ["--jmax", "--budget"])
def test_negative_jmax_and_budget_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, "-1"])
    captured = capsys.readouterr()
    assert info.value.code == EXIT_INVALID
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "must not be negative" in errors[0]


def _run_verify_json(data, *flags):
    """(exit code, stdout, stderr) of `verify --input -` on a JSON value."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--input", "-", *flags])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _small_bundle_json():
    return json.dumps(sec4_code(4, 2, 1).to_json())


def _small_bundle_data():
    return json.loads(_small_bundle_json())


def _set_entry(value):
    def mutate(data):
        data["parity"]["coeffs"][0][0][1] = value
        return data

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: [data],
        lambda data: None,
        lambda data: {**data, "q": "4"},
        lambda data: {**data, "q": None},
        lambda data: {**data, "parity": [data["parity"]]},
        _set_entry(1.5),
        _set_entry(True),
        lambda data: {**data, "expected": ["mds"]},
    ],
    ids=["list", "null", "q-string", "q-null", "parity-list", "float", "bool",
         "expected-list"],
)
def test_verify_rejects_malformed_bundle_types(mutate):
    code, out, err = _run_verify_json(mutate(_small_bundle_data()))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: bundle") and err.count("\n") == 1


def test_verify_rejects_unknown_expected_property():
    # A claim under a key verify does not check would be dropped silently.
    data = {"q": 5, "parity": {"coeffs": [[[1, 1, 1]], [[1, 1, 0]]]},
            "expected": {"MDS": True}}
    code, out, err = _run_verify_json(data)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: bundle expected") and "'MDS'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("n", 7), ("k", 2), ("delta", 0)])
def test_verify_checks_each_stated_parameter(key, value):
    # The parity gives (2,1,1); each stated parameter is compared on its own.
    data = {"q": 5, "parity": {"coeffs": [[[1, 2]], [[3, 4]]]}, key: value}
    code, out, err = _run_verify_json(data)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: bundle states {key}={value}, parity gives (2, 1, 1)\n"


def test_verify_bundle_over_a_61_bit_prime_field():
    # Neither primality nor the default modulus may walk the field.  The
    # second q is a safe prime, 2p + 1 with p prime: factoring q - 1 for
    # theta stops at the prime cofactor p instead of dividing up to sqrt(p).
    for q in (2**61 - 1, 2305843009213691579):
        data = {"q": q, "parity": {"coeffs": [[[1, 2]], [[3, 4]]]}}
        code, _, err = _run_verify_json(data)
        assert code in (EXIT_INVALID, EXIT_BUDGET)
        assert "Traceback" not in err


def test_verify_bundle_whose_group_order_does_not_factor():
    # q - 1 = 2 * 1048583 * 1048681: the cofactor past 2 is composite with
    # no prime factor below 2^20, so the field is rejected in one line.
    data = {"q": 2199258138047, "parity": {"coeffs": [[[1, 2]], [[3, 4]]]}}
    code, out, err = _run_verify_json(data)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: cannot factor 1099629069023: no prime factor below 2^20\n"


def test_verify_bundle_over_gf_3_40():
    # Ben-Or's test finds the degree-40 modulus in polynomial time, and
    # 3^40 - 1 factors, so the field is built and the search runs out of
    # budget instead of the modulus search running on.
    data = {"q": 3**40, "parity": {"coeffs": [[[1, 2]], [[3, 4]]]}}
    code, out, err = _run_verify_json(data)
    assert code == EXIT_BUDGET
    assert "mds=confirmed" in out
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "sec5p2", "--q", str(2**61 - 1), "--k", "2",
         "--delta", "1"),
        ("field", "--p", "2", "--m", "200"),
    ],
    ids=["sec5p2 over GF(2^61 - 1)", "GF(2^200)"],
)
def test_group_order_too_large_to_factor_exits_2(capsys, argv):
    # (2^61 - 1)^2 - 1 and 2^200 - 1 are too large for the exact primality
    # test, and the group order is factored before any modulus search.
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large to test for primality exactly" in err


def _locations(node, out):
    """Every (container, key) slot of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _locations(child, out)
    return out


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from([10**20, -(10**20), 0.5, 2.0, "1", "", [], {}]),
    st.lists(st.integers(0, 5), max_size=4),
    st.dictionaries(
        st.sampled_from(["q", "coeffs", "mds"]), st.integers(0, 4), max_size=2
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_verify_bundle_mutation_fuzz(data):
    # Malformed bundles are classified or rejected, never a traceback: drop
    # keys or list items (ragged rows), or put junk of any type anywhere.
    bundle = _small_bundle_data()
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _locations(bundle, [])
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_JUNK)
    code, _, err = _run_verify_json(bundle, "--jmax", "2", "--budget", "20000")
    assert code in (EXIT_OK, EXIT_REFUTED, EXIT_INVALID, EXIT_BUDGET, EXIT_INTERNAL)
    assert "Traceback" not in err


def test_verify_internal_failure_exits_4(monkeypatch, capsys):
    def disagree(*args, **kwargs):
        raise PropertyViolation("column distances decrease at window 2")

    monkeypatch.setattr(cli, "classify", disagree)
    code, out, err = run_cli(
        capsys, "verify", "--family", "sec4", "--q", "5", "--k", "1", "--delta", "1"
    )
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: column distances decrease at window 2\n"


def test_examples_single(capsys):
    code, out, _ = run_cli(capsys, "examples", "--id", "1", "--check")
    assert code == EXIT_OK
    assert "example  1" in out
    assert "ok" in out


def test_examples_json(capsys):
    code, out, _ = run_cli(
        capsys, "examples", "--id", "1,3", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert [entry["number"] for entry in data] == [1, 3]
    assert all(entry["ok"] for entry in data)
    assert data[0]["report"]["dfree"] == [6, 6]


# Full stdout and exit code of commands whose output other tools parse.
_VERIFY_SEC4 = ("verify", "--family", "sec4", "--q", "8", "--k", "2", "--delta", "2")
_BLOCK_SPLIT = (
    'certificate {"block_d": 7, "d0": 5, "dm": 1, "lower": 6, '
    '"type": "block-split", "upper": 7}\n'
)


def test_verify_text_pinned(capsys):
    code, out, _ = run_cli(capsys, *_VERIFY_SEC4, "--budget", "20000")
    assert code == EXIT_OK
    assert out == (
        "code (8,4,2)  nu=1  singleton=7  M=1  L=0\n"
        "column distances  d0=5 d1=7 d2=7 d3=7 d4=7\n"
        "dfree in [7,7]\n"
        "verdicts mds=confirmed smds=confirmed mdp=confirmed\n"
        "expected mdp=True mds=True smds=True\n"
        + _BLOCK_SPLIT
        + 'certificate {"from_j": 2, "type": "saturation"}\n'
        'certificate {"ok": true, "type": "cascade"}\n'
        'certificate {"j": 1, "type": "column-distance", "value": 7}\n'
    )


def test_verify_text_budget_exhausted_pinned(capsys):
    code, out, _ = run_cli(capsys, *_VERIFY_SEC4, "--budget", "3000")
    assert code == EXIT_BUDGET
    assert out == (
        "code (8,4,2)  nu=1  singleton=7  M=1  L=0\n"
        "column distances  d0=5\n"
        "dfree in [6,7]\n"
        "verdicts mds=inconclusive smds=inconclusive mdp=confirmed\n"
        "expected mdp=True mds=True smds=True\n"
        + _BLOCK_SPLIT
        + 'certificate {"ok": true, "type": "cascade"}\n'
        'certificate {"j": 1, "lower_bound": 7, "type": "budget-exhausted"}\n'
    )


def _saturated_report(n, k, d0, dm, bound):
    return {
        "n": n, "k": k, "delta": 2, "nu": 1, "singleton_bound": bound,
        "M": 1, "L": 0,
        "column_distances": {"0": d0, **{str(j): bound for j in range(1, 5)}},
        "dfree": [bound, bound],
        "verdicts": {"mds": "confirmed", "smds": "confirmed", "mdp": "confirmed"},
        "certificates": [
            {"type": "block-split", "block_d": bound, "d0": d0, "dm": dm,
             "lower": bound, "upper": bound},
            {"type": "saturation", "from_j": 2},
            {"type": "cascade", "ok": True},
        ],
    }


def test_examples_pinned(capsys):
    code, out, _ = run_cli(capsys, "examples", "--id", "1,10")
    assert code == EXIT_OK
    assert out == (
        "example  1  ok       dfree=[6,6]  mds=confirmed smds=confirmed mdp=confirmed\n"
        "example 10  ok       dfree=[9,9]  mds=confirmed smds=confirmed mdp=confirmed\n"
    )
    code, out, _ = run_cli(capsys, "examples", "--id", "1,10", "--format", "json")
    assert code == EXIT_OK
    expected = [
        {"number": 1, "ok": True, "failures": [], "report": _saturated_report(7, 4, 4, 3, 6)},
        {"number": 10, "ok": True, "failures": [], "report": _saturated_report(9, 3, 7, 3, 9)},
    ]
    assert out == json.dumps(expected, indent=2) + "\n"


def test_field_text_tables_pinned(capsys):
    code, out, _ = run_cli(capsys, "field", "--p", "3", "--m", "2", "--tables")
    assert code == EXIT_OK
    assert out == (
        "GF(9) = GF(3^2)\n"
        "modulus   1+t^2\n"
        "theta     4 = 1+t\n"
        "add table:\n"
        "  0 1 2 3 4 5 6 7 8\n"
        "  1 2 0 4 5 3 7 8 6\n"
        "  2 0 1 5 3 4 8 6 7\n"
        "  3 4 5 6 7 8 0 1 2\n"
        "  4 5 3 7 8 6 1 2 0\n"
        "  5 3 4 8 6 7 2 0 1\n"
        "  6 7 8 0 1 2 3 4 5\n"
        "  7 8 6 1 2 0 4 5 3\n"
        "  8 6 7 2 0 1 5 3 4\n"
        "mul table:\n"
        "  0 0 0 0 0 0 0 0 0\n"
        "  0 1 2 3 4 5 6 7 8\n"
        "  0 2 1 6 8 7 3 5 4\n"
        "  0 3 6 2 5 8 1 4 7\n"
        "  0 4 8 5 6 1 7 2 3\n"
        "  0 5 7 8 1 3 4 6 2\n"
        "  0 6 3 1 7 4 2 8 5\n"
        "  0 7 5 4 2 6 8 3 1\n"
        "  0 8 4 7 3 2 5 1 6\n"
    )


def test_examples_unknown_id(capsys):
    code, _, err = run_cli(capsys, "examples", "--id", "12")
    assert code == EXIT_INVALID
    assert err == "error: no fixture numbered 12\n"


@pytest.mark.parametrize("ids", ("", ","))
def test_examples_empty_id_list(capsys, ids):
    code, out, err = run_cli(capsys, "examples", f"--id={ids}")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: no example numbers given\n"


def test_sweep_csv_shape_and_determinism(capsys):
    args = ("sweep", "--q", "4,5", "--jmax", "2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    lines1 = out1.strip().splitlines()
    assert (
        lines1[0]
        == "family,q,n,k,delta,d0c,d1c,d2c,dfree_lo,dfree_hi,mds,smds,mdp,ms_elapsed"
    )
    strip = lambda text: [
        line.rsplit(",", 1)[0] for line in text.strip().splitlines()
    ]
    assert strip(out1) == strip(out2)
    # Sorted rows: q=4 block precedes q=5; families alphabetical within q.
    data_rows = [line.split(",") for line in lines1[1:]]
    keys = [(int(r[1]), r[0], int(r[2]), int(r[3]), int(r[4])) for r in data_rows]
    assert keys == sorted(keys)


def test_sweep_csv_rows_project_json_rows(capsys):
    args = ("sweep", "--q", "3,4", "--jmax", "2")
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    header, *lines = out.splitlines()
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(lines) == len(rows) > 1
    for line, row in zip(lines, rows):
        cds = row["column_distances"]
        projected = (
            [row["family"], row["q"], row["n"], row["k"], row["delta"]]
            + [cds.get(str(j), "") for j in range(3)]
            + row["dfree"]
            + [row["verdicts"][p] for p in ("mds", "smds", "mdp")]
        )
        assert line.rsplit(",", 1)[0] == ",".join(map(str, projected))


def test_sweep_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "3", "--output", str(path)
    )
    assert code == EXIT_OK
    assert out == ""
    content = path.read_text()
    assert content.startswith("family,q,n,k,delta")
    assert "sec4,3,3,2,1" in content


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "3", "--format", "json", "--jmax", "2"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "sec4"
    assert (row["n"], row["k"], row["delta"]) == (3, 2, 1)
    assert row["verdicts"]["mds"] == "confirmed"


def test_sweep_refutation_outranks_open_claim(capsys, monkeypatch):
    # At window 1 over GF(5), sec4 (5,3,2) leaves its MDS claim open, so the
    # sweep exits 3.  Window 1 refutes strong MDS for sec5p2 (6,4,2); once
    # that row claims it, the sweep exits 1 although the open claim remains.
    args = ("sweep", "--q", "5", "--jmax", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_BUDGET
    real = cli.construct_family

    def claim_smds(spec, **kwargs):
        bundle = real(spec, **kwargs)
        if bundle.family != "sec5p2":
            return bundle
        return dataclasses.replace(bundle, expected={**bundle.expected, "smds": True})

    monkeypatch.setattr(cli, "construct_family", claim_smds)
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_REFUTED
    verdicts = {(r["family"], r["n"], r["k"], r["delta"]): r["verdicts"] for r in json.loads(out)}
    assert verdicts[("sec4", 5, 3, 2)]["mds"] == "inconclusive"
    assert verdicts[("sec5p2", 6, 4, 2)]["smds"] == "refuted"


def test_sweep_family_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--q", "5", "--families", "")
    assert code == EXIT_INVALID
    assert "famil" in err
    code, _, err = run_cli(capsys, "sweep", "--q", "5", "--families", "sec9")
    assert code == EXIT_INVALID


def test_sweep_drops_repeated_families(capsys):
    # A repeated family is classified once, as a repeated field size is.
    args = ("sweep", "--format", "json", "--jmax", "1")
    tables = []
    for q, families in (("5", "sec3"), ("5", "sec3,sec3"), ("5,5", "sec3,sec3")):
        code, out, _ = run_cli(capsys, *args, "--q", q, "--families", families)
        tables.append((code, [{**row, "ms_elapsed": 0} for row in json.loads(out)]))
    assert len(tables[0][1]) == 3
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("q", ("0", "1", "-3", "6", "3,6"))
def test_sweep_rejects_sizes_that_are_not_prime_powers(capsys, q):
    code, out, err = run_cli(capsys, "sweep", f"--q={q}")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {q.split(',')[-1]} is not a prime power\n"


@pytest.mark.parametrize("q", ("", ","))
def test_sweep_empty_size_list(capsys, q):
    code, out, err = run_cli(capsys, "sweep", f"--q={q}")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: no field sizes given\n"


def test_sweep_field_without_admissible_codes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--q", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == []


@pytest.mark.parametrize("command", ("construct", "verify"))
def test_ext_theta_zero_rejected_above_log_tables(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--family", "sec5c1", "--q", "67", "--k", "1",
        "--delta", "1", "--ext-theta", "0",
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_console_entry_point():
    # The child imports umconv from where this process did, whether that
    # came from PYTHONPATH or from pytest's own pythonpath setting.
    src = os.path.dirname(os.path.dirname(umconv.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "umconv.cli", "field", "--p", "2", "--m", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "GF(8)" in proc.stdout
