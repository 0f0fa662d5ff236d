"""Command line behavior: output shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from umconv.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REFUTED,
    main,
)
from umconv.constructions import sec3_code


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


def test_examples_unknown_id(capsys):
    code, _, err = run_cli(capsys, "examples", "--id", "12")
    assert code == EXIT_INVALID


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


def test_sweep_jobs_flag_does_not_change_output(capsys):
    base = ("sweep", "--q", "4", "--jmax", "1")
    _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    _, out4, _ = run_cli(capsys, *base, "--jobs", "4")
    strip = lambda text: [
        line.rsplit(",", 1)[0] for line in text.strip().splitlines()
    ]
    assert strip(out1) == strip(out4)


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


def test_sweep_family_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--q", "5", "--families", "")
    assert code == EXIT_INVALID
    assert "famil" in err
    code, _, err = run_cli(capsys, "sweep", "--q", "5", "--families", "sec9")
    assert code == EXIT_INVALID


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "umconv.cli", "field", "--p", "2", "--m", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "GF(8)" in proc.stdout
