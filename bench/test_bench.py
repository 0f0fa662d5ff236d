"""Tests for the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py

Kept out of the repository's test suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import copy
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hooks  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert timing.tail(samples) == (90.0, 90, 100)
    value, pct, n = timing.tail(list(range(82)))
    assert (pct, n) == (87, 82)
    assert sum(x > value for x in range(82)) == 10


def test_tail_needs_more_than_ten_samples():
    assert timing.tail(list(range(11))) == (0, 9, 11)
    with pytest.raises(ValueError):
        timing.tail(list(range(10)))


def test_harrell_davis_weights_neighbouring_ranks():
    assert timing.harrell_davis([2.5] * 20, 0.5) == pytest.approx(2.5)
    values = [float(x) for x in range(1, 12)]
    assert timing.harrell_davis(values, 0.5) == pytest.approx(6.0)
    assert timing.harrell_davis(values, 0.25) < timing.harrell_davis(values, 0.5)
    # A gap at the median moves the estimate part of the way, not all of it.
    gapped = values[:6] + [x + 10 for x in values[6:]]
    assert 7.0 < timing.harrell_davis(gapped, 0.5) < 15.0
    with pytest.raises(ValueError):
        timing.harrell_davis([1.0, 2.0], 0.9)


def test_speed_scale_uses_probes_near_the_interval():
    ref = timing.PROBE_REF_S
    samples = [(0.0, ref), (10.0, 2 * ref), (10.5, 4 * ref), (30.0, ref)]
    assert timing.speed_scale(samples, 10.2, 10.3, margin=1.0) == pytest.approx(1 / 3)
    assert timing.speed_scale(samples, 0.0, 0.1, margin=1.0) == pytest.approx(1.0)
    # No probe within the margin: the mean of all of them.
    assert timing.speed_scale(samples, 20.0, 21.0, margin=1.0) == pytest.approx(1 / 2)


def test_host_probe_samples_while_running():
    assert timing.probe(3) == 24
    with timing.HostProbe() as host:
        time.sleep(4 * timing.PROBE_EVERY_S)
    assert len(host.samples) >= 2
    assert all(cpu > 0 for _, cpu in host.samples)


def test_self_time_subtracts_nested_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("convcode.classify", 1.0, 9.0, 0, 0),
        ("linalg.rref", 2.0, 3.0, 1, 0),
        ("linalg.rref", 4.0, 6.0, 1, 0),
        ("blockcode.min_distance", 7.0, 8.5, 1, 0),
        ("blockcode.dependency", 7.5, 8.0, 4, 0),
    ]
    assert hooks.self_times(spans) == pytest.approx([2.0, 3.5, 1.0, 2.0, 1.0, 0.5])
    totals = hooks.layer_totals(spans, {"galois.ops": 7})
    assert totals["linalg.rref"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert totals["convcode.classify"]["self_s"] == pytest.approx(3.5)
    assert totals["galois.ops"]["calls"] == 7


def test_reentrant_span_counts_its_time_once():
    spans = [("blockcode.min_distance", 0.0, 4.0, -1, 0),
             ("blockcode.min_distance", 1.0, 2.0, 0, 0)]
    totals = hooks.layer_totals(spans, {})
    assert totals["blockcode.min_distance"]["s"] == pytest.approx(4.0)
    assert totals["blockcode.min_distance"]["self_s"] == pytest.approx(4.0)


def test_missing_boundary_fails_install(monkeypatch):
    from umconv import convcode

    monkeypatch.delattr(convcode, "rref")
    with pytest.raises(hooks.HookMissing):
        hooks.Tracer().install()
    # Nothing was patched before the check failed.
    from umconv import cli

    assert not hasattr(cli.main, "__wrapped__")


def test_uncrossed_boundary_fails():
    with pytest.raises(hooks.BoundaryNotCrossed):
        hooks.check_crossed("construct", {"galois.ops": {"calls": 5}})


def test_reference_check_catches_altered_verify_report():
    name, ref = next(iter(workloads.load_ref("verify").items()))
    stdout = json.dumps(ref["report"])
    assert workloads.verify_mismatch(ref, ref["exit"], stdout) is None
    altered = copy.deepcopy(ref["report"])
    altered["dfree"][0] -= 1
    assert workloads.verify_mismatch(ref, ref["exit"], json.dumps(altered)) == "report differs"
    assert workloads.verify_mismatch(ref, ref["exit"] + 1, stdout).startswith("exit")


def test_reference_check_catches_altered_sweep_row():
    rows = [r for r in workloads.load_ref("sweep")["rows"] if r["q"] <= 5]
    got = [dict(r, ms_elapsed=3) for r in rows]
    assert workloads.sweep_mismatches(rows, got) == []
    got[2]["verdicts"] = dict(got[2]["verdicts"], mds="refuted")
    assert workloads.sweep_mismatches(rows, got) == [workloads.row_key(rows[2])]
    assert workloads.sweep_mismatches(rows, got[1:]) == sorted(
        {workloads.row_key(rows[0]), workloads.row_key(rows[2])}
    )


def test_monomial_transform_keeps_a_q5_report(tmp_path):
    from umconv.constructions import admissible_parameters, construct_family

    spec = next(s for s in admissible_parameters(5) if s.family == "sec4" and s.delta == 2)
    bundle = construct_family(spec)
    coeffs = bundle.parity.to_json()["coeffs"]
    transformed = workloads.monomial_transform(coeffs, bundle.parity.field, random.Random(3))
    assert transformed != coeffs
    results = []
    for label, cs in (("plain", coeffs), ("moved", transformed)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(workloads.verify_payload(bundle, cs)))
        results.append(workloads.run_verify(path))
    assert results[0][0] == 0
    assert results[0] == results[1]
    ref = workloads.load_ref("verify")[workloads.spec_key(spec)]
    assert workloads.verify_mismatch(ref, *results[1]) is None


def test_pass_count_depends_on_seconds_only():
    assert [workloads.passes(w, 30) for w in workloads.WORKLOADS] == [1, 2, 4]
    assert workloads.passes("verify-perm", 1) == workloads.MIN_PASSES["verify-perm"]
