"""Package surface: the export list and the benchmark's tracing hooks."""

import json
from pathlib import Path

import pytest

import umconv
from umconv import blockcode, cli, constructions, galois
from umconv.constructions import FamilySpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_all_names_resolve():
    missing = [name for name in umconv.__all__ if not hasattr(umconv, name)]
    assert missing == []
    namespace = {}
    exec("from umconv import *", namespace)
    assert set(umconv.__all__) <= set(namespace)


def test_bench_tracer_installs(monkeypatch):
    # The traced benchmark wraps names the layers import and Field/ExtField
    # methods by class __dict__; a refactor that drops one breaks install.
    monkeypatch.syspath_prepend(str(BENCH))
    import hooks

    min_distance = blockcode.min_distance
    field_mul = galois.Field.__dict__["mul"]
    tracer = hooks.Tracer()
    try:
        tracer.install()
        assert blockcode.min_distance is not min_distance
    finally:
        tracer.uninstall()
    assert blockcode.min_distance is min_distance
    assert galois.Field.__dict__["mul"] is field_mul
    # ExtField binds Field's arithmetic by name, so each class holds every
    # traced op in its own __dict__ and the hooks count the two apart.
    assert galois.ExtField.__dict__["mul"] is galois.Field.__dict__["mul"]
    assert galois.ExtField.__dict__["add"] is galois.Field.__dict__["add"]
    assert set(hooks._FIELD_OPS) <= set(galois.ExtField.__dict__)


def test_bench_tracer_sees_construct_boundaries(monkeypatch):
    # A traced construct run fails when a boundary it requires records no
    # calls, e.g. after a change caches work past a wrapped name.
    monkeypatch.syspath_prepend(str(BENCH))
    import hooks

    tracer = hooks.Tracer()
    tracer.install()
    try:
        for spec in (
            FamilySpec(family="sec4", q=5, n=5, k=2, delta=1),
            FamilySpec(family="sec5c1", q=5, n=6, k=1, delta=1, tau=2),
        ):
            tracer.set_code(spec.family)
            constructions.construct_family(spec)
    finally:
        tracer.uninstall()
    hooks.check_crossed("construct", hooks.layer_totals(tracer.spans(), tracer.counts))


@pytest.mark.parametrize("workload", ["sweep", "verify-perm"])
def test_bench_tracer_sees_cli_boundaries(monkeypatch, tmp_path, capsys, workload):
    # The traced sweep and verify-perm runs go through cli.main; each must
    # still cross every boundary it requires, e.g. the column search's rref.
    monkeypatch.syspath_prepend(str(BENCH))
    import hooks

    if workload == "sweep":
        out = tmp_path / "rows.json"
        argv = ["sweep", "--q", "3", "--format", "json", "--output", str(out)]
    else:
        spec = FamilySpec(family="sec4", q=5, n=5, k=2, delta=1)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(constructions.construct_family(spec).to_json()))
        # A bench worker starts with an empty min_distance memo; building the
        # bundle here must not let the traced verify skip the block layer.
        blockcode._MIN_DISTANCE_MEMO.clear()
        argv = ["verify", "--input", str(path), "--format", "json"]
    tracer = hooks.Tracer()
    tracer.install()
    try:
        tracer.set_code(workload)
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    hooks.check_crossed(workload, hooks.layer_totals(tracer.spans(), tracer.counts))
