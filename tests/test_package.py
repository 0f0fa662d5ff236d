"""Package surface: the export list and the benchmark's tracing hooks."""

from pathlib import Path

import umconv
from umconv import blockcode, galois

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
