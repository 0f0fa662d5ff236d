"""Shared expensive computations, built once per session.

The sweep covers every admissible tuple of every family at the supported
field sizes; several test modules and the acceptance suite read from it.
"""

from __future__ import annotations

import time

import pytest

from umconv import blockcode
from umconv.constructions import admissible_parameters, construct_family
from umconv.convcode import classify
from umconv.fixtures import FIXTURES, check_fixture

SWEEP_Q = (3, 4, 5, 7, 8, 9)


@pytest.fixture(autouse=True)
def fresh_min_distance_memo():
    """Each test starts with no proven block distances, as a new process
    does, so no test depends on which tests ran before it."""
    blockcode._MIN_DISTANCE_MEMO.clear()


@pytest.fixture
def distance_route_calls(monkeypatch):
    """Names of the min_distance routes called during the test, in order."""
    calls = []
    for name in ("_dependency_min_weight", "_enumeration_min_weight"):
        def counted(*args, _real=getattr(blockcode, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(blockcode, name, counted)
    return calls


@pytest.fixture(scope="session")
def fixture_results():
    """check_fixture output for all pinned examples, keyed by number."""
    return {fx.number: check_fixture(fx) for fx in FIXTURES}


@pytest.fixture(scope="session")
def sweep_results():
    """(spec, bundle, report, seconds) for every admissible tuple."""
    rows = []
    for q in SWEEP_Q:
        for spec in admissible_parameters(q):
            start = time.perf_counter()
            bundle = construct_family(spec)
            report = classify(bundle.desc, certs=bundle.split_distances, jmax=4)
            rows.append((spec, bundle, report, time.perf_counter() - start))
    return rows
