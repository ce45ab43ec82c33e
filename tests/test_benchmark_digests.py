"""The benchmark's byte-identity gate, run in process.

The benchmark in perfbench/ counts an op whose report differs from the
digest recorded in perfbench/expected.json as failed.  These tests run the
same ops untimed, through the checkers that ``tests/support.py`` also runs
as a script without pytest: the fleet op on every algebra the fleet
generator can draw (``support.fleet_mismatches``), and every CLI op of the
cli-small and enum-large workloads in both report formats
(``support.cli_mismatches``).  The CLI workloads also install the tracer
of perfbench/tracing.py, so every engine name it wraps must exist.  The
ceilings on the work of one fleet pass live with the other work ceilings
in ``support.WORK_INPUTS`` and are checked in test_work.py.  These tests
only read perfbench/.
"""

from __future__ import annotations

import importlib
import json

import pytest

from support import cli_mismatches, fleet_mismatches, run

import tracing  # noqa: E402  (perfbench/tracing.py, on the path support sets)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def default_bound(monkeypatch):
    # The benchmark's children run without B1ALG_ENUM_BOUND.
    monkeypatch.delenv("B1ALG_ENUM_BOUND", raising=False)


def test_every_traced_name_is_an_engine_function():
    # Tracer.install looks each name up; a missing one fails every traced op.
    missing = [
        f"{module}.{name}"
        for module, name in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"b1alg.{module}"), name, None))
    ]
    assert missing == []


def test_fleet_op_matches_the_recorded_digests(recorded):
    assert fleet_mismatches(recorded) == []


@pytest.mark.parametrize("workload", ["cli-small", "enum-large"])
def test_cli_ops_match_the_recorded_digests(workload, recorded, tmp_path):
    assert cli_mismatches(workload, recorded, tmp_path / workload) == []
