"""The benchmark's byte-identity gate, run in process.

The benchmark in perfbench/ counts an op whose report differs from the
digest recorded in perfbench/expected.json as failed.  These tests run the
same ops untimed: the fleet op on every algebra the fleet generator can
draw, and every CLI op of the cli-small and enum-large workloads in both
report formats.  The CLI workloads also install the tracer of
perfbench/tracing.py, so every engine name it wraps must exist.  A ceiling
on the engine frames of one fleet pass guards the fleet op's fixed cost,
and a ceiling on its opcodes the work inside its loops, which wall time
on a shared host cannot.  They only read perfbench/.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from b1alg import cli
from support import WORK_INPUTS, engine_frames

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
import run  # noqa: E402  (perfbench/run.py)
import tracing  # noqa: E402  (perfbench/tracing.py)
import worker  # noqa: E402  (perfbench/worker.py)


# b1alg frames that one fleet pass enters (worker.analyse over the seed-111
# fleet), and the opcodes it executes in b1alg, measured on Python 3.11.
# Both counts are the same on every host; Python >= 3.12 inlines
# comprehensions, so frames there only fall.  Re-measure with
# `PYTHONPATH=src python tests/support.py`, and lower a ceiling when a
# change cuts its count.
FLEET_PASS_FRAME_CEILING = 87_281
FLEET_PASS_OPCODE_CEILING = 5_349_473


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
    engine, _ = worker._import_engine(["cli", "ideals", "spectrum", "decompose"])
    texts = sorted(inputs.possible_fleet_texts())
    assert {run.text_key(t) for t in texts} == set(recorded["fleet"])
    wrong = []
    for text in texts:
        digest, passed = worker.analyse(engine, text)
        if not passed or digest[:24] != recorded["fleet"][run.text_key(text)]:
            wrong.append(text)
    assert wrong == []


@pytest.mark.parametrize("workload", ["cli-small", "enum-large"])
def test_cli_ops_match_the_recorded_digests(workload, recorded, tmp_path, monkeypatch):
    where = tmp_path / workload
    digest = run.write_inputs(run.CLI_INPUTS[workload](), where)
    assert digest == recorded["inputs"][workload]
    monkeypatch.chdir(where)  # the ops name their input files relative to it
    wrong = []
    for op in run.CLI_OPS[workload]:
        for fmt in run.FORMATS:
            argv = run.op_argv(op, fmt)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if f"{code} {run.sha256(out.getvalue())}" != recorded["cli"][run.op_key(argv)]:
                wrong.append(run.op_key(argv))
    assert wrong == []


def test_a_fleet_pass_stays_under_the_frame_and_opcode_ceilings():
    call, args = WORK_INPUTS["fleet pass, seed 111"]()
    frames, opcodes = engine_frames(call, *args, opcodes=True)
    assert len(frames) <= FLEET_PASS_FRAME_CEILING
    assert opcodes <= FLEET_PASS_OPCODE_CEILING
