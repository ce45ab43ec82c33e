"""Ceilings on the engine opcodes of loop-heavy inputs.

Frames cannot see work inside a loop: ``Algebra(...)`` enters three b1alg
frames at any order.  Opcodes executed in b1alg code can, and like frames
they are the same on every host for a given Python version.  Each ceiling
is the count measured on Python 3.11; re-measure with
`PYTHONPATH=src python tests/support.py`, and lower a ceiling when a change
cuts its count.  sys.settrace misses opcodes on 3.12 and 3.13, so the
count is refused on any Python but 3.11.
"""

from __future__ import annotations

import re
import sys

import pytest

import support
from support import WORK_INPUTS, engine_frames

OPCODE_CEILINGS = {
    "Algebra, bool-5 tables": 725_415,  # the axiom gate and the mask tables
    "audit, null-6": 348_810,  # 72 ideals, and the audit's pair laws over them
    "enumerate_ideals, chain-32": 149_056,  # 32 ideals, found as joins
}


@pytest.mark.parametrize("name", OPCODE_CEILINGS)
def test_engine_opcodes_stay_under_the_ceiling(name):
    call, args = WORK_INPUTS[name]()
    _, opcodes = engine_frames(call, *args, opcodes=True)
    assert opcodes <= OPCODE_CEILINGS[name]


def test_opcode_counts_are_refused_where_they_are_not_exact(monkeypatch):
    # sys.settrace misses opcodes on 3.12 and 3.13, and a count of 0 would
    # pass every ceiling; the refusal names the running version instead.
    monkeypatch.setattr(support, "OPCODES_EXACT", False)
    refusal = f"exact only on Python 3.11, not {re.escape(sys.version.split()[0])}$"
    with pytest.raises(RuntimeError, match=refusal):
        engine_frames(len, (), opcodes=True)
    assert engine_frames(len, ()) == []  # frames are counted on any version
