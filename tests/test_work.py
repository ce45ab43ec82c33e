"""Ceilings on the engine opcodes of loop-heavy inputs.

Frames cannot see work inside a loop: ``Algebra(...)`` enters three b1alg
frames at any order.  Opcodes executed in b1alg code can, and like frames
they are the same on every host for a given Python version.  Each ceiling
is the count measured on Python 3.11; re-measure with
`PYTHONPATH=src python tests/support.py`, and lower a ceiling when a change
cuts its count.
"""

from __future__ import annotations

import pytest

from support import WORK_INPUTS, engine_frames

OPCODE_CEILINGS = {
    "Algebra, bool-5 tables": 725_415,  # the axiom gate and the mask tables
    "audit, null-6": 379_144,  # 72 ideals, and the audit's pair laws over them
    "enumerate_ideals, chain-32": 149_056,  # 32 ideals, found as joins
}


@pytest.mark.parametrize("name", OPCODE_CEILINGS)
def test_engine_opcodes_stay_under_the_ceiling(name):
    call, args = WORK_INPUTS[name]()
    _, opcodes = engine_frames(call, *args, opcodes=True)
    assert opcodes <= OPCODE_CEILINGS[name]
