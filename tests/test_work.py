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
from support import WORK_INPUTS, engine_frames, engine_size

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


def test_engine_size_counts_no_blank_comment_or_docstring_as_code(tmp_path):
    # Of the 17 lines below, the code lines are the import, the constant,
    # the class and def lines, the two returns and the string expression
    # that is no docstring, as it is not a body's first statement.
    (tmp_path / "m.py").write_text(
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment keeps the line\n"
        "LIMIT = 3\n"
        "\n"
        "class K:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        '        "a bare string after the docstring"\n'
        "        return os.sep\n"
        "def g():\n"
        "    return LIMIT\n",
        encoding="utf-8",
    )
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert engine_size(tmp_path) == (17, 8)
    (tmp_path / "n.py").write_text("x = 1\n\n", encoding="utf-8")
    assert engine_size(tmp_path) == (19, 9)
