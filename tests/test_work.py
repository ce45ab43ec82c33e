"""Ceilings on the engine work of fixed inputs, from ``support.WORK_INPUTS``.

Each input there holds a ceiling on its engine frames and one on its
engine opcodes, measured on Python 3.11.  Frames guard a fixed per-call
cost; opcodes see the work inside a loop that frames cannot:
``Algebra(...)`` enters three b1alg frames at any order.  Like frames,
opcodes are the same on every host for a given Python version, and wall
time on a shared host is not.  The frames are gated on every Python; the
opcodes on 3.11 alone, as sys.settrace misses some on 3.12 and 3.13.
Re-measure with `PYTHONPATH=src python tests/support.py`, which gates the
same ceilings without pytest, and lower a ceiling when a change cuts its
count.
"""

from __future__ import annotations

import re
import sys

import pytest

import support
from support import WORK_INPUTS, ceiling_breaches, engine_frames, engine_size


@pytest.mark.parametrize("name", WORK_INPUTS)
def test_engine_work_stays_under_the_ceilings(name):
    assert ceiling_breaches(name) == []


def test_a_count_over_its_ceiling_is_reported_by_name(monkeypatch, capsys):
    # bool-5's tables enter the three frames of Algebra(...) on any Python;
    # with the frame ceiling one below that, the breach names the input, and
    # the script that gates every input exits 1.
    name = "Algebra, bool-5 tables"
    make, frames, opcodes = WORK_INPUTS[name]
    assert frames == 3
    monkeypatch.setattr(support, "WORK_INPUTS", {name: (make, frames - 1, opcodes)})
    breach = f"{name}: 3 frames, over the ceiling 2"
    assert ceiling_breaches(name) == [breach]
    assert support.main() == 1
    out = capsys.readouterr().out
    assert f"{name}: 3 frames, ceiling 2\n" in out
    assert out.endswith(f"OVER: {breach}\n")


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
