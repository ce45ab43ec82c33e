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
count.  The script also checks every recorded report; the tests here
drive its failure paths, a count over its ceiling and a report that
differs from its table.
"""

from __future__ import annotations

import json
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
    # the script that gates every input exits 1.  The report checks, which
    # the next test drives, are left out.
    name = "Algebra, bool-5 tables"
    make, frames, opcodes = WORK_INPUTS[name]
    assert frames == 3
    monkeypatch.setattr(support, "WORK_INPUTS", {name: (make, frames - 1, opcodes)})
    monkeypatch.setattr(support, "report_mismatches", lambda: [])
    breach = f"{name}: 3 frames, over the ceiling 2"
    assert ceiling_breaches(name) == [breach]
    assert support.main() == 1
    out = capsys.readouterr().out
    assert f"{name}: 3 frames, ceiling 2\n" in out
    assert out.endswith(f"OVER: {breach}\n")


def test_a_report_that_differs_from_its_table_is_reported_by_name(
    monkeypatch, capsys, tmp_path
):
    # One entry planted wrong in each table, read from a copy: a fleet
    # digest, a CLI op's digest and one command of a corpus input.  The
    # script names each and exits 1, and no other entry is reported.
    expected = json.loads(support.run.EXPECTED_PATH.read_text(encoding="utf-8"))
    corpus = json.loads(support.CORPUS_PATH.read_text(encoding="utf-8"))
    fleet_key = min(expected["fleet"])
    expected["fleet"][fleet_key] = "0" * 24
    op = "validate b1.b1a --format json"
    expected["cli"][op] = "0 " + "0" * 64
    corpus["null-8"]["nil --format text"] = "0 " + "0" * 64
    for name, table in (("expected.json", expected), ("digest_corpus.json", corpus)):
        (tmp_path / name).write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setattr(support.run, "EXPECTED_PATH", tmp_path / "expected.json")
    monkeypatch.setattr(support, "CORPUS_PATH", tmp_path / "digest_corpus.json")
    monkeypatch.setattr(support, "WORK_INPUTS", {})
    monkeypatch.delenv("B1ALG_ENUM_BOUND", raising=False)
    assert support.main() == 1
    differs = [line for line in capsys.readouterr().out.splitlines() if "DIFFERS" in line]
    assert differs == [
        f"DIFFERS: fleet {fleet_key}: report differs from perfbench/expected.json",
        f"DIFFERS: cli-small: {op}: report differs from perfbench/expected.json",
        "DIFFERS: null-8: reports differ from the digest corpus: nil --format text",
    ]


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
