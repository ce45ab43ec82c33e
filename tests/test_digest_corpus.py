"""Byte-identity where the engine works hardest: a digest corpus at scale.

The benchmark's digests (test_benchmark_digests.py) stop at order 20 and
miss null-k, bool-7, chain-128 and the larger products, where the engine's
fast paths do the most work.  The corpus inputs, their reports and the
checker live in ``tests/support.py`` (``CORPUS_INPUTS``,
``corpus_reports``, ``corpus_mismatches``), which runs the same check as
a script without pytest; here it runs once per input, against the table
in digest_corpus.json.
"""

from __future__ import annotations

import json

import pytest

from support import CORPUS_INPUTS, CORPUS_PATH, corpus_mismatches, run


@pytest.fixture(scope="module")
def recorded():
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def default_bound(monkeypatch):
    monkeypatch.delenv("B1ALG_ENUM_BOUND", raising=False)


def test_the_table_covers_every_input(recorded):
    assert list(recorded) == list(CORPUS_INPUTS)


@pytest.mark.parametrize("label", CORPUS_INPUTS)
def test_reports_match_the_recorded_digests(label, products, recorded):
    assert corpus_mismatches(recorded, products, [label]) == []


def test_the_order_1_algebra_refuses_to_decompose(recorded):
    # Its one ideal, {0}, is the whole algebra.
    refusal = "2 error: the ideal must be proper"
    assert [recorded["trivial"][f"decompose --ideal 0 --minimal --format {fmt}"]
            for fmt in run.FORMATS] == [refusal, refusal]
