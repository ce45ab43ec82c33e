"""Byte-identity where the engine works hardest: a digest corpus at scale.

The benchmark's digests (test_benchmark_digests.py) stop at order 20 and
miss null-k, bool-7, chain-128 and the larger products, where the engine's
fast paths do the most work.  Here each input is built once, afresh, and
every file command is rendered in process through its function in
``cli.COMMANDS`` and ``cli._emit``, in both formats, sharing the input's
memo.  Each report's SHA-256, with the command's exit status, must equal
the entry recorded in digest_corpus.json; a command that the CLI refuses
is recorded as its status and error text instead.

The table was recorded once, after each input's ideals and primes had
been checked by a second route (CHANGES.md says which).  It changes only
with a report that changes on purpose.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

import b1alg as b
from b1alg import cli
from support import idempotent_chain, monoid_ideal_algebra, null_algebra

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE_PATH = Path(__file__).resolve().parent / "digest_corpus.json"

# Every file command, with the input's zero label for {zero}.
COMMAND_LINES = (
    "validate", "ideals", "ideals --saturated", "spectrum", "nil", "assoc",
    "decompose --ideal {zero} --minimal", "laskerian", "evans", "audit",
)
FORMATS = ("text", "json")

# The indices into ``support.seeded_products`` of its five non-laskerian
# products and of its first five laskerian ones.
SEEDED = (35, 43, 58, 64, 79, 0, 1, 2, 3, 4)


def _seeded(k: int):
    return lambda products: b.direct_product(*products[k][:2])


def _shipped(name: str):
    return lambda products: cli.parse_algebra_file(REPO_ROOT / "algebras" / name)


# Every input by its report label: (make, commands left out).  make(products)
# builds the algebra afresh from the ``products`` fixture's factors or alone.
# null-12's audit takes about 11 s.
INPUTS = {
    "bool-7": (lambda products: b.builtin("bool-7"), ()),
    "chain-128": (lambda products: b.builtin("chain-128"), ()),
    "null-8": (lambda products: null_algebra(8), ()),
    "null-10": (lambda products: null_algebra(10), ()),
    "null-12": (lambda products: null_algebra(12), ("audit",)),
    "idempotent-chain": (lambda products: idempotent_chain(), ()),
    "monoid-ideals": (lambda products: monoid_ideal_algebra(), ()),
    **{f"seeded-product-{k}": (_seeded(k), ()) for k in SEEDED},
    "trivial": (lambda products: b.builtin("trivial"), ()),
    **{f"algebras/{path.name}": (_shipped(path.name), ())
       for path in sorted((REPO_ROOT / "algebras").glob("*.b1a"))},
}


def reports(algebra: b.Algebra, label: str, left_out=()) -> dict[str, str]:
    """Each command line of ``COMMAND_LINES`` and format, bar those left
    out, mapped to '<status> <SHA-256 of the report>' as the CLI would
    print it for a file named label, or to '2 error: <text>' for a command
    the CLI refuses."""
    parser, out = cli.build_parser(), {}
    for template in COMMAND_LINES:
        if template.split()[0] in left_out:
            continue
        line = template.format(zero=algebra.names[0])
        args = parser.parse_args([*line.split(), label])
        try:
            payload, status = args.run(algebra, args)
        except b.AlgebraError as exc:
            for fmt in FORMATS:
                out[f"{line} --format {fmt}"] = f"2 error: {exc}"
            continue
        for fmt in FORMATS:
            report = io.StringIO()
            cli._emit(args.command, label, payload, fmt, report)
            digest = hashlib.sha256(report.getvalue().encode("utf-8")).hexdigest()
            out[f"{line} --format {fmt}"] = f"{status} {digest}"
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TABLE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def default_bound(monkeypatch):
    monkeypatch.delenv("B1ALG_ENUM_BOUND", raising=False)


def test_the_table_covers_every_input(recorded):
    assert list(recorded) == list(INPUTS)


@pytest.mark.parametrize("label", INPUTS)
def test_reports_match_the_recorded_digests(label, products, recorded):
    make, left_out = INPUTS[label]
    assert reports(make(products), label, left_out) == recorded[label]


def test_the_order_1_algebra_refuses_to_decompose(recorded):
    # Its one ideal, {0}, is the whole algebra.
    refusal = "2 error: the ideal must be proper"
    assert [recorded["trivial"][f"decompose --ideal 0 --minimal --format {fmt}"]
            for fmt in FORMATS] == [refusal, refusal]
