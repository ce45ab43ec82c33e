"""Acceptance suite.

Each test covers one numbered criterion at zero tolerance and prints a
single PASS line on success (run with ``pytest -s`` to see them; any
failure shows up as a normal pytest failure).  The fleet is the named
family (b1, example-6-2, chains 2..6, their pairwise products up to order
12) plus 200 seeded rejection-sampled algebras of order <= 6.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import b1alg as b
from b1alg.algebra import check_axioms
from b1alg.cli import main, parse_algebra_file
import oracles
from support import lbl, msk

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_FILE = REPO_ROOT / "algebras" / "example-6-2.b1a"


@pytest.fixture(scope="module")
def fleet(base_fleet, full_random_fleet):
    members = [(name, algebra) for name, algebra in base_fleet.items()]
    members += [(f"random-{i}", algebra) for i, algebra in enumerate(full_random_fleet)]
    return members


def _passed(line: str) -> None:
    print(f"\n{line}")


# -- 1 ----------------------------------------------------------------------

STATED_ADD_RELATIONS = (("z", "x", "x"), ("z", "y", "y"), ("x", "y", "u"), ("u", "1", "1"))
STATED_MUL_RELATIONS = (
    ("x", "x", "x"),
    ("y", "y", "y"),
    ("z", "z", "0"),
    ("u", "u", "u"),
    ("x", "y", "0"),
    ("x", "z", "0"),
    ("y", "z", "0"),
    ("u", "z", "0"),
    ("x", "u", "x"),
    ("y", "u", "y"),
)


def _breaks_stated_relation(algebra_names, add, mul) -> bool:
    idx = {n: i for i, n in enumerate(algebra_names)}
    for table, relations in ((add, STATED_ADD_RELATIONS), (mul, STATED_MUL_RELATIONS)):
        for a, c, want in relations:
            i, j, w = idx[a], idx[c], idx[want]
            if table[i][j] != w or table[j][i] != w:
                return True
    return False


def test_criterion_1_example_file_fidelity(ex62, capsys):
    shipped = parse_algebra_file(EXAMPLE_FILE)
    assert shipped == ex62
    assert check_axioms(shipped.add, shipped.mul, shipped.one).valid
    assert main(["validate", str(EXAMPLE_FILE)]) == 0
    capsys.readouterr()

    n = shipped.order
    invalid = 0
    valid_different = 0
    for which in ("add", "mul"):
        base = shipped.add if which == "add" else shipped.mul
        other = shipped.mul if which == "add" else shipped.add
        for i in range(n):
            for j in range(n):
                rows = [list(r) for r in base]
                rows[i][j] = (rows[i][j] + 1) % n
                mutant = tuple(tuple(r) for r in rows)
                add_t = mutant if which == "add" else other
                mul_t = other if which == "add" else mutant
                report = check_axioms(add_t, mul_t, shipped.one)
                if not report.valid:
                    invalid += 1
                else:
                    # a valid mutant is a different algebra; the defining
                    # relations must notice, or uniqueness would fail
                    valid_different += 1
                    assert (add_t, mul_t) != (shipped.add, shipped.mul)
                    assert _breaks_stated_relation(shipped.names, add_t, mul_t)
    assert invalid + valid_different == 72
    _passed(
        "ACCEPTANCE 1 example-file fidelity: PASS "
        f"(file validates; {invalid} mutants break an axiom, "
        f"{valid_different} are valid but different algebras)"
    )


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_non_laskerian_counterexample(ex62, capsys):
    report = b.laskerian_check(ex62)
    assert report.laskerian is False
    assert report.witness == msk(ex62, "")
    z = 1 << ex62.index["z"]
    assert report.saturated_primaries, "expected a nonempty saturated primary family"
    for q in report.saturated_primaries:
        assert q & z, f"saturated primary {lbl(ex62, q)} misses z"

    assert main(["laskerian", str(EXAMPLE_FILE), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["result"]
    assert payload["laskerian"] is False
    assert payload["witness"] == "0"
    _passed(
        "ACCEPTANCE 2 non-laskerian counterexample: PASS "
        "(verdict false, witness {0}, all saturated primaries contain z)"
    )


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_weak_decomposition(fleet):
    checked = 0
    for name, algebra in fleet:
        full = b.full_mask(algebra)
        for j in b.enumerate_saturated_ideals(algebra):
            if j == full or b.radical(algebra, j) != j:
                continue
            result = b.weak_decompose(algebra, j)
            assert result.intersection() == j, (name, lbl(algebra, j))
            for c in result.components:
                assert b.is_prime(algebra, c), (name, lbl(algebra, c))
                assert b.is_saturated(algebra, c), (name, lbl(algebra, c))
            checked += 1
    _passed(
        f"ACCEPTANCE 3 weak decomposition: PASS "
        f"({checked} saturated radical ideals across {len(fleet)} algebras, zero tolerance)"
    )


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_evans_property(fleet):
    checked = 0
    for name, algebra in fleet:
        full = b.full_mask(algebra)
        for i in b.enumerate_saturated_ideals(algebra):
            if i == full:
                continue
            report = b.evans_report(algebra, i)
            assert report.all_prime, (name, lbl(algebra, i))
            assert report.all_saturated, (name, lbl(algebra, i))
            assert report.union_equals_divisor_set, (name, lbl(algebra, i))
            assert report.passed
            checked += 1
    _passed(
        f"ACCEPTANCE 4 evans property: PASS "
        f"({checked} saturated proper ideals across {len(fleet)} algebras)"
    )


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_associated_primes(fleet, ex62):
    for name, algebra in fleet:
        annihilators = {b.annihilator(algebra, u) for u in range(1, algebra.order)}
        for x, p in b.associated_primes(algebra):
            assert b.is_saturated(algebra, p), (name, lbl(algebra, p))
            assert p in annihilators, (name, lbl(algebra, p))
        assert b.min_primes(algebra) == b.min_saturated_primes(algebra), name

    expected = {
        b.annihilator(ex62, ex62.index["x"]),
        b.annihilator(ex62, ex62.index["y"]),
        b.annihilator(ex62, ex62.index["z"]),
    }
    assert expected == {
        msk(ex62, "z,y"),
        msk(ex62, "z,x"),
        msk(ex62, "z,x,y,u"),
    }
    assert {p for _, p in b.associated_primes(ex62)} == expected
    _passed(
        "ACCEPTANCE 5 associated primes: PASS "
        "(all saturated annihilators; minimal families agree; exact set on example-6-2)"
    )


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_radical_saturation_identity(fleet):
    pairs = 0
    for name, algebra in fleet:
        ideals = b.enumerate_ideals(algebra)
        sat = {i: b.saturation(algebra, i) for i in ideals}
        for i in ideals:
            for j in ideals:
                lhs = b.radical(algebra, b.saturation(algebra, i & j))
                mid = b.radical(algebra, sat[i] & sat[j])
                rhs = b.radical(algebra, sat[i]) & b.radical(algebra, sat[j])
                assert lhs == mid == rhs, (name, lbl(algebra, i), lbl(algebra, j))
                pairs += 1
    _passed(
        f"ACCEPTANCE 6 radical/saturation identity: PASS ({pairs} ideal pairs, exhaustive)"
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_oracle_equivalence(fleet):
    checked = 0
    for name, algebra in fleet:
        for m in b.enumerate_ideals(algebra):
            assert b.is_prime(algebra, m) == oracles.prime_oracle(algebra, m), (
                name,
                lbl(algebra, m),
            )
            assert b.is_primary(algebra, m) == oracles.primary_oracle(algebra, m), (
                name,
                lbl(algebra, m),
            )
            checked += 1
        assert b.associated_primes(algebra) == oracles.associated_oracle(algebra), name
    _passed(
        f"ACCEPTANCE 7 oracle equivalence: PASS "
        f"({checked} ideals, complement-closure and power-walk oracles agree; "
        f"associated primes match the quotient route on {len(fleet)} algebras)"
    )


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_audit_fleet(fleet, base_fleet, tmp_path, capsys):
    from b1alg.cli import serialize_algebra

    start = time.monotonic()
    for name, algebra in fleet:
        result = b.audit(algebra)
        assert result.passed, (name, [c.name for c in result.checks if not c.passed])
    elapsed = time.monotonic() - start

    # the named fleet also goes through the CLI, asserting exit code 0
    for name, algebra in base_fleet.items():
        path = tmp_path / f"{name.replace('*', '_x_')}.b1a"
        path.write_text(serialize_algebra(algebra), encoding="utf-8")
        code = main(["audit", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, (name, payload)
        assert payload["result"]["passed"] is True

    assert elapsed < 60.0, f"audit fleet took {elapsed:.1f}s"
    _passed(
        f"ACCEPTANCE 8 audit suite: PASS "
        f"({len(fleet)} audits in {elapsed:.2f}s, CLI exit code 0 on the named fleet)"
    )
