from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import b1alg as b
import oracles
from b1alg.algebra import _label_problem, check_axioms
from support import null_algebra


def as_label_tables(algebra):
    add = [[algebra.names[e] for e in row] for row in algebra.add]
    mul = [[algebra.names[e] for e in row] for row in algebra.mul]
    return list(algebra.names), add, mul


class TestBuildAlgebra:
    def test_boolean_algebra_is_valid(self):
        a = b.build_algebra(
            ["0", "1"],
            [["0", "1"], ["1", "1"]],
            [["0", "0"], ["0", "1"]],
            "0",
            "1",
        )
        assert a.order == 2
        assert a.one == 1
        assert a == b.builtin("b1")

    def test_six_element_builtin_is_valid(self, ex62):
        assert ex62.order == 6
        assert ex62.names == ("0", "z", "x", "y", "u", "1")
        assert check_axioms(ex62.add, ex62.mul, ex62.one).valid

    def test_single_cell_mutation_breaks_commutativity(self, ex62):
        names, add, mul = as_label_tables(ex62)
        mul[2][3] = "u"  # x*y, leaving y*x alone
        with pytest.raises(b.AxiomError) as err:
            b.build_algebra(names, add, mul, "0", "1")
        axioms = {v.axiom for v in err.value.report.violations}
        assert "mul-commutative" in axioms

    def test_symmetric_mutation_breaks_distributivity_family(self, ex62):
        names, add, mul = as_label_tables(ex62)
        mul[2][3] = mul[3][2] = "u"  # x*y = y*x = u
        with pytest.raises(b.AxiomError) as err:
            b.build_algebra(names, add, mul, "0", "1")
        axioms = {v.axiom for v in err.value.report.violations}
        assert axioms & {"mul-associative", "left-distributive", "right-distributive"}
        assert not any(a.startswith("add-") for a in axioms)

    def test_dimension_mismatch(self):
        with pytest.raises(b.AlgebraError, match="rows"):
            b.build_algebra(["0", "1"], [["0", "1"]], [["0", "0"], ["0", "1"]], "0", "1")
        with pytest.raises(b.AlgebraError, match="row 2"):
            b.build_algebra(
                ["0", "1"], [["0", "1"], ["1"]], [["0", "0"], ["0", "1"]], "0", "1"
            )

    def test_unknown_zero_or_one_label(self):
        add, mul = [["0", "1"], ["1", "1"]], [["0", "0"], ["0", "1"]]
        with pytest.raises(b.AlgebraError, match="^unknown zero label 'q'$"):
            b.build_algebra(["0", "1"], add, mul, "q", "1")
        with pytest.raises(b.AlgebraError, match="^unknown one label 'q'$"):
            b.build_algebra(["0", "1"], add, mul, "0", "q")

    def test_unknown_label(self):
        with pytest.raises(b.AlgebraError, match="unknown label 'q'"):
            b.build_algebra(
                ["0", "1"], [["0", "q"], ["1", "1"]], [["0", "0"], ["0", "1"]], "0", "1"
            )

    def test_duplicate_label(self):
        with pytest.raises(b.AlgebraError, match="duplicate"):
            b.build_algebra(
                ["0", "0"], [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]], "0", "0"
            )

    def test_zero_must_be_first(self):
        with pytest.raises(b.AlgebraError, match="listed first"):
            b.build_algebra(
                ["1", "0"],
                [["1", "1"], ["1", "0"]],
                [["1", "0"], ["0", "0"]],
                "0",
                "1",
            )

    def test_zero_equals_one_rejected_beyond_order_one(self):
        with pytest.raises(b.AxiomError) as err:
            b.build_algebra(
                ["e", "a"],
                [["e", "a"], ["a", "a"]],
                [["e", "a"], ["a", "a"]],
                "e",
                "e",
            )
        assert any(v.axiom == "zero-is-not-one" for v in err.value.report.violations)

    def test_report_lists_all_violations_with_witnesses(self, ex62):
        names, add, mul = as_label_tables(ex62)
        add[1][2] = "y"  # z + x
        with pytest.raises(b.AxiomError) as err:
            b.build_algebra(names, add, mul, "0", "1")
        report = err.value.report
        assert not report.valid
        assert all(isinstance(v.witness, tuple) for v in report.violations)
        assert any(v.axiom == "add-commutative" and v.witness == (1, 2) for v in report.violations)

    @pytest.mark.parametrize("table, row, column, value, message", [
        ("mul", 2, 2, 1, "axiom mul-identity violated at (1)"),
        ("add", 1, 2, 1, "axiom add-commutative violated at (c1, 1) (and 1 further violation)"),
        ("mul", 1, 2, 2, "axiom mul-identity violated at (c1) (and 2 further violations)"),
    ])
    def test_axiom_error_names_the_first_violation_and_counts_the_rest(
        self, table, row, column, value, message
    ):
        chain = b.chain_algebra(3)
        tables = {"add": [list(r) for r in chain.add], "mul": [list(r) for r in chain.mul]}
        tables[table][row][column] = value
        with pytest.raises(b.AxiomError) as err:
            b.Algebra(chain.names, tables["add"], tables["mul"], chain.one)
        assert str(err.value) == message


class TestConstructorGate:
    # Algebra(...) is the one way to build an algebra, so it runs the whole
    # check: ill-shaped tables raise an AlgebraError naming the defect, and
    # tables that fail an axiom an AxiomError, never an IndexError or an
    # algebra the analyses then trip over.
    B1_ADD = ((0, 1), (1, 1))
    B1_MUL = ((0, 0), (0, 1))

    def test_tables_without_a_multiplicative_identity_are_refused(self):
        with pytest.raises(b.AxiomError, match="mul-identity") as err:
            b.Algebra(("0", "1"), self.B1_ADD, ((0, 0), (0, 0)), 1)
        assert err.value.report == check_axioms(self.B1_ADD, ((0, 0), (0, 0)), 1)

    @pytest.mark.parametrize("add, mul, one, problem", [
        (((0, 1),), B1_MUL, 1, "the add table has 1 rows but the mul table has 2"),
        (B1_ADD, ((0, 0),), 1, "the add table has 2 rows but the mul table has 1"),
        (((0, 1), (1,)), B1_MUL, 1, "add table row 2 has 1 entries, expected 2"),
        (B1_ADD, ((0, 0), (0, 1, 1)), 1, "mul table row 2 has 3 entries, expected 2"),
        (((0, 1), (1, 2)), B1_MUL, 1, "add table row 2 holds 2, not an element index below 2"),
        (B1_ADD, ((0, -1), (0, 1)), 1, "mul table row 1 holds -1, not an element index below 2"),
        (B1_ADD, B1_MUL, 2, "one 2 is not an element index below 2"),
        ((), (), 0, "one 0 is not an element index below 0"),
    ])
    def test_ill_shaped_tables_are_refused_by_name(self, add, mul, one, problem):
        for build in (check_axioms, lambda *t: b.Algebra(("0", "1")[:len(add)], *t)):
            with pytest.raises(b.AlgebraError) as err:
                build(add, mul, one)
            assert str(err.value) == problem
            assert not isinstance(err.value, b.AxiomError)

    @pytest.mark.parametrize("add, mul, one, problem", [
        (((0, 1.0), (1, 1)), B1_MUL, 1, "add table row 1 holds 1.0, not an element index below 2"),
        (B1_ADD, ((0, 0), (0, True)), 1, "mul table row 2 holds True, not an element index below 2"),
        (B1_ADD, ((0, 0), (0, "1")), 1, "mul table row 2 holds '1', not an element index below 2"),
        (B1_ADD, ((0, [0]), (0, 1)), 1, "mul table row 1 holds [0], not an element index below 2"),
        (B1_ADD, B1_MUL, 1.0, "one 1.0 is not an element index below 2"),
    ])
    def test_non_integer_entries_are_refused_by_name(self, add, mul, one, problem):
        # 1.0 == 1, so a range test alone lets it through to a TypeError.
        for build in (check_axioms, lambda *t: b.Algebra(("0", "1"), *t)):
            with pytest.raises(b.AlgebraError) as err:
                build(add, mul, one)
            assert str(err.value) == problem

    @pytest.mark.parametrize("names, problem", [
        (("0", "a b"), "bad label 'a b': labels are non-empty and contain no whitespace, '#' or ','"),
        (("0", ""), "bad label '': labels are non-empty and contain no whitespace, '#' or ','"),
        (("0", "a\tb"), "bad label 'a\\tb': labels are non-empty and contain no whitespace, '#' or ','"),
        (("0", "a#"), "bad label 'a#': labels are non-empty and contain no whitespace, '#' or ','"),
        (("0", "a,b"), "bad label 'a,b': labels are non-empty and contain no whitespace, '#' or ','"),
        ((0, 1), "bad label 0: labels are str, not int"),
        (("0", ["1"]), "bad label ['1']: labels are str, not list"),
        (("1", "1"), "duplicate label '1'"),
        (("0", "1", "1"), "duplicate label '1'"),  # the repeat, not the first label
    ])
    def test_bad_labels_are_refused_by_name(self, names, problem):
        # Each label the file format refuses, so that every algebra built
        # serializes to text that parses back.
        assert _label_problem(names) == problem
        with pytest.raises(b.AlgebraError) as err:
            b.Algebra(names, self.B1_ADD, self.B1_MUL, 1)
        assert str(err.value) == problem

    def test_labels_must_match_the_rows_one_to_one(self):
        with pytest.raises(b.AlgebraError, match="^3 labels for an add table of 2 rows$"):
            b.Algebra(("0", "1", "2"), self.B1_ADD, self.B1_MUL, 1)
        with pytest.raises(b.AlgebraError, match="^duplicate label '0'$"):
            b.Algebra(("0", "0"), self.B1_ADD, self.B1_MUL, 1)


class TestNaturalOrder:
    # a <= b iff a + b = b, the relation the natural-order audit row relies on.
    def test_frozen_examples(self, ex62):
        add = ex62.add
        z, x, y = ex62.index["z"], ex62.index["x"], ex62.index["y"]
        assert add[z][x] == x
        assert add[x][y] != y
        assert all(add[0][a] == a for a in ex62.elements())

    def test_partial_order_laws(self, base_fleet):
        for algebra in base_fleet.values():
            add = algebra.add
            for a in algebra.elements():
                assert add[a][a] == a
                for c in algebra.elements():
                    if add[a][c] == c and add[c][a] == a:
                        assert a == c
                    for d in algebra.elements():
                        if add[a][c] == c and add[c][d] == d:
                            assert add[a][d] == d


class TestAxiomLaws:
    def test_exhaustive_laws_on_fleet(self, base_fleet):
        for algebra in base_fleet.values():
            n = algebra.order
            add, mul = algebra.add, algebra.mul
            one = algebra.one
            for a in range(n):
                assert add[a][a] == a
                assert add[0][a] == a
                assert mul[one][a] == a
                assert mul[0][a] == 0
                for c in range(n):
                    assert add[a][c] == add[c][a]
                    assert mul[a][c] == mul[c][a]
                    for d in range(n):
                        assert add[add[a][c]][d] == add[a][add[c][d]]
                        assert mul[mul[a][c]][d] == mul[a][mul[c][d]]
                        assert mul[a][add[c][d]] == add[mul[a][c]][mul[a][d]]

    def test_check_matches_the_full_scan_on_fleet(self, base_fleet, full_random_fleet):
        for algebra in [*base_fleet.values(), *full_random_fleet]:
            tables = (algebra.add, algebra.mul, algebra.one)
            assert check_axioms(*tables) == oracles.axiom_report_oracle(*tables)

    def test_check_matches_the_full_scan_on_mutations(self, base_fleet, full_random_fleet):
        # One or two cells of a valid table change.  Every other mutation is
        # mirrored off the rows of zero and one and off the add diagonal, so
        # the unary axioms and commutativity hold and the fast pass runs: it
        # must hand every table that breaks a ternary law to the full scan.
        ternary = {"add-associative", "mul-associative", "left-distributive",
                   "right-distributive"}
        fleet = [a for a in [*base_fleet.values(), *full_random_fleet] if a.order > 2]
        rng = random.Random(13)
        only_ternary = 0
        for k in range(2400):
            algebra = rng.choice(fleet)
            n, mirror = algebra.order, k % 2 == 0
            inner = [x for x in range(1, n) if x != algebra.one]
            tables = [[list(row) for row in algebra.add], [list(row) for row in algebra.mul]]
            for _ in range(rng.randint(1, 2)):
                t = rng.randrange(2)
                v = rng.randrange(n)
                if not mirror:
                    tables[t][rng.randrange(n)][rng.randrange(n)] = v
                    continue
                i, j = rng.choice(inner), rng.choice(inner)
                if t == 0 and i == j:
                    continue
                tables[t][i][j] = tables[t][j][i] = v
            add, mul = (tuple(map(tuple, rows)) for rows in tables)
            want = oracles.axiom_report_oracle(add, mul, algebra.one)
            assert check_axioms(add, mul, algebra.one) == want
            if want.violations and {w.axiom for w in want.violations} <= ternary:
                only_ternary += 1
        assert only_ternary >= 600

    def test_check_matches_the_full_scan_on_every_mirrored_cell(self, ex62):
        # Every commutative one-cell change off the rows of zero and one and
        # off the add diagonal.  Between them these two algebras yield tables
        # that break just one ternary law, for each law.
        alone = set()
        for algebra in (ex62, null_algebra(3)):
            n = algebra.order
            inner = [x for x in range(1, n) if x != algebra.one]
            for t in range(2):
                for i in inner:
                    for j in inner:
                        if j < i or t == 0 and i == j:
                            continue
                        for v in range(n):
                            tables = [[list(r) for r in algebra.add],
                                      [list(r) for r in algebra.mul]]
                            tables[t][i][j] = tables[t][j][i] = v
                            add, mul = (tuple(map(tuple, rows)) for rows in tables)
                            want = oracles.axiom_report_oracle(add, mul, algebra.one)
                            assert check_axioms(add, mul, algebra.one) == want
                            alone.add(tuple(sorted({w.axiom for w in want.violations})))
        assert alone >= {
            ("add-associative",),
            ("mul-associative",),
            ("left-distributive", "right-distributive"),
        }

    def test_check_matches_the_full_scan_on_every_small_table(self):
        # Every commutative table of orders 2-4 with idempotent addition,
        # zero as additive identity and absorbing, and the last element as
        # one, so the fast pass runs on each: between them they break each
        # ternary law alone at every kind of triple the fast pass skips.
        tables = 0
        for n in (2, 3, 4):
            one = n - 1
            add_cells = list(itertools.combinations(range(1, n), 2))
            mul_cells = list(itertools.combinations_with_replacement(range(1, one), 2))
            for add_values in itertools.product(range(n), repeat=len(add_cells)):
                # the fixed cells; every other cell is one of the free ones
                add = [[a + b if 0 in (a, b) else a for b in range(n)] for a in range(n)]
                for (a, b), v in zip(add_cells, add_values):
                    add[a][b] = add[b][a] = v
                add = tuple(map(tuple, add))
                for mul_values in itertools.product(range(n), repeat=len(mul_cells)):
                    mul = [[b if a == one else a if b == one else 0 for b in range(n)]
                           for a in range(n)]
                    for (a, b), v in zip(mul_cells, mul_values):
                        mul[a][b] = mul[b][a] = v
                    mul = tuple(map(tuple, mul))
                    assert check_axioms(add, mul, one) == oracles.axiom_report_oracle(
                        add, mul, one
                    ), (add, mul)
                    tables += 1
        assert tables == 1 + 9 + 4096


class TestConstructions:
    def test_product_of_booleans(self, b1):
        p = b.direct_product(b1, b1)
        assert p.order == 4
        assert p.zero == 0 and p.names[0] == "0.0"
        assert p.names[p.one] == "1.1"
        assert check_axioms(p.add, p.mul, p.one).valid

    def test_product_with_six_element(self, b1, ex62):
        p = b.direct_product(b1, ex62)
        assert p.order == 12
        assert check_axioms(p.add, p.mul, p.one).valid

    def test_product_with_trivial_preserves_tables(self, ex62):
        p = b.direct_product(ex62, b.builtin("trivial"))
        assert p.add == ex62.add
        assert p.mul == ex62.mul
        assert p.one == ex62.one

    def test_product_beyond_bound_builds_silently(self, ex62):
        # Building a product never enumerates, so nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = b.direct_product(ex62, ex62)
        assert p.order == 36

    def test_chain_of_two_is_boolean(self, b1):
        assert b.chain_algebra(2) == b1
        assert hash(b.chain_algebra(2)) == hash(b1)

    def test_chain_of_three_proper_ideals_prime_and_saturated(self):
        a = b.chain_algebra(3)
        full = b.full_mask(a)
        for m in b.enumerate_ideals(a):
            if m != full:
                assert b.is_prime(a, m)
                assert b.is_saturated(a, m)

    def test_chain_of_five_has_five_chained_ideals(self):
        a = b.chain_algebra(5)
        ideals = b.enumerate_ideals(a)
        assert len(ideals) == 5
        for small, big in zip(ideals, ideals[1:]):
            assert small & ~big == 0

    def test_chain_too_short(self):
        with pytest.raises(b.AlgebraError):
            b.chain_algebra(1)

    def test_builtin_names(self):
        assert b.builtin("b1").order == 2
        assert b.builtin("trivial").is_trivial
        assert b.builtin("example-6-2").order == 6
        assert b.builtin("chain-4").order == 4
        assert b.builtin("bool-3").order == 8
        with pytest.raises(b.AlgebraError, match="unknown builtin"):
            b.builtin("nope")
        assert b.builtin("chain-007").order == 7
        # parameters are plain ASCII digits: no '_', sign, space or '\u0663'
        for name in ("chain-x", "chain-1_0", "chain-+3", "chain- 3", "chain-\u0663", "bool-"):
            with pytest.raises(b.AlgebraError, match="bad parameter"):
                b.builtin(name)
        with pytest.raises(b.AlgebraError):
            b.builtin("bool-0")

    def test_builtin_order_bound(self, monkeypatch):
        # refused from the name alone, before any algebra is built
        built = []
        real_init = b.Algebra.__init__

        def counting_init(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(b.Algebra, "__init__", counting_init)
        for name in ("bool-8", "bool-40", "chain-129", "chain-" + "9" * 5000):
            with pytest.raises(b.AlgebraError, match="order bound 128"):
                b.builtin(name)
        assert built == []
        b.builtin("bool-2")  # the count sees every construction
        assert len(built) == 3

    def test_argument_holes_are_refused_by_name(self):
        # Each call once escaped as a bare TypeError, IndexError or
        # AttributeError, or, for chain_algebra(2**70) and an order-256
        # product, built tables until memory or time ran out: the calls run in
        # a child capped in time and address space.  A is example-6-2.
        table = [
            ("b.chain_algebra(2.5)", "chain algebra order 2.5 is not an int"),
            ("b.chain_algebra(True)", "chain algebra order True is not an int"),
            ("b.chain_algebra(2**70)", f"chain algebra needs order 2..128, got {2**70}"),
            ("b.chain_algebra(129)", "chain algebra needs order 2..128, got 129"),
            ("b.builtin(None)", "builtin name None is not a str"),
            ("b.direct_product(A, None)", "direct_product operand None is not an Algebra"),
            ("b.direct_product('b1', A)", "direct_product operand 'b1' is not an Algebra"),
            ("b.direct_product(b.chain_algebra(128), b.chain_algebra(2))",
             "the product of orders 128 and 2 exceeds the order bound 128"),
            ("b.generated_ideal(A, 3)", "elements 3 is not an iterable of element indices"),
        ]
        probe = (
            "import resource, b1alg as b\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "A = b.builtin('example-6-2')\n"
            f"for call in {[call for call, _ in table]!r}:\n"
            "    try:\n        eval(call)\n        print('no refusal', flush=True)\n"
            "    except b.AlgebraError as exc:\n        print(exc, flush=True)\n"
            "    except Exception as exc:\n        print(type(exc).__name__, flush=True)\n"
        )
        src = Path(b.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        assert list(zip([call for call, _ in table], out.stdout.splitlines())) == table

    def test_container_holes_are_refused_by_name(self, ex62):
        # Each call once escaped as a bare TypeError or AttributeError: a
        # table, sequence, iterable or record argument of the wrong type is
        # refused with an AlgebraError that names the argument.
        # A set of rows or a set row has no order to keep, and an iterator of
        # rows none to read twice: each was once built in iteration order.
        A = ex62
        no_sequence = "is not a sequence of rows"
        # The order of these two sets, and of their reprs, varies with the hash seed.
        label_rows, label_row = {("0", "1"), ("1", "1")}, {"0", "1"}
        table = [
            (lambda: b.Algebra(("0", "1"), {(0, 1), (1, 1)}, ((0, 0), (0, 1)), 1),
             f"the add table {{(0, 1), (1, 1)}} {no_sequence}"),
            (lambda: b.Algebra(("0", "1"), ((0, 1), (1, 1)), ((0, 0), {0, 1}), 1),
             f"the mul table ((0, 0), {{0, 1}}) {no_sequence}"),
            (lambda: b.Algebra(("0",), iter([(0,)]), ((0,),), 0), "the add table <list_iterator"),
            # A dict indexes by key but iterates its keys: rows read one way and
            # copied the other were once two different tables.
            (lambda: b.Algebra(("0", "1"), ({1: 1, 0: 0}, (1, 1)), ((0, 0), (0, 1)), 1),
             f"the add table ({{1: 1, 0: 0}}, (1, 1)) {no_sequence}"),
            (lambda: b.Algebra(("0",), {(0,): 1}, ((0,),), 0), f"the add table {{(0,): 1}} {no_sequence}"),
            (lambda: check_axioms({(0,): 1}, ((0,),), 0), f"the add table {{(0,): 1}} {no_sequence}"),
            (lambda: b.build_algebra(["0", "1"], label_rows, [["0", "0"], ["0", "1"]], "0", "1"),
             f"the add table {label_rows!r} {no_sequence}"),
            (lambda: b.build_algebra(["0", "1"], [["0", "1"], ["1", "1"]], [["0", "0"], label_row],
                                     "0", "1"),
             f"the mul table [['0', '0'], {label_row!r}] {no_sequence}"),
            (lambda: b.spectrum(None), "algebra None is not an Algebra"),
            (lambda: b.audit(5), "algebra 5 is not an Algebra"),
            (lambda: b.laskerian_check(None), "algebra None is not an Algebra"),
            (lambda: b.is_prime("b1", 1), "algebra 'b1' is not an Algebra"),
            (lambda: b.evans_report(None, 1), "algebra None is not an Algebra"),
            (lambda: b.Algebra(("0",), 5, ((0,),), 0), f"the add table 5 {no_sequence}"),
            (lambda: b.Algebra(("0",), (5,), ((0,),), 0), f"the add table (5,) {no_sequence}"),
            (lambda: b.Algebra(("0",), ((0,),), None, 0), f"the mul table None {no_sequence}"),
            (lambda: b.Algebra(None, None, None, 0), "the labels None are not a tuple or list"),
            # Labels given as a set were once read in the set's order, and a str
            # was once split into one label per character.
            (lambda: b.Algebra(label_row, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 1),
             f"the labels {label_row!r} are not a tuple or list"),
            (lambda: b.Algebra("01", ((0, 1), (1, 1)), ((0, 0), (0, 1)), 1),
             "the labels '01' are not a tuple or list"),
            (lambda: check_axioms(None, None, 1), f"the add table None {no_sequence}"),
            (lambda: check_axioms((5,), ((0,),), 0), f"the add table (5,) {no_sequence}"),
            (lambda: check_axioms(((0,),), iter([(0,)]), 0), "the mul table <list_iterator"),
            (lambda: check_axioms({(0,)}, ((0,),), 0), f"the add table {{(0,)}} {no_sequence}"),
            (lambda: check_axioms(((0,),), {(0,)}, 0), f"the mul table {{(0,)}} {no_sequence}"),
            (lambda: check_axioms(((0,),), ({0},), 0), f"the mul table ({{0}},) {no_sequence}"),
            (lambda: b.build_algebra(None, [], [], "0", "1"), "the labels None are not a tuple or list"),
            (lambda: b.build_algebra(label_row, [["0", "1"], ["1", "1"]], [["0", "0"], ["0", "1"]],
                                     "0", "1"),
             f"the labels {label_row!r} are not a tuple or list"),
            (lambda: b.build_algebra("01", [["0", "1"], ["1", "1"]], [["0", "0"], ["0", "1"]],
                                     "0", "1"),
             "the labels '01' are not a tuple or list"),
            (lambda: b.build_algebra(["0", "1"], None, None, "0", "1"),
             f"the add table None {no_sequence}"),
            (lambda: b.build_algebra(["0"], [5], [["0"]], "0", "0"),
             f"the add table [5] {no_sequence}"),
            (lambda: b.build_algebra(["0"], [["0"]], [["0"]], ["0"], "0"), "unknown zero label ['0']"),
            # An empty element list once answered 1 for any first argument.
            (lambda: b.generated_ideal(None, []), "algebra None is not an Algebra"),
            (lambda: b.mask_of(3), "elements 3 is not an iterable of element indices"),
            (lambda: b.minimalize(None), "result None is not a DecompositionResult"),
        ]
        for call, refusal in table:
            with pytest.raises(b.AlgebraError) as caught:
                call()
            assert str(caught.value).startswith(refusal), refusal

    # Each call but quotient's once escaped as AttributeError: these
    # functions reach no memo, whose wrapper refuses a first argument that
    # is not an Algebra.  quotient reaches one first, the ideal test's, and
    # is listed so that it stays refused by name.  The value maps
    # example-6-2 to the other arguments.
    NO_MEMO_FIRST = {
        "member_labels": lambda A: (1,),
        "zero_divisors": lambda A: (),
        "conductor": lambda A: (1, 1),
        "annihilator": lambda A: (1,),
        "bourne_congruence": lambda A: (1,),
        "full_mask": lambda A: (),
        "quotient": lambda A: (1,),
    }

    @pytest.mark.parametrize("name", NO_MEMO_FIRST)
    @pytest.mark.parametrize("algebra", [None, 5])
    def test_a_first_argument_that_is_no_algebra_is_refused_by_name(self, name, algebra, ex62):
        with pytest.raises(b.AlgebraError, match=f"^algebra {algebra} is not an Algebra$"):
            getattr(b, name)(algebra, *self.NO_MEMO_FIRST[name](ex62))

    # The powers of a are read off the mask _powers[a] = {a**k : k >= 1},
    # which radical (some power of a lands in I) reads.
    def test_power(self, ex62):
        z, x = ex62.index["z"], ex62.index["x"]
        assert ex62._powers[z] == 1 << z | 1  # z, then z**2 = 0
        assert ex62._powers[x] == 1 << x  # x is idempotent
        assert b.radical(ex62, 1) == 1 << z | 1

    def test_power_matches_the_naive_product(self, base_fleet):
        for algebra in base_fleet.values():
            for a in algebra.elements():
                acc, naive = a, 0
                for _ in range(2 * algebra.order):
                    naive |= 1 << acc
                    acc = algebra.mul[acc][a]
                assert algebra._powers[a] == naive, (algebra.names, a)

    def test_huge_exponents_read_the_power_cycle(self, base_fleet):
        # a, a**2, ... runs into a cycle, so a**k for any k, however large,
        # is read off that walk and lies in the powers mask.
        for algebra in base_fleet.values():
            for a in algebra.elements():
                walk, seen = [a], {a: 0}
                while (nxt := algebra.mul[walk[-1]][a]) not in seen:
                    seen[nxt] = len(walk)
                    walk.append(nxt)
                start = seen[nxt]  # walk[i] is a**(i + 1)
                period = len(walk) - start
                powers = algebra._powers[a]
                for k in (10**18, 10**18 + 1, 2**61 - 1):
                    want = walk[start + (k - 1 - start) % period]
                    assert powers >> want & 1, (algebra.names, a, k)
                    assert b.radical(algebra, 1 << want) >> a & 1, (algebra.names, a, k)

    def test_element_indices_are_range_checked(self, ex62):
        for a in ex62.elements():
            ex62._require_element(a)
        for index in (ex62.order, -1):
            with pytest.raises(b.AlgebraError, match=(
                f"^element index {index} is out of range for this order-6 algebra$"
            )):
                ex62._require_element(index)

    def test_element_indices_must_be_ints(self, ex62):
        # A float index passes the range test, so it is refused by type.
        for index, call in (
            (1.0, lambda: b.generated_ideal(ex62, [1.0])),
            (1.0, lambda: b.annihilator(ex62, 1.0)),
            (2.0, lambda: b.conductor(ex62, 2.0, 1)),
        ):
            with pytest.raises(b.AlgebraError, match=f"^element index {index} is not an int$"):
                call()

    def test_structural_equality(self, b1, ex62):
        assert b1 != ex62
        assert b.builtin("example-6-2") == ex62
        # equal only if the labels, both tables and one all agree
        chain = b.chain_algebra(3)
        relabelled = b.Algebra(("0", "a", "1"), chain.add, chain.mul, chain.one)
        mul = [list(row) for row in chain.mul]
        mul[1][1] = 0  # c1*c1 = 0: one entry apart, still an algebra
        squares_to_zero = b.Algebra(chain.names, chain.add, mul, chain.one)
        for other in (relabelled, squares_to_zero):
            assert other != chain and chain != other
        # never equal to a non-Algebra, not even one with the same fields
        fields = SimpleNamespace(names=b1.names, add=b1.add, mul=b1.mul, one=b1.one)
        for other in ("b1", fields):
            assert b1 != other and other != b1
        assert repr(b.builtin("b1")) == "Algebra(order=2, names=('0', '1'))"

    def test_trivial_is_flagged_not_rejected(self):
        t = b.builtin("trivial")
        assert t.order == 1
        assert t.is_trivial
        assert t.zero == t.one == 0
