from __future__ import annotations

import ast
import gc
import importlib
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import b1alg as b
import oracles
from b1alg.decompose import DecompositionResult
from support import (
    answer,
    engine_frames,
    fleet_op,
    idempotent_chain,
    lbl,
    monoid_ideal_algebra,
    msk,
    null_algebra,
    out_of_range_refusal,
)


class TestWeakDecompose:
    def test_split_of_nilradical(self, ex62):
        result = b.weak_decompose(ex62, msk(ex62, "z"))
        assert [lbl(ex62, c) for c in result.components] == ["0,z,x", "0,z,y"]
        assert result.intersection() == msk(ex62, "z")
        assert result.split_trace == (
            (msk(ex62, "z"), (ex62.index["x"], ex62.index["y"])),
        )

    def test_prime_input_returns_itself(self, ex62):
        m = msk(ex62, "z,x,y,u")
        result = b.weak_decompose(ex62, m)
        assert result.components == (m,)
        assert result.split_trace == ()

    def test_chain_ideals_are_their_own_decomposition(self, chain4):
        full = b.full_mask(chain4)
        for m in b.enumerate_ideals(chain4):
            if m != full:
                assert b.weak_decompose(chain4, m).components == (m,)

    def test_rejects_unsaturated(self, ex62):
        with pytest.raises(b.AlgebraError, match="saturated"):
            b.weak_decompose(ex62, msk(ex62, "x"))

    def test_rejects_non_radical(self, ex62):
        # {0} is saturated but its radical picks up the nilpotent
        with pytest.raises(b.AlgebraError, match="radical"):
            b.weak_decompose(ex62, msk(ex62, ""))

    def test_rejects_improper(self, ex62):
        with pytest.raises(b.AlgebraError, match="proper"):
            b.weak_decompose(ex62, b.full_mask(ex62))

    def test_rejects_non_ideal_masks(self):
        bool2 = b.builtin("bool-2")
        not_closed = msk(bool2, "0.1,1.0")  # 0.1 + 1.0 = 1.1 is missing
        out_of_range = 1 | 1 << bool2.order
        for analyse in (b.weak_decompose, b.radical_decomposition, b.evans_report):
            with pytest.raises(b.AlgebraError, match="not closed under addition"):
                analyse(bool2, not_closed)
            with pytest.raises(b.AlgebraError, match="out-of-range element"):
                analyse(bool2, out_of_range)

    def test_broken_invariant_raises_runtime_error(self, monkeypatch):
        # A saturation that jumps to the whole algebra leaves a split arm
        # that cannot grow properly; the check must be an exception, not an
        # assert that -O strips.
        algebra = b.builtin("example-6-2")
        monkeypatch.setattr(
            "b1alg.decompose.saturation", lambda algebra, mask: b.full_mask(algebra)
        )
        with pytest.raises(RuntimeError, match="split arm failed to grow properly"):
            b.weak_decompose(algebra, msk(algebra, "z"))

    def test_analysed_algebra_is_freed_without_gc(self):
        # Reference counting alone must free an analysed algebra, and with
        # it every family and per-mask result memoized on it: no memo entry
        # may refer back to its algebra.
        gc.disable()
        try:
            for analyse in (lambda a: b.radical_decomposition(a, 1), b.audit, fleet_op):
                algebra = b.builtin("example-6-2")
                analyse(algebra)
                ref = weakref.ref(algebra)
                del algebra
                assert ref() is None
        finally:
            gc.enable()

    def test_exactness_on_fleet(self, base_fleet, small_random_fleet):
        for algebra in [*base_fleet.values(), *small_random_fleet]:
            full = b.full_mask(algebra)
            for j in b.enumerate_saturated_ideals(algebra):
                if j == full or b.radical(algebra, j) != j:
                    continue
                result = b.weak_decompose(algebra, j)
                assert result.intersection() == j
                for c in result.components:
                    assert b.is_prime(algebra, c)
                    assert b.is_saturated(algebra, c)
                for node, (u, v) in result.split_trace:
                    assert not node >> u & 1
                    assert not node >> v & 1
                    assert node >> algebra.mul[u][v] & 1


def _full_check_refusal(algebra, mask):
    """The refusal of the full check sequence (ideal, proper, saturated),
    with the ideal witness found by scanning the tables."""
    bad = oracles.ideal_violation_oracle(algebra, mask)
    if bad is not None:
        what, witness = bad
        names = ", ".join(
            algebra.names[w] if w < algebra.order else f"bit {w}" for w in witness
        )
        return f"the set {what} (witness: {names})"
    if mask == b.full_mask(algebra):
        return "the ideal must be proper"
    extra = oracles.saturation_oracle(algebra, mask) & ~mask
    if extra:
        return f"the ideal is not saturated; its closure adds {{{lbl(algebra, extra)}}}"
    return None


class TestInputChecks:
    def test_refusals_match_the_full_check(self, base_fleet, small_random_fleet):
        # ideal_violation reads the principal-ideal masks and skips pairs
        # (j, i) with j > i; its witness must still be the first one the
        # table scan finds, and every refusal must carry it.
        rng = random.Random(2024)
        for algebra in [*base_fleet.values(), *small_random_fleet, b.builtin("bool-5")]:
            n = algebra.order
            masks = [
                *b.enumerate_ideals(algebra),
                *(rng.getrandbits(n + 2) for _ in range(100)),
                *(rng.getrandbits(n) | 1 for _ in range(100)),
            ]
            for m in masks:
                assert b.ideal_violation(algebra, m) == oracles.ideal_violation_oracle(algebra, m)
                want = _full_check_refusal(algebra, m)
                for analyse in (b.weak_decompose, b.radical_decomposition, b.evans_report):
                    try:
                        analyse(algebra, m)
                        got = None
                    except b.AlgebraError as exc:
                        got = str(exc)
                    if want is None and analyse is b.weak_decompose and b.radical(algebra, m) != m:
                        # the lowest member of r(I) outside I is named
                        culprit = min(b.bits(oracles.radical_oracle(algebra, m) & ~m))
                        assert got == ("weak_decompose requires a radical ideal; a power of "
                                       f"{algebra.names[culprit]!r} lies inside")
                    else:
                        assert got == want


def _splits(algebra: b.Algebra) -> list[DecompositionResult]:
    """The split of every proper saturated radical ideal, as the audit's
    weak-decomposition-exact law asks for them."""
    decompose = importlib.import_module("b1alg.decompose")
    full = b.full_mask(algebra)
    return [
        decompose._split(algebra, j) for j in b.enumerate_saturated_ideals(algebra)
        if j != full and b.radical(algebra, j) == j
    ]


class TestSharedSplit:
    def test_audit_splits_each_node_once(self):
        decompose = importlib.import_module("b1alg.decompose")
        algebra = b.direct_product(b.builtin("example-6-2"), b.builtin("bool-3"))
        frames = engine_frames(b.audit, algebra)
        splits = _splits(algebra)  # every step now read from the memo
        visits = [node for result in splits for node, _ in result.split_trace]
        nodes = set(visits).union(*[result.components for result in splits])
        assert len(visits) > len(set(visits))  # some node lies on several splits
        assert set(algebra._memo[decompose._split_step.__wrapped__]) == nodes
        # a miss enters _split_step itself, a hit only the memo's wrapper
        assert frames.count("_split_step") == len(nodes)

    def test_audit_rechecks_a_shared_witness(self):
        # The audit re-checks every witness it reads from the memo, so a
        # corrupted step of a node on several splits fails the law there.
        decompose = importlib.import_module("b1alg.decompose")
        algebra = b.direct_product(b.builtin("example-6-2"), b.builtin("b1"))
        visits = [node for result in _splits(algebra) for node, _ in result.split_trace]
        node = max(visits, key=visits.count)
        assert visits.count(node) > 1
        steps = algebra._memo[decompose._split_step.__wrapped__]
        steps[node] = ((0, 0), steps[node][1])
        check = next(c for c in b.audit(algebra).checks if c.name == "weak-decomposition-exact")
        assert not check.passed
        assert check.detail == f"bad split witness at {{{lbl(algebra, node)}}}"

    def test_split_step_witness_is_the_first_failing_pair(
        self, base_fleet, small_random_fleet, full_random_fleet, past_order_six, products
    ):
        # The step reads its verdict and witness off the divisor set; the
        # oracle scans the table row by row for the first u, v outside the
        # node with u*v inside.
        decompose = importlib.import_module("b1alg.decompose")
        for algebra in [
            *base_fleet.values(), *small_random_fleet, *full_random_fleet, *past_order_six,
            *[product for _, _, product in products],  # orders 7..36
        ]:
            full = b.full_mask(algebra)
            for j in b.enumerate_saturated_ideals(algebra):
                if j == full or b.radical(algebra, j) != j:
                    continue
                step = decompose._split_step(algebra, j)
                witness = oracles.prime_witness_oracle(algebra, j)
                assert (step is None) == (witness is None)
                if step is not None:
                    assert step[0] == witness


class TestRadicalDecomposition:
    def test_zero_ideal(self, ex62):
        result = b.radical_decomposition(ex62, 1)
        assert result.input == 1
        assert [lbl(ex62, c) for c in result.components] == ["0,z,x", "0,z,y"]
        assert result.intersection() == b.nilradical(ex62)

    def test_boolean_zero_ideal(self, b1):
        assert b.radical_decomposition(b1, 1).components == (1,)

    def test_already_prime_input(self, ex62):
        m = msk(ex62, "z,x")
        assert b.radical_decomposition(ex62, m).components == (m,)

    def test_matches_min_primes_after_minimalize(self, base_fleet, small_random_fleet):
        for algebra in [*base_fleet.values(), *small_random_fleet]:
            if algebra.is_trivial:
                continue
            result = b.radical_decomposition(algebra, 1)
            assert set(b.min_primes(algebra)) <= set(result.components)
            slim = b.minimalize(result)
            assert tuple(sorted(slim.components, key=lambda m: (m.bit_count(), m))) == (
                b.min_primes(algebra)
            )

    def test_radical_of_a_proper_saturated_ideal_is_proper_and_saturated(
        self, base_fleet, small_random_fleet
    ):
        # radical_decomposition splits r(I) without checking it again
        checked = 0
        for algebra in [*base_fleet.values(), *small_random_fleet]:
            full = b.full_mask(algebra)
            for m in oracles.ideals_oracle(algebra):
                if m == full or oracles.saturation_oracle(algebra, m) != m:
                    continue
                r = oracles.radical_oracle(algebra, m)
                assert r != full
                assert oracles.saturation_oracle(algebra, r) == r
                checked += 1
        assert checked == 236

    def test_minimal_primes_of_products_follow_the_factors(self, products):
        # Past order 6 the factors' brute-force oracles still decide: every
        # minimal prime of A x B is P x B or A x Q for a minimal prime P of
        # A or Q of B.
        for left, right, product in products:
            lifted = tuple(oracles.lifted_min_primes_oracle(left, right))
            assert b.min_primes(product) == lifted
            slim = b.minimalize(b.radical_decomposition(product, 1))
            assert tuple(sorted(slim.components, key=lambda m: (m.bit_count(), m))) == lifted

    def test_matches_the_weak_decomposition_of_the_radical(
        self, base_fleet, small_random_fleet
    ):
        for algebra in [*base_fleet.values(), *small_random_fleet]:
            full = b.full_mask(algebra)
            for m in b.enumerate_saturated_ideals(algebra):
                if m != full:
                    inner = b.weak_decompose(algebra, b.radical(algebra, m))
                    assert b.radical_decomposition(algebra, m) == inner._replace(input=m)


class TestMinimalize:
    def test_drops_redundant_component(self, ex62):
        inflated = DecompositionResult(
            input=msk(ex62, "z"),
            components=(msk(ex62, "z,x"), msk(ex62, "z,y"), msk(ex62, "z,x,y,u")),
            irredundant=False,
            split_trace=(),
        )
        slim = b.minimalize(inflated)
        assert slim.irredundant
        assert slim.components == (msk(ex62, "z,x"), msk(ex62, "z,y"))
        assert slim.intersection() == inflated.intersection()

    def test_singleton_unchanged(self, ex62):
        single = DecompositionResult(
            input=msk(ex62, "z,x"),
            components=(msk(ex62, "z,x"),),
            irredundant=False,
            split_trace=(),
        )
        assert b.minimalize(single).components == single.components

    def test_irredundant_pair_unchanged(self, ex62):
        pair = DecompositionResult(
            input=msk(ex62, "z"),
            components=(msk(ex62, "z,x"), msk(ex62, "z,y")),
            irredundant=False,
            split_trace=(),
        )
        assert b.minimalize(pair).components == pair.components

    def test_one_pass_keeps_the_first_of_duplicates(self, ex62):
        # The first copy of each is redundant beside the second; the second,
        # once the first is gone, is not.
        c, d = msk(ex62, "z,x"), msk(ex62, "z,y")
        twice = DecompositionResult(msk(ex62, "z"), (c, c, d, d), False, ())
        assert b.minimalize(twice).components == (c, d)


class TestLaskerian:
    def test_six_element_counterexample(self, ex62):
        report = b.laskerian_check(ex62)
        assert not report.laskerian
        assert report.witness == msk(ex62, "")
        # every saturated primary ideal contains the nilpotent z
        z = 1 << ex62.index["z"]
        assert report.saturated_primaries
        for q in report.saturated_primaries:
            assert q & z
        # without the saturation restriction a primary ideal avoids z
        assert any(not q & z for q in report.primaries)

    def test_table_entries_intersect_correctly(self, ex62):
        report = b.laskerian_check(ex62)
        table = dict(report.table)
        assert table[msk(ex62, "z")] == (msk(ex62, "z,x"), msk(ex62, "z,y"))
        for ideal, parts in report.table:
            got = b.full_mask(ex62)
            for q in parts:
                got &= q
            assert got == ideal
            for q in parts:
                assert b.is_primary(ex62, q)
                assert b.is_saturated(ex62, q)

    def test_boolean_and_chains_are_laskerian(self, b1):
        assert b.laskerian_check(b1).laskerian
        for n in range(2, 7):
            assert b.laskerian_check(b.chain_algebra(n)).laskerian

    def test_order_four_counterexample(self):
        algebra = idempotent_chain()
        report = b.laskerian_check(algebra)
        assert not report.laskerian and report.witness == 1
        assert b.audit(algebra).passed

    def test_matches_the_meet_oracle(self, base_fleet, full_random_fleet, past_order_six):
        for algebra in [
            *base_fleet.values(), *full_random_fleet, *past_order_six, idempotent_chain()
        ]:
            report = b.laskerian_check(algebra)
            assert (report.laskerian, report.witness) == oracles.laskerian_oracle(algebra)

    def test_trivial_is_laskerian(self):
        report = b.laskerian_check(b.builtin("trivial"))
        assert report.laskerian
        assert report.witness is None

    def test_table_matches_the_primary_oracles(self, base_fleet, full_random_fleet):
        for algebra in [*base_fleet.values(), *full_random_fleet, monoid_ideal_algebra()]:
            report = b.laskerian_check(algebra)
            full = b.full_mask(algebra)
            for ideal, parts in report.table:
                meet = full
                for q in parts:
                    assert oracles.saturation_oracle(algebra, q) == q
                    assert oracles.primary_oracle(algebra, q)
                    meet &= q
                assert meet == ideal
            covered = [ideal for ideal, _ in report.table]
            assert covered == oracles.laskerian_table_oracle(algebra)

    def test_a_closure_past_the_saturated_ideals_raises(self):
        # Every meet of saturated primaries is a proper saturated ideal, so
        # the closure can never hold more members than null-3's 5.  Planting
        # all 12 proper ideals as saturated primaries breaks that, and the
        # check raises instead of reporting 12 "saturated primaries".
        spectrum = importlib.import_module("b1alg.spectrum")
        algebra = null_algebra(3)
        proper = b.enumerate_ideals(algebra)[:-1]
        assert len(proper) == 12 and len(b.enumerate_saturated_ideals(algebra)) - 1 == 5
        algebra._memo[spectrum._primaries.__wrapped__] = proper
        for m in proper:
            algebra._memo.setdefault(b.is_saturated.__wrapped__, {})[m] = True
        with pytest.raises(RuntimeError, match=r"meet closure outgrew .* \(engine bug\)$"):
            b.laskerian_check(algebra)


class TestMonoidIdealAlgebra:
    # The semiring of ideals of the monoid {1, x, x**2, y, y**2, xy} with
    # x**3 = x**2, y**3 = y**2 and x**2 y = x y**2 = 0.  In it a laskerian
    # table entry is not the set of minimal saturated primaries above its
    # ideal: the entry keeps the components of the first pair of meets that
    # reached the ideal.

    @pytest.fixture(scope="class")
    def monoid_ideals(self):
        return monoid_ideal_algebra()

    @staticmethod
    def topped(algebra, label):
        """The saturated ideal whose largest member is label."""
        return oracles.saturation_oracle(algebra, 1 << algebra.index[label])

    def test_counts(self, monoid_ideals):
        assert monoid_ideals.order == 14
        assert len(oracles.ideals_oracle(monoid_ideals)) == 38
        assert len(b.enumerate_ideals(monoid_ideals)) == 38
        assert len(b.enumerate_saturated_ideals(monoid_ideals)) == 14
        assert len(oracles.saturated_primaries_oracle(monoid_ideals)) == 7
        assert len(b.laskerian_check(monoid_ideals).saturated_primaries) == 7

    def test_a_table_entry_omits_a_minimal_saturated_primary(self, monoid_ideals):
        a = monoid_ideals
        xy = msk(a, "xy")  # the image of (x) meet (y) = (xy) in k[x, y]
        x_side, y_side = self.topped(a, "x+xy+xx"), self.topped(a, "y+yy+xy")
        square = self.topped(a, "yy+xy+xx")  # the image of (x, y)**2
        table = dict(b.laskerian_check(a).table)
        assert sorted(table[xy]) == sorted([x_side, y_side])
        minimal = oracles.minimal_saturated_primaries_above(a, xy)
        assert sorted(minimal) == sorted([x_side, y_side, square])
        assert oracles.primary_oracle(a, square) and not oracles.prime_oracle(a, square)

    def test_laskerian_and_audited(self, monoid_ideals):
        assert b.laskerian_check(monoid_ideals).laskerian
        assert oracles.laskerian_oracle(monoid_ideals) == (True, None)
        assert b.audit(monoid_ideals).passed


class TestEvans:
    def test_zero_ideal(self, ex62):
        report = b.evans_report(ex62, 1)
        assert report.passed
        assert [(ex62.names[y], lbl(ex62, c)) for y, c in report.maximal_conductors] == [
            ("z", "0,z,x,y,u")
        ]

    def test_maximal_proper_ideal(self, ex62):
        m = msk(ex62, "z,x,y,u")
        report = b.evans_report(ex62, m)
        assert report.passed
        assert report.maximal_conductors == ((ex62.index["1"], m),)

    def test_boolean_zero_ideal(self, b1):
        report = b.evans_report(b1, 1)
        assert report.passed
        assert report.maximal_conductors == ((1, 1),)

    def test_rejects_bad_inputs(self, ex62):
        with pytest.raises(b.AlgebraError, match="saturated"):
            b.evans_report(ex62, msk(ex62, "x"))
        with pytest.raises(b.AlgebraError, match="proper"):
            b.evans_report(ex62, b.full_mask(ex62))

    def test_passes_with_the_maximal_conductors_of_the_table(
        self, base_fleet, full_random_fleet, past_order_six, products
    ):
        # Evans' condition holds in every finite algebra (proof in
        # evans_report's docstring).  The conductors C_y(I) = {x : x*y in I}
        # are read off the multiplication table here, not from the engine.
        algebras = [
            *base_fleet.values(), *full_random_fleet, *past_order_six,
            *[product for _, _, product in products],
            *[null_algebra(k) for k in range(1, 7)], b.builtin("bool-7"), b.chain_algebra(128),
        ]
        reports = 0
        for algebra in algebras:
            columns = list(zip(*algebra.mul))  # columns[y][x] is x*y
            for m in b.enumerate_saturated_ideals(algebra)[:-1]:
                conductors = {}  # each distinct conductor with its smallest witness y
                for y, column in enumerate(columns):
                    if not m >> y & 1:
                        c = sum([1 << x for x, xy in enumerate(column) if m >> xy & 1])
                        conductors.setdefault(c, y)
                maximal = sorted(
                    [c for c in conductors if not any(o != c and o & c == c for o in conductors)],
                    key=lambda c: (c.bit_count(), c),
                )
                report = b.evans_report(algebra, m)
                assert report.maximal_conductors == tuple([(conductors[c], c) for c in maximal])
                assert report.all_prime and report.all_saturated
                assert report.union_equals_divisor_set and report.passed
                reports += 1
        assert reports == 2_191

    def test_a_corrupted_prime_verdict_fails_the_report_and_the_audit(self):
        # Only a wrong memo can fail a report: here one maximal conductor of
        # {0}, the first proper saturated ideal, is planted as not prime.
        spectrum = importlib.import_module("b1alg.spectrum")
        algebra = b.builtin("example-6-2")
        (_, conductor), = b.evans_report(_fresh(algebra), 1).maximal_conductors
        algebra._memo[spectrum.is_prime.__wrapped__] = {conductor: False}
        report = b.evans_report(algebra, 1)
        assert not report.all_prime and report.all_saturated and report.union_equals_divisor_set
        assert not report.passed
        check = next(c for c in b.audit(algebra).checks if c.name == "evans-property")
        assert not check.passed and check.detail == "evans fails at {0}"

    def test_matches_the_table_oracle(self, base_fleet, small_random_fleet):
        checked = 0
        for algebra in [*base_fleet.values(), *small_random_fleet]:
            full = b.full_mask(algebra)
            for m in b.enumerate_saturated_ideals(algebra):
                if m != full:
                    assert b.evans_report(algebra, m) == oracles.evans_oracle(algebra, m)
                    checked += 1
        assert checked == 236


class TestAudit:
    def test_passes_on_named_algebras(self, ex62, b1, chain4):
        for algebra in (ex62, b1, chain4, b.builtin("trivial")):
            result = b.audit(algebra)
            failures = [c for c in result.checks if not c.passed]
            assert result.passed, failures

    def test_passes_on_a_product(self, ex62, b1):
        for factor in (b1, b.builtin("bool-3")):  # orders 12 and 48
            assert b.audit(b.direct_product(ex62, factor)).passed

    def test_primary_meet_failure_names_the_first_failing_pair(self, monkeypatch):
        # The check tests each distinct meet once; its detail must still name
        # the first failing pair of the nested scan over every pair.
        decompose = importlib.import_module("b1alg.decompose")
        algebra = null_algebra(3)  # one radical group of 12 primaries
        group = b.laskerian_check(algebra).primaries
        assert len({b.radical(algebra, q) for q in group}) == 1
        failing = {group[len(group) // 2], group[-1]}
        real = decompose.is_primary

        def fake(alg, mask):
            return mask not in failing and real(alg, mask)

        first = next((a, c) for a in group for c in group if a & c in failing)
        want = f"{{{lbl(algebra, first[0])}}} meet {{{lbl(algebra, first[1])}}}"
        monkeypatch.setattr(decompose, "is_primary", fake)
        check = next(
            c for c in b.audit(algebra).checks
            if c.name == "primary-intersections-stay-primary"
        )
        assert not check.passed
        assert check.detail == f"{want} is not primary for the same prime"

    def test_radical_saturation_failure_names_the_first_failing_pair(self, monkeypatch):
        # A wrong radical of one ideal breaks r(sat(i & j)) = r(sat i & sat j)
        # = r(sat i) & r(sat j); the detail names the first failing (i, j) of
        # the nested scan over every pair, or the check passes if none fails.
        decompose = importlib.import_module("b1alg.decompose")
        real = decompose.radical
        algebra = null_algebra(3)
        ideals = b.enumerate_ideals(algebra)

        def sat(m):
            return oracles.saturation_oracle(algebra, m)

        failures = 0
        for corrupted in ideals:
            wrong = oracles.radical_oracle(algebra, corrupted) ^ msk(algebra, "t")

            def rad(m):
                return wrong if m == corrupted else oracles.radical_oracle(algebra, m)

            def fake(alg, mask):
                return wrong if mask == corrupted else real(alg, mask)

            first = next(
                (
                    (i, j) for i in ideals for j in ideals
                    if not rad(sat(i & j)) == rad(sat(i) & sat(j)) == rad(sat(i)) & rad(sat(j))
                ),
                None,
            )
            monkeypatch.setattr(decompose, "radical", fake)
            detail = decompose._audit_radical_saturation_intersection(null_algebra(3))
            monkeypatch.setattr(decompose, "radical", real)
            if first is None:
                assert detail is None
            else:
                failures += 1
                i, j = (lbl(algebra, m) for m in first)
                assert detail == f"identity fails at ({{{i}}}, {{{j}}})"
        assert failures

    def test_saturation_monotone_failure_names_the_first_failing_pair(self, monkeypatch):
        # Growing the saturation of one unsaturated ideal to a larger
        # saturated ideal keeps it extensive, idempotent and an ideal, so
        # only the monotone branch fails, at the nested scan's first pair.
        decompose = importlib.import_module("b1alg.decompose")
        real = decompose.saturation
        for make in (
            lambda: b.builtin("example-6-2"),
            lambda: b.direct_product(b.builtin("example-6-2"), b.chain_algebra(2)),
        ):
            algebra = make()
            ideals = b.enumerate_ideals(algebra)
            saturated = [m for m in ideals if oracles.saturation_oracle(algebra, m) == m]
            cases = [
                (i, s) for i in ideals if i not in saturated for s in saturated
                if s != b.full_mask(algebra) and oracles.saturation_oracle(algebra, i) & ~s == 0
                and s != oracles.saturation_oracle(algebra, i)
            ]
            assert cases
            for corrupted, grown in cases:

                def sat(m):
                    return grown if m == corrupted else oracles.saturation_oracle(algebra, m)

                def fake(alg, mask):
                    return grown if mask == corrupted else real(alg, mask)

                first = next(
                    (i, j) for i in ideals for j in ideals if i & ~j == 0 and sat(i) & ~sat(j)
                )
                monkeypatch.setattr(decompose, "saturation", fake)
                check = next(
                    c for c in b.audit(make()).checks if c.name == "saturation-closure"
                )
                monkeypatch.setattr(decompose, "saturation", real)
                i, j = (lbl(algebra, m) for m in first)
                assert check.detail == f"not monotone at {{{i}}} <= {{{j}}}"

    def test_standard_fails_on_a_corrupted_divisor_set(self):
        # With 1 added to the memoized D({0}), no saturated prime (all are
        # proper) covers it, so no union of them equals it.
        spectrum = importlib.import_module("b1alg.spectrum")
        for make in (lambda: b.builtin("example-6-2"), lambda: null_algebra(3), idempotent_chain):
            algebra = make()
            wrong = oracles.divisor_set_oracle(algebra, 1) | 1 << algebra.one
            algebra._memo[spectrum.divisor_set.__wrapped__] = {1: wrong}
            primes = b.saturated_primes(algebra)
            unions = {0}
            for p in primes:
                unions |= {u | p for u in unions}
            assert wrong not in unions
            assert b.is_standard(algebra) == (False, ())
            check = next(c for c in b.audit(algebra).checks if c.name == "standard")
            assert check.detail == "zero divisors are not a union of saturated primes"

    def test_a_meet_missing_from_its_family_fails_the_meet_law(self):
        # radical-saturation-intersection looks r(sat(i & j)) and
        # r(sat i & sat j) up in the memoized families, so a family that
        # lacks a meet fails it: each saturated s is sat s & sat s for the
        # pair (s, s), and a dropped ideal is the meet of the two it came from.
        decompose = importlib.import_module("b1alg.decompose")
        mutants = 0
        for make in (lambda: b.builtin("example-6-2"), lambda: b.chain_algebra(4),
                     lambda: null_algebra(3)):
            algebra = make()
            ideals = b.enumerate_ideals(algebra)
            saturated = b.enumerate_saturated_ideals(algebra)
            meets = {i & j for i in ideals for j in ideals if i & j not in (i, j)}
            for family, dropped in [*((b.enumerate_saturated_ideals, s) for s in saturated),
                                    *((b.enumerate_ideals, m) for m in sorted(meets))]:
                fresh = make()
                fresh._memo[family.__wrapped__] = tuple([m for m in family(algebra) if m != dropped])
                assert decompose._audit_radical_saturation_intersection(fresh) is not None
                mutants += 1
        assert mutants == 25  # 16 saturated ideals, 9 ideals that are meets of two others

    def test_check_names_are_stable(self, b1):
        names = [c.name for c in b.audit(b1).checks]
        assert names == [
            "axioms",
            "natural-order",
            "saturation-closure",
            "radical-closure",
            "radical-saturation-intersection",
            "annihilators-saturated",
            "conductors-saturated",
            "bourne-zero-class",
            "generated-roundtrip",
            "maximal-saturated-are-prime",
            "minimal-primes-are-zero-divisors",
            "minimal-primes-equal-minimal-saturated",
            "associated-primes-are-annihilators",
            "primary-radical-is-prime",
            "primary-intersections-stay-primary",
            "weak-decomposition-exact",
            "radical-decomposition-matches-minimal-primes",
            "evans-property",
            "laskerian-implies-evans",
            "divisor-sets",
            "standard",
        ]


def _at(labels: str, answer):
    """Patch fn(algebra, mask) to give answer(algebra) at the mask of the
    comma-joined labels, and the real answer elsewhere."""

    def patch(real, algebra):
        target = msk(algebra, labels)
        return lambda alg, mask: answer(alg) if mask == target else real(alg, mask)

    return patch


def _split_with(**fields):
    """Patch _split to replace fields of its result, each given as a
    function of the split node."""
    return lambda real, algebra: lambda alg, node: real(alg, node)._replace(
        **{name: make(node) for name, make in fields.items()}
    )


def _ex62() -> b.Algebra:
    return b.builtin("example-6-2")


def _witness(node: str, u: str, v: str):
    """Patch _split to give every split the one trace entry (node, (u, v))
    of example-6-2, node as comma-joined labels."""
    ex62 = _ex62()
    entry = (msk(ex62, node), (ex62.index[u], ex62.index[v]))
    return _split_with(split_trace=lambda j: (entry,))


def _chain4() -> b.Algebra:
    return b.chain_algebra(4)


def _constant(value):
    return lambda real, algebra: lambda *args: value


# One row per failing branch of an audit check that no other test reaches:
# the check, a fresh algebra, the name patched in b1alg.decompose, the patch
# (given the real function and the algebra) and the detail it must yield.
_FAILING_BRANCHES = [
    ("saturation-closure", _ex62, "saturation",
     _at("0,x", lambda a: msk(a, "")), "not extensive at {0,x}"),
    ("saturation-closure", _ex62, "saturation",
     _at("0,x", lambda a: msk(a, "x,y,u")), "not idempotent at {0,x}"),
    ("saturation-closure", _ex62, "saturation",
     _at("0,x", lambda a: msk(a, "z,x,y")), "saturation of {0,x} is not an ideal"),
    ("radical-closure", _ex62, "radical",
     _at("0,x", lambda a: msk(a, "")), "radical misbehaves at {0,x}"),
    # each of the first two conditions failing alone: r misses I, r is not radical
    ("radical-closure", _ex62, "radical",
     _at("x,y,u", lambda a: msk(a, "z")), "radical misbehaves at {0,x,y,u}"),
    ("radical-closure", _ex62, "radical",
     _at("y", lambda a: msk(a, "x,y,u")), "radical misbehaves at {0,y}"),
    ("annihilators-saturated", _ex62, "is_saturated",
     _at("z,x,y,u,1", lambda a: False), "Ann(0) is not saturated"),
    ("conductors-saturated", _ex62, "is_saturated",
     _at("z,x,y,u,1", lambda a: False), "C_0({0}) not saturated"),
    ("bourne-zero-class", _ex62, "bourne_congruence",
     _at("0,x", lambda a: b.bourne_congruence(a, msk(a, "z,x,y,u"))),
     "zero class wrong for {0,x}"),
    ("generated-roundtrip", _ex62, "_generated",
     lambda real, algebra: lambda alg, elements: real(alg, elements[:-1]),
     "regenerating {0,z} changed it"),
    ("maximal-saturated-are-prime", _ex62, "saturated_primes", _constant(()),
     "{0,z,x,y,u} is maximal saturated but not prime"),
    ("minimal-primes-are-zero-divisors", _ex62, "zero_divisors",
     lambda real, algebra: lambda alg: msk(alg, "z,x,u") & ~1,
     "y in {0,z,y} is no zero divisor"),
    ("minimal-primes-are-zero-divisors", _chain4, "min_saturated_primes",
     lambda real, algebra: lambda alg: (msk(alg, "c1"),),
     "c1 in {0,c1} is no zero divisor"),
    ("minimal-primes-equal-minimal-saturated", _ex62, "min_primes", _constant(()),
     "the two minimal families differ"),
    ("associated-primes-are-annihilators", _ex62, "associated_primes",
     lambda real, algebra: lambda alg: ((1, msk(alg, "")),),
     "associated {0} is not prime"),
    ("associated-primes-are-annihilators", _chain4, "associated_primes",
     lambda real, algebra: lambda alg: ((1, 1 << alg.index["c1"]),),
     "associated {c1} is not saturated"),
    ("associated-primes-are-annihilators", _chain4, "associated_primes",
     lambda real, algebra: lambda alg: ((1, msk(alg, "c1")),),
     "associated {0,c1} is no annihilator"),
    ("primary-radical-is-prime", _ex62, "_primaries",
     lambda real, algebra: lambda alg: (msk(alg, ""),),
     "r({0}) is not prime"),
    ("weak-decomposition-exact", _ex62, "_split",
     _split_with(components=lambda node: (node,)),
     "component {0,z} of {0,z}"),
    ("weak-decomposition-exact", _ex62, "minimalize",
     lambda real, algebra: lambda result: result._replace(components=()),
     "minimalize broke {0,z}"),
    ("weak-decomposition-exact", _ex62, "_split",
     _split_with(split_trace=lambda node: ((node, (0, 0)),)),
     "bad split witness at {0,z}"),
    # each of the three conditions failing alone: u inside, v inside, uv outside
    ("weak-decomposition-exact", _ex62, "_split", _witness("x", "x", "z"),
     "bad split witness at {0,x}"),
    ("weak-decomposition-exact", _ex62, "_split", _witness("y", "z", "y"),
     "bad split witness at {0,y}"),
    ("weak-decomposition-exact", _ex62, "_split", _witness("", "x", "x"),
     "bad split witness at {0}"),
    ("radical-decomposition-matches-minimal-primes", _ex62, "radical_decomposition",
     lambda real, algebra: lambda alg, mask: real(alg, mask)._replace(
         components=real(alg, mask).components[1:]
     ),
     "a minimal prime is missing from the components"),
    ("radical-decomposition-matches-minimal-primes", _ex62, "minimalize",
     lambda real, algebra: lambda result: result._replace(components=result.components[:1]),
     "minimalized components differ from the minimal primes"),
    ("divisor-sets", _ex62, "divisor_set", _constant(0),
     "D({0}) does not contain the ideal"),
]


class TestAuditFailures:
    @pytest.mark.parametrize(
        "check, make, name, patch, detail",
        _FAILING_BRANCHES,
        ids=[f"{row[0]}: {row[-1]}" for row in _FAILING_BRANCHES],
    )
    def test_each_failing_branch_names_its_witness(
        self, monkeypatch, check, make, name, patch, detail
    ):
        decompose = importlib.import_module("b1alg.decompose")
        algebra = make()
        monkeypatch.setattr(decompose, name, patch(getattr(decompose, name), algebra))
        result = b.audit(algebra)
        assert not result.passed
        assert next(c.detail for c in result.checks if c.name == check) == detail


def _fresh(algebra: b.Algebra) -> b.Algebra:
    """An equal algebra with an empty memo."""
    return b.Algebra(algebra.names, algebra.add, algebra.mul, algebra.one)


def _planted(algebra: b.Algebra, filled: b.Algebra, fn, key, value) -> b.Algebra:
    """A fresh copy of algebra holding a copy of filled's memo, in which
    fn's entry under key, or fn's family if key is None, is value."""
    copy = _fresh(algebra)
    for f, entry in filled._memo.items():
        copy._memo[f] = dict(entry) if type(entry) is dict else entry
    if key is None:
        copy._memo[fn] = value
    else:
        copy._memo[fn][key] = value
    return copy


def _corrupted(name: str, key, value, full: int):
    """A wrong value of the shape that name's memo holds under key."""
    if name == "_split_step":  # a self-arm: the node is its own arm
        return ((0, 0) if value is None else value[0], (key, key))
    if type(value) is bool:
        return not value
    if type(value) is int:  # a mask: its complement
        return value ^ full
    if value is None:  # an ideal passes as a violation, and {0} fails Evans
        return ("does not contain zero", (0,)) if name == "ideal_violation" else 1
    if name == "ideal_violation":
        return None
    if name == "is_standard":
        return (not value[0], value[1])
    if name == "evans_report":  # the verdict flipped
        return value._replace(passed=not value.passed)
    if name == "radical_decomposition":  # the first component dropped
        return value._replace(components=value.components[1:])
    return value[1:]  # a family without its first member


def sweep_corrupted_memos() -> None:
    """Corrupt each memo entry in turn, one case per entry, and run every
    analysis on the corrupted algebra: each call must return or raise
    AlgebraError or RuntimeError.  Each case is printed before it runs, so
    that a run stopped by a time limit names the case that hung.

    The memos are filled by the same calls: the spectrum, the laskerian
    check, the Evans report and radical decomposition of every proper
    saturated ideal, and the audit.
    """
    ex62 = b.builtin("example-6-2")
    algebras = {
        "example-6-2": ex62,
        "chain-4": b.chain_algebra(4),
        "null-3": null_algebra(3),
        "example-6-2 x b1": b.direct_product(ex62, b.builtin("b1")),
    }
    swept, cases = set(), 0
    for label, algebra in algebras.items():
        full = b.full_mask(algebra)
        calls = [(b.spectrum,), (b.laskerian_check,)]
        for m in b.enumerate_saturated_ideals(algebra)[:-1]:
            calls += (b.evans_report, m), (b.radical_decomposition, m)
        calls.append((b.audit,))
        filled = _fresh(algebra)
        for call, *args in calls:
            call(filled, *args)
        for fn, entry in filled._memo.items():
            swept.add(fn.__name__)
            for key, value in entry.items() if type(entry) is dict else [(None, entry)]:
                planted = _corrupted(fn.__name__, key, value, full)
                if planted == value:
                    raise ValueError(f"{fn.__name__}[{key}] was not corrupted")
                print(f"{label}: {fn.__name__}[{key}]", flush=True)
                corrupted = _planted(algebra, filled, fn, key, planted)
                for call, *args in calls:
                    try:
                        call(corrupted, *args)
                    except RecursionError:  # the engine never recurses that deep
                        raise
                    except (b.AlgebraError, RuntimeError):
                        pass
                cases += 1
    print(f"swept {cases} entries of", *sorted(swept))


class TestPerMaskMemo:
    # Saturations, the saturated test, radicals, the ideal test, the prime
    # test, primarity, divisor sets, and the Evans and decomposition records
    # are memoized per algebra and mask.  Bourne congruences are not: each
    # is asked for once per analysis.

    def test_memoized_functions_match_the_oracles(self, small_random_fleet, past_order_six):
        rng = random.Random(10)
        for algebra in [*small_random_fleet, *past_order_six]:
            algebra = _fresh(algebra)
            n, full = algebra.order, b.full_mask(algebra)
            ideals = b.enumerate_ideals(algebra)
            stray = [rng.getrandbits(n + 3) for _ in range(20)]
            inside = [rng.getrandbits(n) | 1 for _ in range(20)]
            for m in [*ideals, *stray, *inside]:
                # the classifying tests refuse a mask with a stray bit
                classified = (
                    (out_of_range_refusal(algebra, m),) * 3 if m >> n else (
                        oracles.prime_oracle(algebra, m),
                        oracles.primary_oracle(algebra, m),
                        oracles.divisor_set_oracle(algebra, m),
                    )
                )
                expected = (
                    oracles.saturation_oracle(algebra, m & full),
                    oracles.radical_oracle(algebra, m),
                    oracles.ideal_violation_oracle(algebra, m),
                    *classified,
                    [oracles.conductor_oracle(algebra, x, m) for x in range(n)],
                )
                for _ in range(2):  # computed, then read from the memo
                    assert (
                        b.saturation(algebra, m),
                        b.radical(algebra, m),
                        b.ideal_violation(algebra, m),
                        answer(b.is_prime, algebra, m),
                        answer(b.is_primary, algebra, m),
                        answer(b.divisor_set, algebra, m),
                        [b.conductor(algebra, x, m) for x in range(n)],
                    ) == expected
            for m in ideals:
                expected = oracles.bourne_classes_oracle(algebra, m)
                for _ in range(2):
                    assert b.bourne_congruence(algebra, m) == expected

    def test_audit_is_unchanged_by_a_filled_memo(self, small_random_fleet, past_order_six):
        for algebra in [*small_random_fleet, *past_order_six]:
            filled = _fresh(algebra)
            full = b.full_mask(filled)
            reports = [
                b.evans_report(filled, m)
                for m in b.enumerate_saturated_ideals(filled)
                if m != full
            ]
            if not filled.is_trivial:
                first = b.radical_decomposition(filled, 1)
                assert b.radical_decomposition(filled, 1) is first
            for r in reports:
                assert b.evans_report(filled, r.ideal) is r
            assert b.audit(filled).checks == b.audit(_fresh(algebra)).checks

    def test_a_corrupted_memo_never_crashes_the_audit(self):
        # One wrong prime verdict, divisor set or radical, planted after the
        # spectrum and the radicals fill the memo, must fail a law or stop a
        # split with RuntimeError: never another error, and never a split
        # that walks in a circle because an arm does not hold its node.
        # Each int entry is replaced by its complement and by the far end
        # of the lattice ({0}, or the whole algebra for {0}).
        ex62 = b.builtin("example-6-2")
        for algebra in (
            ex62, b.chain_algebra(4), null_algebra(3), b.direct_product(ex62, b.builtin("b1"))
        ):
            filled = _fresh(algebra)
            b.spectrum(filled)
            full = b.full_mask(filled)
            for m in b.enumerate_ideals(filled):
                b.radical(filled, m)
            for fn in (b.is_prime, b.divisor_set, b.radical):
                for mask, value in filled._memo[fn.__wrapped__].items():
                    wrong = (
                        [not value] if type(value) is bool
                        else [value ^ full, full if value == 1 else 1]
                    )
                    for planted in wrong:
                        corrupted = _planted(algebra, filled, fn.__wrapped__, mask, planted)
                        try:
                            assert type(b.audit(corrupted)) is b.AuditResult
                        except RuntimeError:
                            pass

    def test_no_corrupted_memo_entry_hangs_an_analysis(self):
        # Every walk checks its own variant, so no single wrong entry of any
        # memo, a split step that names its node as its own arm included,
        # can make an analysis walk for ever.  One child runs the whole
        # sweep under a time limit, and a hang names its case.  A walk that
        # never ends grows its stack by some 150 MB a second, so the child
        # may map at most 1 GiB, and a runaway fails as a MemoryError.
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p
        )
        sweep = (
            "import resource, test_decompose; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "test_decompose.sweep_corrupted_memos()"
        )
        try:
            out = subprocess.run(
                [sys.executable, "-c", sweep],
                env=env, capture_output=True, text=True, timeout=20,
            )
        except subprocess.TimeoutExpired as exc:
            hung = (exc.stdout or b"").decode().splitlines()[-1:]
            pytest.fail(f"the sweep hung at {hung}")
        assert out.returncode == 0, (out.stdout.splitlines()[-1:], out.stderr[-2000:])
        memoized = set()
        for path in (tests.parent / "src" / "b1alg").glob("*.py"):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.FunctionDef) and {
                    getattr(d, "id", None) for d in node.decorator_list
                } & {"_per_algebra", "_per_mask"}:
                    memoized.add(node.name)
        last = out.stdout.splitlines()[-1].split()
        assert last[:2] == ["swept", "390"] and set(last[4:]) == memoized

    def test_refusals_are_not_memoized(self, ex62):
        algebra = _fresh(ex62)
        for analyse in (b.evans_report, b.radical_decomposition):
            for _ in range(2):
                with pytest.raises(b.AlgebraError, match="not saturated"):
                    analyse(algebra, msk(algebra, "x"))

    def test_memoized_functions_keep_their_names(self):
        for fn in (
            b.saturation, b.is_saturated, b.radical, b.ideal_violation,
            b.is_prime, b.is_primary, b.divisor_set, b.evans_report,
            b.radical_decomposition,
        ):
            assert fn.__name__ == fn.__wrapped__.__name__
