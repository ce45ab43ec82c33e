from __future__ import annotations

import gc
import importlib
import os
import re
import weakref
from types import SimpleNamespace

import pytest

import b1alg as b
import b1alg.ideals as ideals_module
import oracles
from support import engine_frames, lbl, msk, null_algebra


def out_of_range(bit: int) -> str:
    """The refusal text of a mask whose lowest stray bit is bit."""
    return re.escape(f"the set contains an out-of-range element (witness: bit {bit})")


class TestGeneratedIdeal:
    def test_frozen_examples(self, ex62):
        assert b.generated_ideal(ex62, [ex62.index["x"]]) == msk(ex62, "x")
        assert b.generated_ideal(ex62, []) == msk(ex62, "")
        assert b.generated_ideal(ex62, [ex62.index["u"]]) == msk(ex62, "x,y,u")

    def test_matches_naive_closure_oracle(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet[:10]]:
            for a in algebra.elements():
                for c in algebra.elements():
                    got = b.generated_ideal(algebra, (a, c))
                    assert got == oracles.generated_oracle(algebra, (a, c))

    def test_roundtrip_on_every_ideal(self, ex62, chain4):
        for algebra in (ex62, chain4):
            for m in b.enumerate_ideals(algebra):
                assert b.generated_ideal(algebra, b.bits(m)) == m


class TestSaturation:
    def test_frozen_examples(self, ex62):
        assert b.saturation(ex62, msk(ex62, "x")) == msk(ex62, "z,x")
        assert b.saturation(ex62, msk(ex62, "")) == msk(ex62, "")
        assert b.saturation(ex62, msk(ex62, "x,y,u")) == msk(ex62, "z,x,y,u")

    def test_is_saturated(self, ex62):
        assert b.is_saturated(ex62, msk(ex62, "z,x"))
        assert not b.is_saturated(ex62, msk(ex62, "x"))
        assert b.is_saturated(ex62, msk(ex62, ""))

    def test_closure_operator_laws(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, b.builtin("bool-5"), *small_random_fleet[:10]]:
            ideals = b.enumerate_ideals(algebra)
            for i in ideals:
                s = b.saturation(algebra, i)
                assert i & ~s == 0
                assert b.saturation(algebra, s) == s
                assert b.is_ideal(algebra, s)
                assert s == oracles.saturation_oracle(algebra, i)
                for j in ideals:
                    if i & ~j == 0:
                        assert s & ~b.saturation(algebra, j) == 0

    def test_bits_past_the_order_are_ignored(self):
        # saturation, radical and conductor read only the algebra's own bits;
        # a mask with a stray bit is therefore never saturated.
        algebra = b.builtin("bool-2")
        stray = 1 << algebra.order
        assert b.saturation(algebra, 1 | stray) == b.saturation(algebra, 1) == 1
        assert not b.is_saturated(algebra, 1 | stray)
        assert b.radical(algebra, 1 | stray) == b.radical(algebra, 1) == 1
        for x in algebra.elements():
            assert b.conductor(algebra, x, 1 | stray) == b.conductor(algebra, x, 1)


class TestRadical:
    def test_frozen_examples(self, ex62):
        assert b.radical(ex62, msk(ex62, "")) == msk(ex62, "z")
        assert b.radical(ex62, b.full_mask(ex62)) == b.full_mask(ex62)
        assert b.radical(ex62, msk(ex62, "x,y,u")) == msk(ex62, "z,x,y,u")

    def test_closure_laws_and_oracle(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, b.builtin("bool-5"), *small_random_fleet[:10]]:
            for i in b.enumerate_ideals(algebra):
                r = b.radical(algebra, i)
                assert i & ~r == 0
                assert b.radical(algebra, r) == r
                assert b.is_ideal(algebra, r)
                assert r == oracles.radical_oracle(algebra, i)

    def test_saturation_radical_intersection_identity(self, ex62, chain4):
        for algebra in (ex62, chain4):
            ideals = b.enumerate_ideals(algebra)
            for i in ideals:
                for j in ideals:
                    lhs = b.radical(algebra, b.saturation(algebra, i & j))
                    mid = b.radical(
                        algebra, b.saturation(algebra, i) & b.saturation(algebra, j)
                    )
                    rhs = b.radical(algebra, b.saturation(algebra, i)) & b.radical(
                        algebra, b.saturation(algebra, j)
                    )
                    assert lhs == mid == rhs


class TestIdealArithmetic:
    def test_frozen_examples(self, ex62):
        assert b.ideal_intersect(ex62, msk(ex62, "z,x"), msk(ex62, "z,y")) == msk(ex62, "z")
        for m in b.enumerate_ideals(ex62):
            assert b.ideal_sum(ex62, m, 1) == m
        assert b.ideal_product(ex62, msk(ex62, "z,x"), msk(ex62, "z,y")) == msk(ex62, "")

    def test_sum_is_join(self, ex62):
        ideals = b.enumerate_ideals(ex62)
        for i in ideals:
            for j in ideals:
                s = b.ideal_sum(ex62, i, j)
                assert b.is_ideal(ex62, s)
                assert i & ~s == 0 and j & ~s == 0
                # smallest ideal containing both
                for k in ideals:
                    if i & ~k == 0 and j & ~k == 0:
                        assert s & ~k == 0

    def test_product_inside_intersection(self, ex62, chain4):
        for algebra in (ex62, chain4):
            ideals = b.enumerate_ideals(algebra)
            for i in ideals:
                for j in ideals:
                    p = b.ideal_product(algebra, i, j)
                    assert b.is_ideal(algebra, p)
                    assert p & ~(i & j) == 0

    # A bit at or past the order is refused, naming the lowest such bit as
    # bourne_congruence does, never with a bare IndexError or a mask that
    # reaches past the algebra.
    def test_sum_refuses_an_out_of_range_bit(self, ex62):
        for left, right, stray in ((1 << 7, 1, 7), (1, 1 << 9 | 1 << 6, 6)):
            with pytest.raises(b.AlgebraError, match=out_of_range(stray)):
                b.ideal_sum(ex62, left, right)

    def test_product_refuses_an_out_of_range_bit(self, ex62):
        for left, right, stray in ((1 << 7 | 1, 3, 7), (3, 1 << 8 | 1, 8)):
            with pytest.raises(b.AlgebraError, match=out_of_range(stray)):
                b.ideal_product(ex62, left, right)

    def test_intersect_refuses_an_out_of_range_bit(self, ex62):
        for left, right, stray in ((1 << 9, 1 << 9, 9), (1, 1 << 6 | 1, 6)):
            with pytest.raises(b.AlgebraError, match=out_of_range(stray)):
                b.ideal_intersect(ex62, left, right)


class TestAnnihilatorsAndConductors:
    def test_annihilator_frozen(self, ex62):
        assert b.annihilator(ex62, ex62.index["x"]) == msk(ex62, "z,y")
        assert b.annihilator(ex62, 0) == b.full_mask(ex62)
        assert b.annihilator(ex62, ex62.index["z"]) == msk(ex62, "z,x,y,u")

    def test_annihilator_set(self, ex62):
        assert b.annihilator_set(ex62, []) == b.full_mask(ex62)
        got = b.annihilator_set(ex62, [ex62.index["x"], ex62.index["y"]])
        assert got == msk(ex62, "z")

    def test_element_indices_are_range_checked(self, ex62):
        for index in (ex62.order, -1):
            for call in (
                lambda: b.annihilator(ex62, index),
                lambda: b.annihilator_set(ex62, [0, index]),
                lambda: b.conductor(ex62, index, 1),
                lambda: b.generated_ideal(ex62, [index]),
            ):
                with pytest.raises(b.AlgebraError, match=f"element index {index} is out of"):
                    call()

    def test_annihilators_saturated(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet[:10]]:
            for s in algebra.elements():
                assert b.is_saturated(algebra, b.annihilator(algebra, s))

    def test_conductor_frozen(self, ex62):
        x, u = ex62.index["x"], ex62.index["u"]
        assert b.conductor(ex62, x, msk(ex62, "")) == msk(ex62, "z,y")
        for m in b.enumerate_ideals(ex62):
            assert b.conductor(ex62, 0, m) == b.full_mask(ex62)
        assert b.conductor(ex62, u, msk(ex62, "z,x")) == msk(ex62, "z,x")

    def test_conductor_family_matches_row_scan_oracle(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            for x in algebra.elements():
                assert b.annihilator(algebra, x) == oracles.conductor_oracle(algebra, x, 1)
            for j in b.enumerate_ideals(algebra):
                divisors = 0
                for x in algebra.elements():
                    want = oracles.conductor_oracle(algebra, x, j)
                    assert b.conductor(algebra, x, j) == want
                    if want & ~j:
                        divisors |= 1 << x
                assert b.divisor_set(algebra, j) == divisors

    def test_conductor_of_zero_ideal_is_annihilator(self, ex62):
        for x in ex62.elements():
            assert b.conductor(ex62, x, 1) == b.annihilator(ex62, x)

    def test_conductor_saturated_when_ideal_is(self, ex62, chain4):
        for algebra in (ex62, chain4):
            for j in b.enumerate_saturated_ideals(algebra):
                for x in algebra.elements():
                    assert b.is_saturated(algebra, b.conductor(algebra, x, j))


class TestEnumeration:
    def test_counts(self, ex62, b1):
        assert len(b.enumerate_ideals(ex62)) == 9
        assert len(b.enumerate_ideals(b1)) == 2

    def test_saturated_list_exact(self, ex62):
        got = [lbl(ex62, m) for m in b.enumerate_saturated_ideals(ex62)]
        assert got == ["0", "0,z", "0,z,x", "0,z,y", "0,z,x,y,u", "0,z,x,y,u,1"]

    def test_canonical_order(self, ex62, chain4):
        for algebra in (ex62, chain4):
            masks = b.enumerate_ideals(algebra)
            assert list(masks) == sorted(masks, key=lambda m: (m.bit_count(), m))

    def test_matches_subset_scan_oracle(self, ex62, chain4, b1, small_random_fleet):
        for algebra in [ex62, chain4, b1, b.builtin("bool-4"), *small_random_fleet[:10]]:
            assert frozenset(b.enumerate_ideals(algebra)) == oracles.ideals_oracle(algebra)

    def test_cache_does_not_keep_algebras_alive(self):
        a = b.chain_algebra(10)
        first = b.enumerate_ideals(a)
        assert b.enumerate_ideals(a) is first  # computed once per instance
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None

    def test_bound_refusal(self, monkeypatch):
        # null-20 has 2**20 + 22 ideals; the search stops once it passes 4096
        big = null_algebra(20)
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "4096")
        with pytest.raises(b.EnumerationBoundError, match="bound 4096"):
            b.enumerate_ideals(big)
        # element-wise operations need no enumeration: every non-unit is nilpotent
        assert b.nilradical(big) == b.full_mask(big) ^ 1 << big.one

    def test_bound_holds_for_every_memoized_family(self, monkeypatch):
        algebra = b.builtin("example-6-2")  # fresh instance, empty memo
        b.spectrum(algebra)
        b.audit(algebra)
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "4")
        for family in (
            b.primes,
            b.saturated_primes,
            b.enumerate_saturated_ideals,
            b.associated_primes,
            b.min_primes,
            b.min_saturated_primes,
            b.max_saturated,
            b.is_standard,
            b.spectrum,
            b.laskerian_check,
            b.audit,
        ):
            with pytest.raises(b.EnumerationBoundError, match="bound 4"):
                family(algebra)

    def test_one_environment_read_per_public_call(self, monkeypatch):
        # A public call reads B1ALG_ENUM_BOUND once on entry; the families
        # it asks for inside use that value.
        reads = []

        class CountingEnviron:
            def get(self, key, default=None):
                reads.append(key)
                return os.environ.get(key, default)

        monkeypatch.setattr(ideals_module, "os", SimpleNamespace(environ=CountingEnviron()))
        for call in (
            b.spectrum, b.audit, b.laskerian_check, b.enumerate_ideals, b.primes,
            b.min_primes, b.is_standard, b.associated_primes,
        ):
            for algebra in (b.builtin("example-6-2"), null_algebra(3)):
                for _ in range(2):  # computed, then read from the memo
                    reads.clear()
                    call(algebra)
                    assert reads == ["B1ALG_ENUM_BOUND"], call.__name__

    def test_a_family_memo_hit_reads_only_the_memo(self, monkeypatch):
        algebra = b.builtin("example-6-2")  # fresh instance, empty memo
        b.spectrum(algebra)
        calls = []

        def counting(alg):
            calls.append(alg)
            return ()

        spectrum_module = importlib.import_module("b1alg.spectrum")
        for module in (ideals_module, spectrum_module):
            monkeypatch.setattr(module, "enumerate_ideals", counting)
        for family in (
            b.primes, b.saturated_primes, b.enumerate_saturated_ideals, b.min_primes,
            b.max_saturated, b.associated_primes, b.is_standard, b.spectrum,
        ):
            family(algebra)
        assert calls == []

    def test_a_memo_hit_is_one_frame(self):
        # One wrapper body answers a hit: for a family, it holds the bound,
        # compares the memoized ideal count and reads the memo.  The record
        # class's own __new__ is not b1alg code, so it is not counted.
        algebra = b.builtin("example-6-2")  # fresh instance, empty memo
        full = b.full_mask(algebra)
        b.spectrum(algebra)
        b.saturation(algebra, 1)
        b.is_prime(algebra, 1)
        b.evans_report(algebra, 1)
        token = ideals_module._call_bound.set(ideals_module.enumeration_bound())
        try:  # nested: a public call in progress already holds the bound
            nested = [engine_frames(family, algebra) for family in (b.primes, b.max_saturated)]
        finally:
            ideals_module._call_bound.reset(token)
        assert nested == [["call"], ["call"]]
        assert engine_frames(b.saturation, algebra, 1) == ["once"]
        assert engine_frames(b.is_saturated, algebra, full) == ["once"]
        assert engine_frames(b.is_prime, algebra, 1) == ["once"]
        assert engine_frames(b.evans_report, algebra, 1) == ["once"]

    def test_bound_env_override(self, ex62, monkeypatch):
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "4")
        with pytest.raises(b.EnumerationBoundError, match="bound 4"):
            b.enumerate_ideals(ex62)
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "garbage")
        for call in (b.enumerate_ideals, b.primes, b.spectrum, b.laskerian_check, b.audit):
            with pytest.raises(b.AlgebraError, match="integer"):
                call(ex62)

    def test_null_algebra_counts(self):
        for k in range(11):
            algebra = null_algebra(k)
            ideals = b.enumerate_ideals(algebra)
            assert len(ideals) == 2**k + k + 2
            if k <= 4:
                assert frozenset(ideals) == oracles.ideals_oracle(algebra)

    def test_counts_past_order_20(self):
        for n in (21, 24, 64):
            assert len(b.enumerate_ideals(b.chain_algebra(n))) == n
        bool5 = b.builtin("bool-5")
        assert len(b.enumerate_ideals(bool5)) == 32
        assert b.audit(bool5).passed

    def test_ideal_violation_messages(self, ex62):
        assert b.ideal_violation(ex62, msk(ex62, "z,x")) is None
        what, witness = b.ideal_violation(ex62, msk(ex62, "x,y"))
        assert what == "is not closed under addition"
        assert witness == (ex62.index["x"], ex62.index["y"])
        what, witness = b.ideal_violation(ex62, msk(ex62, "z,1"))
        assert what == "is not closed under multiplication by the algebra"
        no_zero = msk(ex62, "z") & ~1
        assert b.ideal_violation(ex62, no_zero) == ("does not contain zero", (0,))


class TestBourneAndQuotients:
    def test_congruence_frozen_examples(self, ex62):
        cong = b.bourne_congruence(ex62, msk(ex62, "z"))
        assert cong.order == 5
        assert cong.zero_class() == msk(ex62, "z")

        discrete = b.bourne_congruence(ex62, 1)
        assert discrete.order == ex62.order
        assert all(c.bit_count() == 1 for c in discrete.classes)

        big = b.bourne_congruence(ex62, msk(ex62, "z,x,y,u"))
        assert big.order == 2
        assert big.zero_class() == msk(ex62, "z,x,y,u")

    def test_zero_class_is_saturation(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet[:10]]:
            for i in b.enumerate_ideals(algebra):
                cong = b.bourne_congruence(algebra, i)
                assert cong.zero_class() == b.saturation(algebra, i)
                assert b.congruence_violation(algebra, cong.class_of) is None

    def test_classes_match_naive_pairwise_relation(
        self, ex62, chain4, small_random_fleet, past_order_six
    ):
        # The engine groups x by x + t for the join t of the ideal; the
        # oracle and the pair loop here try every member as a witness.
        for algebra in [ex62, chain4, *small_random_fleet[:10], *past_order_six]:
            for i in b.enumerate_ideals(algebra):
                cong = b.bourne_congruence(algebra, i)
                assert cong == oracles.bourne_classes_oracle(algebra, i)
                witnesses = list(b.bits(i))
                for x in algebra.elements():
                    for y in algebra.elements():
                        related = any(
                            algebra.add[x][w] == algebra.add[y][w] for w in witnesses
                        )
                        assert related == (cong.class_of[x] == cong.class_of[y])

    def test_refuses_a_set_without_its_join(self, ex62):
        # x + y = u, so {0, x, y} is no ideal and has no single witness
        with pytest.raises(b.AlgebraError, match=r"join of its members \(witness: u\)"):
            b.bourne_congruence(ex62, msk(ex62, "x,y"))
        with pytest.raises(b.AlgebraError, match="out-of-range element"):
            b.bourne_congruence(ex62, 1 | 1 << ex62.order)

    def test_congruence_violation_detects_bad_partition(self, ex62):
        # merge 0 with x only: adding y separates them
        class_of = (0, 1, 0, 2, 3, 4)
        bad = b.congruence_violation(ex62, class_of)
        assert bad is not None
        assert bad[0] in ("addition not compatible", "multiplication not compatible")

    def test_quotient_by_big_ideal_is_boolean(self, ex62, b1):
        qmap = b.quotient(ex62, b.bourne_congruence(ex62, msk(ex62, "z,x,y,u")))
        assert qmap.target.order == 2
        assert qmap.target.add == b1.add
        assert qmap.target.mul == b1.mul
        assert qmap.target.names == ("[0]", "[1]")

    def test_quotient_by_discrete_is_isomorphic_copy(self, ex62):
        qmap = b.quotient(ex62, b.bourne_congruence(ex62, 1))
        assert qmap.target.add == ex62.add
        assert qmap.target.mul == ex62.mul

    def test_quotient_by_small_ideal_has_order_five(self, ex62):
        qmap = b.quotient(ex62, b.bourne_congruence(ex62, msk(ex62, "z")))
        assert qmap.target.order == 5

    def test_preimages(self, ex62):
        qmap = b.quotient(ex62, b.bourne_congruence(ex62, msk(ex62, "z,x,y,u")))
        assert b.preimage_ideal(qmap, 1) == msk(ex62, "z,x,y,u")
        assert b.preimage_ideal(qmap, b.full_mask(qmap.target)) == b.full_mask(ex62)

        qmap5 = b.quotient(ex62, b.bourne_congruence(ex62, msk(ex62, "z")))
        image = b.mask_of(qmap5.projection[e] for e in b.bits(msk(ex62, "z,x")))
        assert b.preimage_ideal(qmap5, image) == msk(ex62, "z,x")

    def test_preimage_requires_ideal(self, ex62):
        qmap = b.quotient(ex62, b.bourne_congruence(ex62, 1))
        not_ideal = 1 << qmap.target.order - 1  # missing zero
        with pytest.raises(b.AlgebraError):
            b.preimage_ideal(qmap, not_ideal)

    def test_projection_is_homomorphism(self, ex62, chain4):
        for algebra in (ex62, chain4):
            for i in b.enumerate_ideals(algebra):
                qmap = b.quotient(algebra, b.bourne_congruence(algebra, i))
                pi = qmap.projection
                t = qmap.target
                assert pi[0] == 0
                assert pi[algebra.one] == t.one
                for a in algebra.elements():
                    for c in algebra.elements():
                        assert pi[algebra.add[a][c]] == t.add[pi[a]][pi[c]]
                        assert pi[algebra.mul[a][c]] == t.mul[pi[a]][pi[c]]
