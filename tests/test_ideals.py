from __future__ import annotations

import gc
import importlib
import inspect
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import b1alg as b
import b1alg.ideals as ideals_module
import oracles
from b1alg.cli import main, serialize_algebra
from support import (
    answer,
    engine_frames,
    idempotent_chain,
    inputs,
    lbl,
    msk,
    monoid_ideal_algebra,
    null_algebra,
    refuses_out_of_range_masks,
)


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
                    products = {algebra.mul[x][y] for x in b.bits(i) for y in b.bits(j)}
                    assert p == oracles.generated_oracle(algebra, products)

    def test_operations_refuse_a_non_ideal_with_its_witness(self, ex62):
        # {0, u} holds its sums but not x*u = x; a join of it would be no ideal.
        refusal = re.escape(
            "the set is not closed under multiplication by the algebra (witness: x, u)"
        )
        not_ideal, ideal = msk(ex62, "u"), msk(ex62, "z")
        for operation in (b.ideal_sum, b.ideal_product, b.ideal_intersect):
            for left, right in ((not_ideal, ideal), (ideal, not_ideal)):
                with pytest.raises(b.AlgebraError, match=refusal):
                    operation(ex62, left, right)

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

    def test_labels_refuse_an_out_of_range_mask(self, ex62):
        refuses_out_of_range_masks(b.member_labels, ex62)


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
        # The bound is read where the ideals are enumerated: each family that
        # lists every ideal refuses a fresh instance, and an instance whose
        # ideals were enumerated before the bound was lowered answers from
        # its memo.  Refusals are not memoized: once the bound is raised, the
        # refused instance enumerates and answers.  The saturated families
        # are read off the natural order, so they answer under any bound.
        known = b.builtin("example-6-2")
        b.enumerate_ideals(known)
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "4")
        for family in (
            b.enumerate_saturated_ideals,
            b.saturated_primes,
            b.associated_primes,
            b.min_saturated_primes,
            b.max_saturated,
            b.is_standard,
        ):
            assert family(b.builtin("example-6-2")) == family(known), family.__name__
        refused = []
        for family in (
            b.enumerate_ideals,
            b.primes,
            b.min_primes,
            b.spectrum,
            b.laskerian_check,
            b.audit,
        ):
            algebra = b.builtin("example-6-2")
            with pytest.raises(b.EnumerationBoundError, match="bound 4"):
                family(algebra)
            refused.append((family, algebra))
            family(known)
        assert b.audit(known).passed
        monkeypatch.delenv("B1ALG_ENUM_BOUND")
        for family, algebra in refused:
            assert family(algebra) == family(known), family.__name__

    def test_one_environment_read_per_instance(self, monkeypatch):
        # The first call on a fresh algebra that enumerates the ideals reads
        # B1ALG_ENUM_BOUND once; every later call, of any family, reads the
        # memo and not the environment.  The saturated families never
        # enumerate, so they read it zero times.
        reads = []

        class CountingEnviron:
            def get(self, key, default=None):
                reads.append(key)
                return os.environ.get(key, default)

        monkeypatch.setattr(ideals_module, "os", SimpleNamespace(environ=CountingEnviron()))
        saturated = (b.is_standard, b.associated_primes)
        enumerating = (
            b.spectrum, b.audit, b.laskerian_check, b.enumerate_ideals, b.primes, b.min_primes,
        )
        for first in enumerating:
            for algebra in (b.builtin("example-6-2"), null_algebra(3)):
                for call in saturated:
                    reads.clear()
                    call(algebra)
                    assert reads == [], call.__name__
                reads.clear()
                first(algebra)
                assert reads == ["B1ALG_ENUM_BOUND"], first.__name__
                for call in (*saturated, *enumerating):
                    reads.clear()
                    call(algebra)
                    assert reads == [], (first.__name__, call.__name__)

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
        # One wrapper body answers a hit by reading the memo.  The record
        # class's own __new__ is not b1alg code, so it is not counted.
        algebra = b.builtin("example-6-2")  # fresh instance, empty memo
        full = b.full_mask(algebra)
        b.spectrum(algebra)
        b.saturation(algebra, 1)
        b.is_saturated(algebra, full)
        b.is_prime(algebra, 1)
        b.evans_report(algebra, 1)
        for family in (b.enumerate_ideals, b.primes, b.max_saturated):
            assert engine_frames(family, algebra) == ["once"]
        assert engine_frames(b.saturation, algebra, 1) == ["once"]
        assert engine_frames(b.is_saturated, algebra, full) == ["once"]
        assert engine_frames(b.is_prime, algebra, 1) == ["once"]
        assert engine_frames(b.evans_report, algebra, 1) == ["once"]

    def test_bound_env_override(self, monkeypatch):
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "4")
        with pytest.raises(b.EnumerationBoundError, match="bound 4"):
            b.enumerate_ideals(b.builtin("example-6-2"))
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "garbage")
        for call in (b.enumerate_ideals, b.primes, b.spectrum, b.laskerian_check, b.audit):
            with pytest.raises(b.AlgebraError, match="integer"):
                call(b.builtin("example-6-2"))

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


class TestSaturatedIdeals:
    # The saturated ideals are the sets down(t) = {a : a + t = t} with T*t = t,
    # for T the sum of all elements; no ideal is enumerated to find them.

    def test_closed_form_matches_the_oracle_filter(self, base_fleet, full_random_fleet):
        # The oracle scans every subset and keeps the ideals that its own
        # down-set saturation fixes, then the primes among them.
        algebras = [
            *base_fleet.values(), *full_random_fleet, monoid_ideal_algebra(), idempotent_chain(),
            *[null_algebra(k) for k in range(1, 11)],
        ]
        for algebra in algebras:
            saturated = sorted(
                [m for m in oracles.ideals_oracle(algebra)
                 if oracles.saturation_oracle(algebra, m) == m],
                key=lambda m: (m.bit_count(), m),
            )
            assert b.enumerate_saturated_ideals(algebra) == tuple(saturated), algebra.names
            primes = [m for m in saturated if oracles.prime_oracle(algebra, m)]
            assert b.saturated_primes(algebra) == tuple(primes), algebra.names

    def test_every_ideal_of_a_chain_is_saturated(self):
        # A chain's ideals are its down-sets {0..k-1}, and every proper one is prime.
        for n in (2, 3, 5, 24, 64, 128):
            chain = b.chain_algebra(n)
            down_sets = tuple([(1 << k) - 1 for k in range(1, n + 1)])
            assert b.enumerate_saturated_ideals(chain) == down_sets == b.enumerate_ideals(chain)
            assert b.saturated_primes(chain) == down_sets[:-1]

    def test_the_saturated_families_never_enumerate(self, monkeypatch, tmp_path, capsys):
        # Past the bound too: null-20 has 2**20 + 22 ideals and 23 saturated ones.
        paths = []
        for algebra in (b.builtin("example-6-2"), null_algebra(20)):
            paths.append(tmp_path / f"order-{algebra.order}.b1a")
            paths[-1].write_text(serialize_algebra(algebra), encoding="utf-8")
        commands = (["ideals", "--saturated"], ["assoc"], ["evans"])
        reports = []
        for command in commands:
            assert main([command[0], str(paths[0]), *command[1:]]) == 0
            reports.append(capsys.readouterr())
        known = b.builtin("example-6-2")
        families = (
            b.enumerate_saturated_ideals, b.saturated_primes, b.min_saturated_primes,
            b.max_saturated, b.is_standard, b.associated_primes,
            importlib.import_module("b1alg.decompose")._evans_failure,
        )
        answers = [family(known) for family in families]

        def refuse(algebra):
            raise RuntimeError("enumerate_ideals was called")

        # b1alg.spectrum is the function, so each module is imported by name
        for module in ("ideals", "spectrum", "decompose", "cli"):
            module = importlib.import_module(f"b1alg.{module}")
            monkeypatch.setattr(module, "enumerate_ideals", refuse)
        for command, report in zip(commands, reports):
            assert main([command[0], str(paths[0]), *command[1:]]) == 0
            assert capsys.readouterr() == report
            assert main([command[0], str(paths[1]), *command[1:]]) == 0, command
            assert capsys.readouterr().err == ""
        for family, want in zip(families, answers):
            assert family(b.builtin("example-6-2")) == want, family.__name__
            family(null_algebra(20))
        assert len(b.enumerate_saturated_ideals(null_algebra(20))) == 23
        with pytest.raises(RuntimeError, match="enumerate_ideals was called"):
            b.primes(b.builtin("example-6-2"))


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
        # Every Bourne partition of an ideal is a congruence, which is why
        # quotient never checks one; the oracle finds the first incompatible
        # triple of a forged partition.
        for algebra in [ex62, chain4, *small_random_fleet[:10]]:
            for i in b.enumerate_ideals(algebra):
                cong = b.bourne_congruence(algebra, i)
                assert cong.zero_class() == b.saturation(algebra, i)
                violation = oracles.congruence_violation_oracle(algebra.add, algebra.mul, cong.class_of)
                assert violation is None

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
        # The oracle the Bourne partitions are checked against finds the
        # first incompatible triple of a forged partition.
        z, x, y, one = (ex62.index[name] for name in ("z", "x", "y", "1"))
        # 0 ~ x alone: 0 + z = z and x + z = x fall in different classes.
        assert oracles.congruence_violation_oracle(ex62.add, ex62.mul, (0, 1, 0, 2, 3, 4)) == (
            "add", (0, x, z)
        )
        # z ~ x alone: z*x = 0 and x*x = x fall in different classes.
        assert oracles.congruence_violation_oracle(ex62.add, ex62.mul, (0, 1, 1, 2, 3, 4)) == (
            "mul", (z, x, x)
        )
        # y ~ 1 alone: y*z = 0 and 1*z = z fall in different classes.
        assert oracles.congruence_violation_oracle(ex62.add, ex62.mul, (0, 1, 2, 3, 4, 3)) == (
            "mul", (y, one, z)
        )

    def test_quotient_refuses_an_incompatible_partition(self, ex62):
        # quotient takes an ideal, never a partition: a Congruence record, be
        # it forged (incompatible, of the wrong length, misnumbered) or the
        # Bourne congruence itself, is refused as a mask that is no int.
        forged = (
            b.Congruence((0, 1, 1, 1, 1, 1), (1, 62)),
            b.Congruence((0, 0), (3,)),
            b.Congruence((1, 0, 0, 0, 0, 0), ()),
            b.bourne_congruence(ex62, msk(ex62, "z")),
        )
        for congruence in forged:
            with pytest.raises(b.AlgebraError, match=r"^mask Congruence\(.* is not an int$"):
                b.quotient(ex62, congruence)

    def test_quotient_refuses_a_non_ideal_and_names_its_witness(self, ex62):
        refusals = (
            (msk(ex62, "x,y"), "the set is not closed under addition (witness: x, y)"),
            (msk(ex62, "x") & ~1, "the set does not contain zero (witness: 0)"),
            (1 | 1 << ex62.order, "the set contains an out-of-range element (witness: bit 6)"),
        )
        for mask, refusal in refusals:
            with pytest.raises(b.AlgebraError, match=f"^{re.escape(refusal)}$"):
                b.quotient(ex62, mask)

    def test_quotient_by_big_ideal_is_boolean(self, ex62, b1):
        target = b.quotient(ex62, msk(ex62, "z,x,y,u"))
        assert target.order == 2
        assert target.add == b1.add
        assert target.mul == b1.mul
        assert target.names == ("[0]", "[1]")

    def test_quotient_by_discrete_is_isomorphic_copy(self, ex62):
        target = b.quotient(ex62, 1)
        assert target.add == ex62.add
        assert target.mul == ex62.mul

    def test_quotient_by_the_whole_algebra_has_one_element(self, ex62, chain4):
        # A/A has the one class {A}, so 0 = 1 there: the trivial algebra.
        for algebra in (ex62, chain4):
            target = b.quotient(algebra, b.full_mask(algebra))
            assert target.order == 1 and target.one == 0
            assert target.names == ("[0]",)
            assert target.add == target.mul == ((0,),)

    def test_quotient_by_small_ideal_has_order_five(self, ex62):
        assert b.quotient(ex62, msk(ex62, "z")).order == 5

    def test_preimages(self, ex62):
        # The ideals of A/I pull back along the projection, the class map.
        def pull_back(ideal, mask):
            class_of = b.bourne_congruence(ex62, ideal).class_of
            return b.mask_of(a for a, k in enumerate(class_of) if mask >> k & 1)

        big = msk(ex62, "z,x,y,u")
        assert pull_back(big, 1) == big
        assert pull_back(big, b.full_mask(b.quotient(ex62, big))) == b.full_mask(ex62)

        small = msk(ex62, "z")
        class_of = b.bourne_congruence(ex62, small).class_of
        image = b.mask_of(class_of[e] for e in b.bits(msk(ex62, "z,x")))
        assert b.is_ideal(b.quotient(ex62, small), image)
        assert pull_back(small, image) == msk(ex62, "z,x")

    def test_preimage_requires_ideal(self, ex62, chain4, small_random_fleet):
        # A set of A/I pulls back along the class map to an ideal of A
        # exactly when it is an ideal of A/I, the projection being onto.
        for algebra in [ex62, chain4, *small_random_fleet[:10]]:
            for i in b.enumerate_ideals(algebra):
                class_of = b.bourne_congruence(algebra, i).class_of
                target = b.quotient(algebra, i)
                for mask in range(1 << target.order):
                    preimage = b.mask_of(a for a, k in enumerate(class_of) if mask >> k & 1)
                    assert b.is_ideal(algebra, preimage) == b.is_ideal(target, mask)
        # The set {[1]} of the discrete quotient misses zero, and so does its preimage.
        target = b.quotient(ex62, 1)
        not_ideal = 1 << target.order - 1
        assert b.ideal_violation(target, not_ideal) == ("does not contain zero", (0,))
        assert b.ideal_violation(ex62, not_ideal) == ("does not contain zero", (0,))

    def test_quotient_matches_the_benchmark_quotient(self, base_fleet, full_random_fleet):
        # perfbench's engine-free quotient groups by every member of the
        # ideal as a witness.
        checked = 0
        for algebra in [*base_fleet.values(), *full_random_fleet]:
            table = (algebra.names, algebra.add, algebra.mul, algebra.one)
            for i in b.enumerate_ideals(algebra):
                assert b.quotient(algebra, i) == b.Algebra(*inputs.bourne_quotient(table, b.bits(i)))
                checked += 1
        assert checked == 870  # on 222 algebras

    def test_projection_is_homomorphism(self, base_fleet, full_random_fleet):
        # The projection class_of maps A onto A/I, keeping zero and one.
        for algebra in [*base_fleet.values(), *full_random_fleet]:
            for i in b.enumerate_ideals(algebra):
                target = b.quotient(algebra, i)
                pi = b.bourne_congruence(algebra, i).class_of
                assert pi[0] == 0 and pi[algebra.one] == target.one
                assert set(pi) == set(target.elements())
                for a in algebra.elements():
                    for c in algebra.elements():
                        assert pi[algebra.add[a][c]] == target.add[pi[a]][pi[c]]
                        assert pi[algebra.mul[a][c]] == target.mul[pi[a]][pi[c]]

def mask_calls(algebra: b.Algebra) -> dict[str, list]:
    """Each public function that takes a mask, as one call of the mask per
    mask argument, the other arguments valid."""
    return {
        "bits": [b.bits],
        "member_labels": [lambda m: b.member_labels(algebra, m)],
        "is_ideal": [lambda m: b.is_ideal(algebra, m)],
        "ideal_violation": [lambda m: b.ideal_violation(algebra, m)],
        "saturation": [lambda m: b.saturation(algebra, m)],
        "is_saturated": [lambda m: b.is_saturated(algebra, m)],
        "radical": [lambda m: b.radical(algebra, m)],
        "ideal_sum": [lambda m: b.ideal_sum(algebra, m, 1), lambda m: b.ideal_sum(algebra, 1, m)],
        "ideal_intersect": [
            lambda m: b.ideal_intersect(algebra, m, 1), lambda m: b.ideal_intersect(algebra, 1, m),
        ],
        "ideal_product": [
            lambda m: b.ideal_product(algebra, m, 1), lambda m: b.ideal_product(algebra, 1, m),
        ],
        "conductor": [lambda m: b.conductor(algebra, 1, m)],
        "bourne_congruence": [lambda m: b.bourne_congruence(algebra, m)],
        "quotient": [lambda m: b.quotient(algebra, m)],
        "is_prime": [lambda m: b.is_prime(algebra, m)],
        "is_primary": [lambda m: b.is_primary(algebra, m)],
        "divisor_set": [lambda m: b.divisor_set(algebra, m)],
        "evans_report": [lambda m: b.evans_report(algebra, m)],
        "radical_decomposition": [lambda m: b.radical_decomposition(algebra, m)],
        "weak_decompose": [lambda m: b.weak_decompose(algebra, m)],
    }


class TestMaskArguments:
    def test_every_mask_argument_must_be_an_int(self):
        algebra = b.builtin("example-6-2")  # fresh instance, empty memo
        calls = mask_calls(algebra)
        taking = {
            name for name in b.__all__
            if inspect.isfunction(getattr(b, name))
            and {"mask", "left", "right"} & set(inspect.signature(getattr(b, name)).parameters)
        }
        assert set(calls) == taking
        for name, positions in calls.items():
            for call in positions:
                answer(call, 1)  # memoized under the int 1 where it answers
                for bad in (True, False, 1.0, 3.0, "1", None):
                    refusal = f"mask {bad!r} is not an int"
                    with pytest.raises(b.AlgebraError, match=f"^{re.escape(refusal)}$"):
                        call(bad)

    def test_mask_of_refuses_what_it_cannot_shift(self):
        assert b.mask_of([0, 2, 2]) == 0b101
        for bad in (-1, 1.0, True, "1", None):
            refusal = f"element index {bad!r} is not an int >= 0"
            with pytest.raises(b.AlgebraError, match=f"^{re.escape(refusal)}$"):
                b.mask_of([0, bad])

    def test_bits_refuses_a_negative_mask_on_the_call(self):
        # A negative mask never runs out of bits, so a bits that walked it
        # would grow its list until memory ran out: the probe runs in a child
        # capped in time and address space.
        probe = (
            "import resource, b1alg as b\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "try:\n    b.bits(-1)\nexcept b.AlgebraError as exc:\n    print(exc)\n"
        )
        src = Path(b.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        assert out.stdout == "mask -1 is negative\n"
        assert list(b.bits(0)) == [] and list(b.bits(0b1010)) == [1, 3]
