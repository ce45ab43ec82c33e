from __future__ import annotations

import importlib
import random

import pytest

import b1alg as b
import oracles
from support import (
    answer,
    idempotent_chain,
    lbl,
    msk,
    null_algebra,
    out_of_range_refusal,
    refuses_out_of_range_masks,
    seeded_products,
)


class TestPrimality:
    def test_frozen_examples(self, ex62):
        assert b.is_prime(ex62, msk(ex62, "z,x"))
        assert not b.is_prime(ex62, msk(ex62, "z"))
        assert not b.is_prime(ex62, b.full_mask(ex62))

    def test_refuses_an_out_of_range_mask(self, ex62):
        refuses_out_of_range_masks(b.is_prime, ex62)

    def test_prime_lists(self, ex62):
        assert [lbl(ex62, m) for m in b.primes(ex62)] == [
            "0,z,x",
            "0,z,y",
            "0,z,x,y,u",
        ]
        assert b.saturated_primes(ex62) == b.primes(ex62)
        assert [lbl(ex62, m) for m in b.min_primes(ex62)] == ["0,z,x", "0,z,y"]
        assert b.min_primes(ex62) == b.min_saturated_primes(ex62)
        assert [lbl(ex62, m) for m in b.max_saturated(ex62)] == ["0,z,x,y,u"]

    def test_boolean_prime_is_zero(self, b1):
        assert [lbl(b1, m) for m in b.primes(b1)] == ["0"]
        assert b.min_primes(b1) == (1,)

    def test_max_saturated_is_prime(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            sat_primes = set(b.saturated_primes(algebra))
            for m in b.max_saturated(algebra):
                assert m in sat_primes


class TestPrimarity:
    def test_frozen_examples(self, ex62):
        assert b.is_primary(ex62, msk(ex62, "x,y,u"))
        assert not b.is_primary(ex62, msk(ex62, "z"))

    def test_refuses_an_out_of_range_mask(self, ex62):
        refuses_out_of_range_masks(b.is_primary, ex62)

    def test_primes_are_primary(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            for m in b.enumerate_ideals(algebra):
                if b.is_prime(algebra, m):
                    assert b.is_primary(algebra, m)

    def test_primary_radical_is_prime(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            for m in b.enumerate_ideals(algebra):
                if b.is_primary(algebra, m):
                    assert b.is_prime(algebra, b.radical(algebra, m))

    def test_oracle_equivalence(self, ex62, chain4, b1, small_random_fleet):
        fleet = [ex62, chain4, b1, b.direct_product(b1, b1), *small_random_fleet[:15]]
        for algebra in fleet:
            for m in b.enumerate_ideals(algebra):
                assert b.is_prime(algebra, m) == oracles.prime_oracle(algebra, m)
                assert b.is_primary(algebra, m) == oracles.primary_oracle(algebra, m)


class TestZeroDivisors:
    def test_frozen_examples(self, ex62, b1):
        assert b.zero_divisors(ex62) == msk(ex62, "z,x,y,u") & ~1
        assert b.divisor_set(ex62, 1) == msk(ex62, "z,x,y,u")
        assert b.zero_divisors(b1) == 0

    def test_divisor_set_refuses_an_out_of_range_mask(self, ex62):
        refuses_out_of_range_masks(b.divisor_set, ex62)

    def test_divisor_set_of_zero_ideal(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            if algebra.is_trivial:
                continue
            assert b.divisor_set(algebra, 1) == b.zero_divisors(algebra) | 1

    def test_divisor_set_contains_proper_ideal(self, ex62, chain4):
        for algebra in (ex62, chain4):
            full = b.full_mask(algebra)
            for m in b.enumerate_ideals(algebra):
                if m != full:
                    assert m & ~b.divisor_set(algebra, m) == 0


class TestNilradical:
    def test_frozen_examples(self, ex62, b1):
        assert b.nilradical(ex62) == msk(ex62, "z")
        assert b.nilradical(b1) == 1
        for n in range(2, 7):
            assert b.nilradical(b.chain_algebra(n)) == 1

    def test_always_saturated(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            assert b.is_saturated(algebra, b.nilradical(algebra))


class TestAssociatedPrimes:
    def test_six_element_exact(self, ex62):
        got = [(ex62.names[x], lbl(ex62, p)) for x, p in b.associated_primes(ex62)]
        assert got == [("y", "0,z,x"), ("x", "0,z,y"), ("z", "0,z,x,y,u")]

    def test_each_is_an_annihilator(self, ex62):
        ann = {
            "0,z,x": b.annihilator(ex62, ex62.index["y"]),
            "0,z,y": b.annihilator(ex62, ex62.index["x"]),
            "0,z,x,y,u": b.annihilator(ex62, ex62.index["z"]),
        }
        for _, p in b.associated_primes(ex62):
            assert p in ann.values()
            assert lbl(ex62, p) in ann
            assert ann[lbl(ex62, p)] == p

    def test_boolean(self, b1):
        assert b.associated_primes(b1) == ((1, 1),)

    def test_properties_on_fleet(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            annihilators = {
                b.annihilator(algebra, u) for u in range(1, algebra.order)
            }
            assoc = b.associated_primes(algebra)
            minimal = set(b.min_primes(algebra))
            pulled = {p for _, p in assoc}
            assert minimal <= pulled
            for x, p in assoc:
                assert x != 0
                assert b.is_prime(algebra, p)
                assert b.is_saturated(algebra, p)
                assert p in annihilators


class TestStandard:
    def test_frozen_examples(self, ex62, b1):
        ok, cover = b.is_standard(ex62)
        assert ok and [lbl(ex62, m) for m in cover] == ["0,z,x,y,u"]
        ok, cover = b.is_standard(b1)
        assert ok and [lbl(b1, m) for m in cover] == ["0"]
        ok, cover = b.is_standard(b.chain_algebra(3))
        assert ok and [lbl(b.chain_algebra(3), m) for m in cover] == ["0"]

    def test_cover_union_is_divisor_target(self, ex62, chain4, small_random_fleet):
        for algebra in [ex62, chain4, *small_random_fleet]:
            ok, cover = b.is_standard(algebra)
            assert ok
            union = 0
            for p in cover:
                union |= p
            assert union == b.divisor_set(algebra, 1)

    def test_matches_the_subset_oracle(self, base_fleet, full_random_fleet, past_order_six):
        for algebra in [
            *base_fleet.values(), *full_random_fleet, *past_order_six, idempotent_chain()
        ]:
            assert b.is_standard(algebra) == oracles.standard_oracle(algebra)


class TestTrivialAlgebra:
    def test_empty_spectra(self):
        t = b.builtin("trivial")
        assert b.primes(t) == ()
        assert b.saturated_primes(t) == ()
        assert b.min_primes(t) == ()
        assert b.max_saturated(t) == ()
        assert b.associated_primes(t) == ()
        assert b.zero_divisors(t) == 0
        assert b.divisor_set(t, 1) == 0
        ok, cover = b.is_standard(t)
        assert ok and cover == ()


class TestSpectrumResult:
    def test_invariants(self, ex62, chain4):
        for algebra in (ex62, chain4):
            result = b.spectrum(algebra)
            assert set(result.min_primes) <= set(result.primes)
            assert set(result.min_saturated_primes) <= set(result.saturated_primes)
            assert set(result.max_saturated) <= set(result.saturated_primes)
            for _, p in result.associated:
                assert b.is_prime(algebra, p)


class TestComputedOnce:
    def test_spectrum_scans_each_ideal_once(self, monkeypatch):
        # Each mask's row scan, its divisor set, is computed once: the primes,
        # the saturated primes and the standard verdict all read it, and every
        # asker after the first reads the memo.
        algebra = b.builtin("example-6-2")  # fresh instance, empty memo
        spectrum_module = importlib.import_module("b1alg.spectrum")
        calls = []
        pairs_in = spectrum_module._pairs_in

        def counting(alg, mask):
            calls.append(mask)
            return pairs_in(alg, mask)

        monkeypatch.setattr(spectrum_module, "_pairs_in", counting)
        b.spectrum(algebra)
        # the whole algebra is refused as improper before its rows are scanned
        assert sorted(calls) == sorted(b.enumerate_ideals(algebra)[:-1])
        assert len(calls) == 8
        b.spectrum(algebra)
        assert len(calls) == 8

    def test_audit_after_spectrum_recomputes_no_family(self, monkeypatch):
        spectrum_module = importlib.import_module("b1alg.spectrum")
        calls = []

        def counting(fn):
            def wrapper(family):
                calls.append(fn.__name__)
                return fn(family)

            return wrapper

        for name in ("_minimal", "_maximal"):
            monkeypatch.setattr(spectrum_module, name, counting(getattr(spectrum_module, name)))
        for algebra in (b.builtin("example-6-2"), null_algebra(3), idempotent_chain()):
            b.spectrum(algebra)
            assert calls
            calls.clear()
            assert b.audit(algebra).passed
            assert calls == []


class TestPairProductPredicates:
    # The predicates read the n*n-bit pair-product masks; the oracles scan
    # the multiplication table pair by pair.

    @staticmethod
    def _masks(algebra, rng):
        # every ideal, then random masks, some with bits past the order
        stray = [rng.getrandbits(algebra.order + 3) for _ in range(20)]
        inside = [rng.getrandbits(algebra.order) | 1 for _ in range(20)]
        return [*b.enumerate_ideals(algebra), *stray, *inside]

    def test_match_the_table_scans(
        self, base_fleet, small_random_fleet, full_random_fleet, past_order_six
    ):
        products = seeded_products([*base_fleet.values(), *full_random_fleet])
        rng = random.Random(9)
        for algebra in [
            *base_fleet.values(), *small_random_fleet, *past_order_six,
            *[product for _, _, product in products],  # orders 7..36
        ]:
            for m in self._masks(algebra, rng):
                if m >> algebra.order:  # a stray bit is refused, not classified
                    refusal = out_of_range_refusal(algebra, m)
                    for test in (b.is_prime, b.is_primary, b.divisor_set):
                        assert answer(test, algebra, m) == refusal
                    continue
                assert b.is_prime(algebra, m) == oracles.prime_oracle(algebra, m)
                assert b.is_primary(algebra, m) == oracles.primary_oracle(algebra, m)
                assert b.divisor_set(algebra, m) == oracles.divisor_set_oracle(algebra, m)

    def test_maximal_conductors_match_the_row_scans(
        self, base_fleet, small_random_fleet, past_order_six
    ):
        for algebra in [*base_fleet.values(), *small_random_fleet, *past_order_six]:
            full = b.full_mask(algebra)
            for m in b.enumerate_saturated_ideals(algebra):
                if m == full:
                    continue
                conductors = {}
                for y in algebra.elements():
                    if not m >> y & 1:
                        conductors.setdefault(oracles.conductor_oracle(algebra, y, m), y)
                maximal = [
                    c for c in conductors if not any(o != c and o & c == c for o in conductors)
                ]
                want = tuple(
                    (conductors[c], c) for c in sorted(maximal, key=lambda c: (c.bit_count(), c))
                )
                assert b.evans_report(algebra, m).maximal_conductors == want


class TestProducts:
    def test_ideal_families_of_products_follow_the_factors(self, base_fleet, full_random_fleet):
        # Past order 6 the factors' brute-force oracles still decide: every
        # ideal of A x B is I x J, every saturated one S x T, every prime
        # P x B or A x Q, every maximal proper saturated one M x B or A x N,
        # every primary Q x B or A x Q', and the minimal saturated primes
        # are the minimal primes.
        for left, right, product in seeded_products([*base_fleet.values(), *full_random_fleet]):
            ideals = tuple(oracles.lifted_ideals_oracle(left, right))
            saturated = tuple(oracles.lifted_saturated_ideals_oracle(left, right))
            primes = tuple(oracles.lifted_primes_oracle(left, right))
            assert b.enumerate_ideals(product) == ideals
            assert b.enumerate_saturated_ideals(product) == saturated
            assert b.primes(product) == primes
            assert b.laskerian_check(product).primaries == tuple(
                oracles.lifted_primaries_oracle(left, right)
            )
            assert b.saturated_primes(product) == tuple([p for p in primes if p in saturated])
            assert b.max_saturated(product) == tuple(
                oracles.lifted_max_saturated_oracle(left, right)
            )
            assert b.min_saturated_primes(product) == tuple(
                oracles.lifted_min_primes_oracle(left, right)
            )
