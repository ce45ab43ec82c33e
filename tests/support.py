"""Shared fixtures-behind-the-fixtures: fleets, random algebras, mask helpers."""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest

import b1alg as b

_PACKAGE = str(Path(b.__file__).parent)


def engine_frames(call, *args) -> list[str]:
    """Names of the b1alg frames that call(*args) enters, in order.

    Counted as sys.setprofile "call" events whose code lives in the b1alg
    package; a generator resumed n times counts n times.  The count is the
    same on every host for a given Python version.
    """
    names: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return names


def answer(call, *args):
    """call(*args), or the text of the AlgebraError it raises."""
    try:
        return call(*args)
    except b.AlgebraError as exc:
        return str(exc)


def out_of_range_refusal(algebra: b.Algebra, mask: int) -> str:
    """The refusal text of a mask with a bit at or past the order, which
    names the lowest such bit."""
    bit = next(i for i in range(algebra.order, mask.bit_length()) if mask >> i & 1)
    return f"the set contains an out-of-range element (witness: bit {bit})"


def refuses_out_of_range_masks(call, ex62: b.Algebra) -> None:
    """call(ex62, mask) refuses a mask with a bit at or past the order, or a
    negative one, naming the lowest stray bit, as the ideal operations do."""
    for mask, stray in ((b.full_mask(ex62) | 1 << 6, 6), (-1, 6), (1 | 1 << 9, 9)):
        refusal = f"the set contains an out-of-range element (witness: bit {stray})"
        with pytest.raises(b.AlgebraError, match=re.escape(refusal)):
            call(ex62, mask)


def msk(algebra: b.Algebra, labels: str) -> int:
    """Mask from a comma-joined label string ('' means the zero ideal)."""
    out = 1
    for token in labels.split(","):
        if token:
            out |= 1 << algebra.index[token]
    return out


def lbl(algebra: b.Algebra, mask: int) -> str:
    return ",".join(b.member_labels(algebra, mask))


def named_base_fleet() -> dict[str, b.Algebra]:
    """b1, the six-element builtin, chains 2..6, and their pairwise products
    up to order 12."""
    named: dict[str, b.Algebra] = {
        "b1": b.builtin("b1"),
        "example-6-2": b.builtin("example-6-2"),
    }
    for n in range(2, 7):
        named[f"chain-{n}"] = b.chain_algebra(n)
    items = list(named.items())
    fleet = dict(named)
    for i, (ni, ai) in enumerate(items):
        for nj, aj in items[i:]:
            if ai.order * aj.order <= 12:
                fleet[f"{ni}*{nj}"] = b.direct_product(ai, aj)
    return fleet


def null_algebra(k: int) -> b.Algebra:
    """null-k: elements 0 < a1..ak < t < 1, with ai + aj = t for i != j and
    every product of two non-units 0.

    Its ideals are 0 with at most one ai, t with any set of the ai, and the
    whole algebra: 2**k + k + 2 of them, at order k + 3.
    """
    atoms = [f"a{i}" for i in range(1, k + 1)]
    names = ["0", *atoms, "t", "1"]

    def plus(x: str, y: str) -> str:
        if x == y or y == "0":
            return x
        if x == "0":
            return y
        return "1" if "1" in (x, y) else "t"

    def times(x: str, y: str) -> str:
        if x == "1":
            return y
        return x if y == "1" else "0"

    add = [[plus(x, y) for y in names] for x in names]
    mul = [[times(x, y) for y in names] for x in names]
    return b.build_algebra(names, add, mul, "0", "1")


def idempotent_chain() -> b.Algebra:
    """The chain 0 < eps < e < 1 with e*e = e and eps*eps = eps*e = 0.

    A non-laskerian algebra of order 4: its zero ideal is not an
    intersection of saturated primaries.
    """
    names = ["0", "eps", "e", "1"]
    products = {("e", "e"): "e"}

    def times(x: str, y: str) -> str:
        if x == "1":
            return y
        if y == "1":
            return x
        return products.get((x, y), "0")

    add = [[names[max(i, j)] for j in range(4)] for i in range(4)]
    mul = [[times(x, y) for y in names] for x in names]
    return b.build_algebra(names, add, mul, "0", "1")


def monoid_ideal_algebra() -> b.Algebra:
    """The 14-element semiring of the ideals of the monoid with zero
    M = {1, x, x**2, y, y**2, xy}, where x**3 = x**2, y**3 = y**2 and
    x**2 y = x y**2 = 0.

    + is union and * the setwise product with 0 dropped.  An ideal is
    labelled by its members joined with '+' (``yy+xy+xx`` is
    {y**2, xy, x**2}), the empty one by ``0``.  A laskerian table entry
    of this algebra is not the set of minimal saturated primaries above
    its ideal: see ``test_decompose.TestMonoidIdealAlgebra``.
    """
    # Monomials x**i y**j as (i, j), in label order.
    monomials = ((0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0))
    labels = ("1", "x", "y", "yy", "xy", "xx")

    def times(u, v):
        i, j = min(u[0] + v[0], 2), min(u[1] + v[1], 2)
        return None if i and j and i + j > 2 else (i, j)

    def product(s, t):
        return frozenset({times(u, v) for u in s for v in t} - {None})

    whole = frozenset(monomials)
    ideals = sorted(
        (
            frozenset(m for k, m in enumerate(monomials) if bits >> k & 1)
            for bits in range(1 << len(monomials))
        ),
        key=lambda s: (len(s), sorted(map(monomials.index, s))),
    )
    ideals = [s for s in ideals if product(s, whole) <= s]
    name = {
        s: "+".join([w for m, w in zip(monomials, labels) if m in s]) or "0" for s in ideals
    }
    names = [name[s] for s in ideals]
    add = [[name[s | t] for t in ideals] for s in ideals]
    mul = [[name[product(s, t)] for t in ideals] for s in ideals]
    return b.build_algebra(names, add, mul, "0", name[whole])


def seeded_products(factors, count: int = 80):
    """(left, right, left x right) for count seeded draws of two nontrivial
    factors whose product has order 7..36: past the order-6 fleets, where
    the factors' brute-force oracles still run."""
    rng = random.Random(8400)
    factors = [a for a in factors if not a.is_trivial]
    out = []
    while len(out) < count:
        left, right = rng.choice(factors), rng.choice(factors)
        if 6 < left.order * right.order <= 36:
            out.append((left, right, b.direct_product(left, right)))
    return out


def _product_pool() -> list[b.Algebra]:
    seeds = [
        b.builtin("b1"),
        b.builtin("example-6-2"),
        b.chain_algebra(3),
        b.chain_algebra(4),
        b.chain_algebra(5),
    ]
    pool = list(seeds)
    for i in range(len(seeds)):
        for j in range(i, len(seeds)):
            pool.append(b.direct_product(seeds[i], seeds[j]))
    return pool


def _random_subalgebra(rng: random.Random, base: b.Algebra, max_order: int):
    gens = rng.sample(range(base.order), k=rng.randint(1, min(3, base.order)))
    closure = {0, base.one, *gens}
    changed = True
    while changed and len(closure) <= max_order:
        changed = False
        for x in list(closure):
            for y in list(closure):
                for v in (base.add[x][y], base.mul[x][y]):
                    if v not in closure:
                        closure.add(v)
                        changed = True
    if len(closure) > max_order:
        return None
    members = sorted(closure)
    names = [base.names[m] for m in members]
    add = [[base.names[base.add[x][y]] for y in members] for x in members]
    mul = [[base.names[base.mul[x][y]] for y in members] for x in members]
    return b.build_algebra(names, add, mul, names[0], base.names[base.one])


def _random_quotient(rng: random.Random, base: b.Algebra, max_order: int):
    gens = rng.sample(range(base.order), k=rng.randint(0, 2))
    ideal = b.generated_ideal(base, gens)
    qmap = b.quotient(base, b.bourne_congruence(base, ideal))
    if qmap.target.order > max_order:
        return None
    return qmap.target


def random_fleet(count: int = 200, seed: int = 20120901, max_order: int = 6):
    """Deterministic rejection-sampled fleet of valid algebras.

    Candidates are random generated subalgebras and random Bourne quotients
    of products of the seed algebras; anything that closes over the size
    cap is rejected.  Every survivor passes the axiom checker on the way
    out of build_algebra / quotient.
    """
    rng = random.Random(seed)
    pool = _product_pool()
    fleet: list[b.Algebra] = []
    while len(fleet) < count:
        base = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            made = _random_subalgebra(rng, base, max_order)
        else:
            made = _random_quotient(rng, base, max_order)
        if made is not None:
            fleet.append(made)
    return fleet
