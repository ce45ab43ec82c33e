"""Ideal arithmetic over finite B1-algebras.

Ideals are plain int bitmasks: bit i set means element i belongs to the
ideal, with element 0 (zero) as the least significant bit.  Every proper
ideal result here is a mask over the algebra passed alongside it.  The
ideals are found as joins of principal ideals, once per algebra instance,
by ``enumerate_ideals``, which refuses algebras with more ideals than the
enumeration bound; ``_per_algebra`` computes every family with several
callers once per instance behind the same bound.  Saturations, radicals,
joins with principal ideals, the ideal test, annihilators and conductors
read the masks each ``Algebra`` builds from its tables instead of scanning
the tables on every call; ``_pairs_in`` gives every conductor of an ideal
at once, and ``conductor`` is one row of it.

``_per_mask`` computes each per-ideal result once per instance and mask:
saturations, radicals, pair masks and the ideal test here, prime
witnesses, primarity and divisor sets in ``spectrum``, and, through
``_per_mask_record``, the Bourne congruences here and the Evans reports
and radical decompositions in ``decompose``.  It makes no bound check, so
these still answer past the bound.  The one-pass filters for the
saturated ideals and the primaries read the unmemoized functions through
``__wrapped__`` instead, so the memo keeps only masks asked about again;
``primes`` stores one prime witness per ideal, since the primes are asked
about again and a witness is small.

The operations mirror the classical ones: generated ideals, the saturation
closure I-bar = {a : a + i = i for some i in I}, radicals, annihilators,
conductors, ideal sums / intersections / products, the single-witness
Bourne congruence (a ~ b iff a + w = b + w for some w in I, read off the
join of I as one witness) and its quotient algebra.
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple

from .algebra import Algebra, AlgebraError, AxiomError, _certified

DEFAULT_ENUMERATION_BOUND = 2**19  # the most ideals of any algebra of order <= 20
ENUMERATION_BOUND_ENV = "B1ALG_ENUM_BOUND"


class EnumerationBoundError(AlgebraError):
    """The algebra has more ideals than the enumeration bound admits."""


def enumeration_bound() -> int:
    """Most ideals an algebra may have for its ideal families to be computed."""
    raw = os.environ.get(ENUMERATION_BOUND_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise AlgebraError(
            f"{ENUMERATION_BOUND_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise AlgebraError(f"{ENUMERATION_BOUND_ENV} must be positive, got {value}")
    return value


def _over_bound(algebra: Algebra, bound: int) -> EnumerationBoundError:
    return EnumerationBoundError(
        f"the ideals of this order-{algebra.order} algebra exceed the enumeration "
        f"bound {bound}; raise it via {ENUMERATION_BOUND_ENV} if you have the patience"
    )


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def _canonical(masks) -> list[int]:
    """Masks in the canonical report order: cardinality, then mask value."""
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _per_algebra(fn):
    """Run fn(algebra) once per algebra instance, memoized on the instance.

    Every call, memo hits included, first goes through enumerate_ideals,
    which holds the ideal count to the bound.
    """

    @functools.wraps(fn)
    def once(algebra: Algebra):
        enumerate_ideals(algebra)
        memo = algebra._memo
        if fn not in memo:
            memo[fn] = fn(algebra)
        return memo[fn]

    return once


def _per_mask(fn):
    """Run fn(algebra, mask) once per algebra instance and mask, memoized
    on the instance in a dict keyed by mask.

    Unlike ``_per_algebra`` it makes no enumeration-bound check, so the
    functions it wraps still answer past the bound.  Errors are not
    memoized.  fn must return immutable values that do not refer to the
    algebra, or the memo would keep its own algebra alive.
    """

    @functools.wraps(fn)
    def once(algebra: Algebra, mask: int):
        memo = algebra._memo.get(fn)
        if memo is None:
            memo = algebra._memo[fn] = {}
        try:
            return memo[mask]
        except KeyError:
            out = memo[mask] = fn(algebra, mask)
            return out

    return once


def _per_mask_record(fn):
    """``_per_mask`` for fn(algebra, mask) returning a record whose first
    field is the algebra.

    The memo keeps the record's class and its other fields and rebuilds
    the record on every call, so no memo entry refers to its own algebra.
    """

    @_per_mask
    def parts(algebra: Algebra, mask: int):
        record = fn(algebra, mask)
        return type(record), record[1:]

    @functools.wraps(fn)
    def once(algebra: Algebra, mask: int):
        cls, rest = parts(algebra, mask)
        return cls(algebra, *rest)

    return once


def full_mask(algebra: Algebra) -> int:
    """Mask of every element: the public name of ``Algebra._full``, which
    the package itself reads directly."""
    return algebra._full


def member_labels(algebra: Algebra, mask: int) -> tuple[str, ...]:
    """Labels of the mask's members in element-index order (zero first)."""
    return tuple(algebra.names[i] for i in bits(mask))


def is_ideal(algebra: Algebra, mask: int) -> bool:
    return ideal_violation(algebra, mask) is None


@_per_mask
def ideal_violation(algebra: Algebra, mask: int) -> tuple[str, tuple[int, ...]] | None:
    """First failed ideal condition as (description, witness), else None."""
    if mask & ~algebra._full:
        stray = next(i for i in bits(mask) if i >= algebra.order)
        return ("contains an out-of-range element", (stray,))
    if not mask & 1:
        return ("does not contain zero", (0,))
    members = list(bits(mask))
    # i + i = i and i + j = j + i, so the first failing pair (i, j) has i < j.
    for k, i in enumerate(members):
        row = algebra.add[i]
        for j in members[k + 1:]:
            if not mask >> row[j] & 1:
                return ("is not closed under addition", (i, j))
    # Only members whose principal ideal A*i leaks can fail; the rows are
    # scanned just to name the first witness (a, i).
    leaky = [i for i in members if algebra._principal[i] & ~mask]
    if leaky:
        for a, row in enumerate(algebra.mul):
            for i in leaky:
                if not mask >> row[i] & 1:
                    return ("is not closed under multiplication by the algebra", (a, i))
    return None


def _additive_closure(algebra: Algebra, mask: int) -> int:
    add = algebra.add
    changed = True
    while changed:
        changed = False
        members = list(bits(mask))
        for i in members:
            row = add[i]
            for j in members:
                b = 1 << row[j]
                if not mask & b:
                    mask |= b
                    changed = True
    return mask


def generated_ideal(algebra: Algebra, elements) -> int:
    """Smallest ideal containing the given elements.

    Multiples a*s are collected first; closing that set under addition is
    enough, since distributivity keeps sums of multiples stable under
    further multiplication.
    """
    mul = algebra.mul
    mask = 1
    for s in elements:
        for a in algebra.elements():
            mask |= 1 << mul[a][s]
    return _additive_closure(algebra, mask)


@_per_mask
def saturation(algebra: Algebra, mask: int) -> int:
    """Closure I-bar = {a : a + i = i for some i in I}.

    Bits at or past the order are ignored.
    """
    out = 0
    for a, above in enumerate(algebra._above):
        if above & mask:
            out |= 1 << a
    return out


def is_saturated(algebra: Algebra, mask: int) -> bool:
    # saturation drops bits at or past the order, so such a mask is never saturated
    return saturation(algebra, mask) == mask


@_per_mask
def radical(algebra: Algebra, mask: int) -> int:
    """r(I) = {a : a**n in I for some n >= 1}.

    Bits at or past the order are ignored.
    """
    out = 0
    for a, powers in enumerate(algebra._powers):
        if powers & mask:
            out |= 1 << a
    return out


def ideal_sum(algebra: Algebra, left: int, right: int) -> int:
    # The union of two ideals is already closed under external
    # multiplication, so only the additive closure is missing.
    return _additive_closure(algebra, left | right)


def ideal_intersect(algebra: Algebra, left: int, right: int) -> int:
    return left & right


def ideal_product(algebra: Algebra, left: int, right: int) -> int:
    mul = algebra.mul
    mask = 1
    for i in bits(left):
        row = mul[i]
        for j in bits(right):
            mask |= 1 << row[j]
    return _additive_closure(algebra, mask)


def annihilator(algebra: Algebra, s: int) -> int:
    """Ann(s) = {x : s*x = 0}; always a saturated ideal."""
    return algebra._products[0] >> s * algebra.order & algebra._full


def annihilator_set(algebra: Algebra, elements) -> int:
    out = algebra._full
    for s in elements:
        out &= annihilator(algebra, s)
    return out


def conductor(algebra: Algebra, x: int, mask: int) -> int:
    """C_x(J) = {y : x*y in J}; saturated whenever J is.

    Bits of J at or past the order are ignored.
    """
    return _pairs_in(algebra, mask) >> x * algebra.order & algebra._full


@_per_mask
def _pairs_in(algebra: Algebra, mask: int) -> int:
    """P(I) = {(u, v) : u*v in I}, the pair (u, v) at bit u*n + v.

    Row u of P(I), ``P(I) >> u*n & full``, is the conductor C_u(I).  Bits
    of I at or past the order are ignored.
    """
    out = 0
    for t, pairs in enumerate(algebra._products):
        if mask >> t & 1:
            out |= pairs
    return out


def _block(algebra: Algebra, rows: int, cols: int) -> int:
    """The pairs (u, v) with u in rows and v in cols, laid out as P(I) is."""
    n = algebra.order
    out = 0
    for u in bits(rows):
        out |= cols << u * n
    return out


def _join(algebra: Algebra, ideal: int, other: int) -> int:
    """I + J = {i + j}; only sums of i outside J and j outside I are new."""
    add = algebra.add
    joined = ideal | other
    fresh = list(bits(other & ~ideal))
    for i in bits(ideal & ~other):
        row = add[i]
        for j in fresh:
            joined |= 1 << row[j]
    return joined


# ---------------------------------------------------------------------------
# Ideal enumeration by joins of principal ideals

def _scan_ideals(algebra: Algebra) -> tuple[int, ...]:
    # Every ideal is the sum of the principal ideals A*a of its members, so
    # joining each known ideal with A*a, for a = 1..n-1 in turn, finds them
    # all.
    bound = enumeration_bound()
    found = {1}
    for a in range(1, algebra.order):
        principal = algebra._principal[a]
        for ideal in [m for m in found if not m >> a & 1]:
            found.add(_join(algebra, ideal, principal))
            if len(found) > bound:
                raise _over_bound(algebra, bound)
    return tuple(_canonical(found))


def enumerate_ideals(algebra: Algebra) -> tuple[int, ...]:
    """All ideals, sorted by cardinality then by mask value.

    Found once per algebra as joins of principal ideals, in time that grows
    with their number; refused past the enumeration bound on every call.
    """
    memo = algebra._memo
    if _scan_ideals not in memo:
        memo[_scan_ideals] = _scan_ideals(algebra)
    bound = enumeration_bound()
    if len(memo[_scan_ideals]) > bound:
        raise _over_bound(algebra, bound)
    return memo[_scan_ideals]


def _saturated_among(algebra: Algebra, masks) -> tuple[int, ...]:
    """The saturated masks, in order.  A one-pass filter: it reads the
    unmemoized saturation, so the memo keeps only masks asked about again."""
    saturate = saturation.__wrapped__
    return tuple(m for m in masks if saturate(algebra, m) == m)


@_per_algebra
def enumerate_saturated_ideals(algebra: Algebra) -> tuple[int, ...]:
    return _saturated_among(algebra, enumerate_ideals(algebra))


# ---------------------------------------------------------------------------
# Congruences and quotients


class Congruence(namedtuple("Congruence", "algebra class_of classes")):
    """Partition of an algebra compatible with both operations.

    algebra: Algebra; class_of: tuple[int, ...]; classes: tuple[int, ...].
    ``class_of[a]`` is the class index of element a; ``classes[k]`` is the
    member mask of class k.  Classes are numbered by smallest member, so
    the class of zero is always class 0.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.classes)

    def zero_class(self) -> int:
        return self.classes[0]


class QuotientMap(namedtuple("QuotientMap", "source target projection")):
    """Surjection onto a quotient algebra with preimage bookkeeping.

    source: Algebra; target: Algebra; projection: tuple[int, ...].
    """

    __slots__ = ()


def congruence_violation(
    algebra: Algebra, class_of: tuple[int, ...]
) -> tuple[str, tuple[int, ...]] | None:
    """First compatibility failure of the partition, or None if valid."""
    add, mul = algebra.add, algebra.mul
    for a in algebra.elements():
        for b in algebra.elements():
            if class_of[a] != class_of[b]:
                continue
            for c in algebra.elements():
                if class_of[add[a][c]] != class_of[add[b][c]]:
                    return ("addition not compatible", (a, b, c))
                if class_of[mul[a][c]] != class_of[mul[b][c]]:
                    return ("multiplication not compatible", (a, b, c))
    return None


@_per_mask_record
def bourne_congruence(algebra: Algebra, mask: int) -> Congruence:
    """Congruence of an ideal: a ~ b iff a + w = b + w for some w in I.

    The join t of I's members is in I and w + t = t for every w in I, so
    a ~ b iff a + t = b + t, and the classes are the fibres of x -> x + t,
    numbered by smallest member.  A mask that does not hold its join (no
    ideal) is refused.  The class of zero is exactly the saturation of I.
    """
    if mask & ~algebra._full:
        stray = next(i for i in bits(mask) if i >= algebra.order)
        raise AlgebraError(
            f"the set contains an out-of-range element (witness: bit {stray})"
        )
    add = algebra.add
    t = 0
    for w in bits(mask):
        t = add[t][w]
    if not mask >> t & 1:
        raise AlgebraError(
            "the set does not hold the join of its members "
            f"(witness: {algebra.names[t]})"
        )
    class_at: dict[int, int] = {}  # x + t -> class index
    class_of = []
    classes: list[int] = []
    for x, v in enumerate(add[t]):
        if v not in class_at:
            class_at[v] = len(classes)
            classes.append(0)
        k = class_at[v]
        classes[k] |= 1 << x
        class_of.append(k)
    return Congruence(algebra, tuple(class_of), tuple(classes))


def quotient(algebra: Algebra, congruence: Congruence) -> QuotientMap:
    """Quotient algebra on the classes, with the canonical projection.

    Compatibility is re-verified before the induced tables are trusted;
    a failure here is an engine bug, not a user error.
    """
    if congruence.class_of[0] != 0:
        raise AlgebraError("congruence classes must number the class of zero first")
    bad = congruence_violation(algebra, congruence.class_of)
    if bad is not None:
        raise RuntimeError(
            f"congruence re-check failed: {bad[0]} at {bad[1]} (engine bug)"
        )
    class_of = congruence.class_of
    k = len(congruence.classes)
    reps = [next(bits(c)) for c in congruence.classes]
    names = tuple(f"[{algebra.names[r]}]" for r in reps)
    add = tuple(
        tuple(class_of[algebra.add[reps[i]][reps[j]]] for j in range(k))
        for i in range(k)
    )
    mul = tuple(
        tuple(class_of[algebra.mul[reps[i]][reps[j]]] for j in range(k))
        for i in range(k)
    )
    try:
        target = _certified(names, add, mul, class_of[algebra.one])
    except AxiomError as exc:  # pragma: no cover - guarded by the re-check
        raise RuntimeError(f"quotient tables failed validation: {exc}") from exc
    return QuotientMap(algebra, target, class_of)


def preimage_ideal(qmap: QuotientMap, mask: int) -> int:
    """Pull an ideal of the quotient back along the projection."""
    if not is_ideal(qmap.target, mask):
        raise AlgebraError("preimage_ideal expects an ideal of the target")
    out = 0
    for a in qmap.source.elements():
        if mask >> qmap.projection[a] & 1:
            out |= 1 << a
    return out
