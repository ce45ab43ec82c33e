"""Ideal arithmetic over finite B1-algebras.

Ideals are plain int bitmasks: bit i set means element i belongs to the
ideal, with element 0 (zero) as the least significant bit.  Every proper
ideal result here is a mask over the algebra passed alongside it.  The
algebra's memo (``Algebra._memo``) is the engine's only cache, and a memo
hit is one Python frame.  ``_per_algebra`` computes each family once per
instance, the ideals themselves included: ``enumerate_ideals`` finds them
as joins of principal ideals and refuses once it finds more than the
enumeration bound.  That search is the only reader of the bound.  The
families that list every ideal (the ideals, primes and primaries and what
is built on them) are read off it, so an instance past the bound is
refused by each of them, and an instance whose ideals are known answers
each from its memo, whatever the bound is by then.  The saturated ideals
are read off the natural order instead (``enumerate_saturated_ideals``),
so they and the families built on them answer under any bound.
Saturations, radicals, joins with principal ideals, the ideal test,
annihilators and conductors read the masks each ``Algebra`` builds from its
tables instead of scanning the tables on every call: the saturation of I
ORs the down-sets ``Algebra._down[i]`` of its members i.  ``_pairs_in``
gives every conductor of an ideal at once, and ``conductor`` is one row of
it.
The quotient refuses a non-ideal with the witness ``ideal_violation``
names; ``member_labels``, the Bourne congruence and the prime, primary and
divisor-set tests refuse a mask with a bit at or past the order;
saturations, radicals and conductors ignore it.
Every public function that takes a mask refuses one that is not an int,
bool included, and every one that takes an algebra refuses a first
argument that is not an ``Algebra``: the memoized ones in their
``_per_*`` wrapper, the others where they first read it.

``_per_mask`` computes each per-ideal result once per instance and mask:
saturations, the saturated test, radicals and the ideal test here, the
prime test, primarity and divisor sets in ``spectrum``, and the split
steps, Evans reports and radical decompositions in ``decompose``.  So a
memo entry is a family's result or a dict from mask to result.  Every
caller, the one-pass filters included, goes through the memoized
function.  None of these enumerates, so they still answer past the bound.
A walk over a mask's bits that runs once per call takes the list
``_members`` returns; the few that run once per item walk the bits
inline, so that no loop enters a frame per item.  Public functions
range-check the element indices they are given; the engine's own
in-range calls read ``_generated`` and ``Algebra._annihilators`` instead.

The operations mirror the classical ones: generated ideals, the saturation
closure I-bar = {a : a + i = i for some i in I}, radicals, annihilators,
conductors, the single-witness Bourne congruence (a ~ b iff a + w = b + w
for some w in I, read off the join of I as one witness) and the quotient
A/I by it, which is taken by an ideal only, never by an arbitrary
partition.  In characteristic one the sum of two ideals is {i + j}, so
``_join`` builds every ideal here as a join of principal ideals.
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple

from .algebra import Algebra, AlgebraError

__all__ = (
    "Congruence", "EnumerationBoundError", "annihilator", "bits", "bourne_congruence",
    "conductor", "enumerate_ideals", "enumerate_saturated_ideals", "enumeration_bound",
    "full_mask", "generated_ideal", "ideal_violation", "is_ideal", "is_saturated", "mask_of",
    "member_labels", "quotient", "radical", "saturation",
)

DEFAULT_ENUMERATION_BOUND = 2**19  # the most ideals of any algebra of order <= 20
ENUMERATION_BOUND_ENV = "B1ALG_ENUM_BOUND"


class EnumerationBoundError(AlgebraError):
    """The algebra has more ideals than the enumeration bound admits."""


def enumeration_bound() -> int:
    """Most ideals an algebra may have for the families that list every
    ideal to be computed.

    Read from the environment on every call.  The engine reads it in one
    place: ``enumerate_ideals``, when an instance's ideals are first
    enumerated.
    """
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


def _members(mask: int) -> list[int]:
    """The set bit positions of mask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _not_an_int(mask) -> AlgebraError:
    """The refusal of a mask that is not an int; a bool is refused too, as
    it would otherwise read the memo entry of the int it equals."""
    return AlgebraError(f"mask {mask!r} is not an int")


def _not_an_algebra(algebra) -> AlgebraError:
    """The refusal of a first argument that has no ``Algebra._memo``."""
    return AlgebraError(f"algebra {algebra!r} is not an Algebra")


def bits(mask: int):
    """An iterator over the set bit positions of mask in ascending order.

    A mask that is not an int, or is negative, is refused on the call.
    """
    if type(mask) is not int:
        raise _not_an_int(mask)
    if mask < 0:
        raise AlgebraError(f"mask {mask} is negative")
    return iter(_members(mask))


def _not_an_ideal(algebra: Algebra, violation: tuple[str, tuple[int, ...]]) -> AlgebraError:
    """The refusal of a mask that ``ideal_violation`` rejects, naming its witness."""
    what, witness = violation
    names = ", ".join([algebra.names[w] if w < algebra.order else f"bit {w}" for w in witness])
    return AlgebraError(f"the set {what} (witness: {names})")


def _out_of_range(algebra: Algebra, mask: int) -> AlgebraError:
    """The refusal of a mask with a bit at or past the order, naming the
    lowest: the first condition ``ideal_violation`` tests."""
    return _not_an_ideal(algebra, ideal_violation(algebra, mask))


def _listed(elements) -> list:
    """The items of an iterable argument of element indices, refusing a
    non-iterable by name."""
    try:
        items = iter(elements)
    except TypeError:
        raise AlgebraError(f"elements {elements!r} is not an iterable of element indices") from None
    return list(items)


def mask_of(elements) -> int:
    """The mask with bit e set for each element index e."""
    out = 0
    for e in _listed(elements):
        if type(e) is not int or e < 0:
            raise AlgebraError(f"element index {e!r} is not an int >= 0")
        out |= 1 << e
    return out


def _canonical(masks) -> list[int]:
    """Masks in the canonical report order: cardinality, then mask value."""
    # The sort is stable, so sorting by value first leaves ties by value.
    return sorted(sorted(masks), key=int.bit_count)


def _per_algebra(fn):
    """Run fn(algebra) once per algebra instance, memoized on the instance
    under fn.  A hit is one frame.

    Errors are not memoized, so a family that ``enumerate_ideals`` refused
    is computed afresh on the next call.  fn must return values that do not
    refer to the algebra, or the memo would keep its own algebra alive.
    """

    @functools.wraps(fn)
    def once(algebra: Algebra):
        try:
            return algebra._memo[fn]
        except KeyError:
            out = algebra._memo[fn] = fn(algebra)
            return out
        except AttributeError:
            raise _not_an_algebra(algebra) from None

    return once


def _per_mask(fn):
    """Run fn(algebra, mask) once per algebra instance and mask, memoized
    on the instance in a dict keyed by mask.  A hit is one frame.

    A mask that is not an int is refused before the memo is read, so a
    bool or float equal to a memoized int never reads that int's entry.
    Errors are not memoized.  fn must return immutable values that do not
    refer to the algebra, or the memo would keep its own algebra alive.
    Callers never read fn around the memo; a function whose memo would not
    pay, such as ``_pairs_in`` or ``bourne_congruence``, is left unwrapped
    instead.
    """

    @functools.wraps(fn)
    def once(algebra: Algebra, mask: int):
        if type(mask) is not int:
            raise _not_an_int(mask)
        try:
            return algebra._memo[fn][mask]
        except KeyError:
            out = algebra._memo.setdefault(fn, {})[mask] = fn(algebra, mask)
            return out
        except AttributeError:
            raise _not_an_algebra(algebra) from None

    return once


def full_mask(algebra: Algebra) -> int:
    """Mask of every element: the public name of ``Algebra._full``, which
    the package itself reads directly."""
    try:
        return algebra._full
    except AttributeError:
        raise _not_an_algebra(algebra) from None


def member_labels(algebra: Algebra, mask: int) -> tuple[str, ...]:
    """Labels of the mask's members in element-index order (zero first)."""
    if type(mask) is not int:
        raise _not_an_int(mask)
    try:
        if mask & ~algebra._full:
            raise _out_of_range(algebra, mask)
    except AttributeError:
        raise _not_an_algebra(algebra) from None
    names, out = algebra.names, []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def is_ideal(algebra: Algebra, mask: int) -> bool:
    return ideal_violation(algebra, mask) is None


@_per_mask
def ideal_violation(algebra: Algebra, mask: int) -> tuple[str, tuple[int, ...]] | None:
    """First failed ideal condition as (description, witness), else None."""
    if mask & ~algebra._full:
        high = mask >> algebra.order
        stray = (high & -high).bit_length() - 1 + algebra.order  # the lowest such bit
        return ("contains an out-of-range element", (stray,))
    if not mask & 1:
        return ("does not contain zero", (0,))
    members = _members(mask)
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


def generated_ideal(algebra: Algebra, elements) -> int:
    """Smallest ideal containing the given elements; a first argument that
    is not an ``Algebra`` is refused before the elements are read."""
    if not isinstance(algebra, Algebra):
        raise _not_an_algebra(algebra)
    elements = _listed(elements)
    for s in elements:
        algebra._require_element(s)
    return _generated(algebra, elements)


def _generated(algebra: Algebra, elements: list[int]) -> int:
    """``generated_ideal`` of elements already in range: the join of their
    principal ideals A*s, each holding s since 1*s = s."""
    mask = 1
    for s in elements:
        if not mask >> s & 1:
            mask = _join(algebra, mask, algebra._principal[s])
    return mask


@_per_mask
def saturation(algebra: Algebra, mask: int) -> int:
    """Closure I-bar = {a : a + i = i for some i in I}.

    Bits at or past the order are ignored.
    """
    out = 0
    for i, down in enumerate(algebra._down):
        if mask >> i & 1:
            out |= down
    return out


@_per_mask
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


def annihilator(algebra: Algebra, s: int) -> int:
    """Ann(s) = {x : s*x = 0}; always a saturated ideal."""
    try:
        algebra._require_element(s)
    except AttributeError:
        raise _not_an_algebra(algebra) from None
    return algebra._annihilators[s]


def conductor(algebra: Algebra, x: int, mask: int) -> int:
    """C_x(J) = {y : x*y in J}; saturated whenever J is.

    Bits of J at or past the order are ignored.
    """
    try:
        algebra._require_element(x)
    except AttributeError:
        raise _not_an_algebra(algebra) from None
    if type(mask) is not int:
        raise _not_an_int(mask)
    return _pairs_in(algebra, mask) >> x * algebra.order & algebra._full


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


def _join(algebra: Algebra, ideal: int, other: int) -> int:
    """I + J = {i + j}, exact when I and J are ideals; only sums of i
    outside J and j outside I are new."""
    add = algebra.add
    joined = ideal | other
    fresh = []
    rest = other & ~ideal
    while rest:
        low = rest & -rest
        fresh.append(low.bit_length() - 1)
        rest ^= low
    rest = ideal & ~other
    while rest:
        low = rest & -rest
        row = add[low.bit_length() - 1]
        for j in fresh:
            joined |= 1 << row[j]
        rest ^= low
    return joined


# ---------------------------------------------------------------------------
# Ideal enumeration by joins of principal ideals

@_per_algebra
def enumerate_ideals(algebra: Algebra) -> tuple[int, ...]:
    """All ideals, sorted by cardinality then by mask value.

    The whole algebra is the only ideal with ``order`` members, so it comes
    last: the proper ideals, or saturated ideals, are all but the last.
    Found once per algebra as joins of principal ideals, in time that grows
    with their number.  The search reads ``enumeration_bound()`` on entry
    and stops as soon as it finds more ideals than that; the refusal is not
    memoized, so a raised bound lets the next call enumerate afresh.
    """
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
                raise EnumerationBoundError(
                    f"the ideals of this order-{algebra.order} algebra exceed the "
                    f"enumeration bound {bound}; raise it via {ENUMERATION_BOUND_ENV} "
                    "if you have the patience"
                )
    return tuple(_canonical(found))


@_per_algebra
def enumerate_saturated_ideals(algebra: Algebra) -> tuple[int, ...]:
    """All saturated ideals, in the canonical order of ``enumerate_ideals``,
    read off the natural order with no enumeration, so past the bound too.

    With T the sum of all elements and down(t) = {a : a + t = t}
    (``Algebra._down``), they are exactly the sets down(t) with T*t = t.  A
    saturated ideal I is a down-set closed under +, so it holds t, the sum
    of its members, and I = down(t).  down(t) is always a down-set closed
    under +.  For x <= t, distributivity gives a*x <= a*t <= T*t, and
    t = 1*t <= T*t.  So down(t) is an ideal when T*t = t; and when it is an
    ideal it holds T*t, so T*t <= t.  t is the largest member of down(t), so
    no set is listed twice.
    """
    top = algebra.mul[_member_sum(algebra, algebra._full)]
    return tuple(_canonical([down for t, down in enumerate(algebra._down) if top[t] == t]))


# ---------------------------------------------------------------------------
# Congruences and quotients


class Congruence(namedtuple("Congruence", "class_of classes")):
    """Partition of an algebra compatible with both operations.

    class_of: tuple[int, ...]; classes: tuple[int, ...].
    ``class_of[a]`` is the class index of element a; ``classes[k]`` is the
    member mask of class k.  Classes are numbered by smallest member, so
    the class of zero is always class 0.
    """

    __slots__ = ()


def _member_sum(algebra: Algebra, mask: int) -> int:
    """The sum t of the mask's members: an ideal's largest element, whose
    row x -> x + t gives its Bourne classes."""
    add = algebra.add
    t = 0
    while mask:
        low = mask & -mask
        t = add[t][low.bit_length() - 1]
        mask ^= low
    return t


def bourne_congruence(algebra: Algebra, mask: int) -> Congruence:
    """Congruence of an ideal: a ~ b iff a + w = b + w for some w in I.

    The join t of I's members is in I and w + t = t for every w in I, so
    a ~ b iff a + t = b + t, and the classes are the fibres of x -> x + t,
    numbered by smallest member.  A mask that does not hold its join (no
    ideal) is refused.  The class of zero is exactly the saturation of I.
    """
    if type(mask) is not int:
        raise _not_an_int(mask)
    try:
        if mask & ~algebra._full:
            raise _out_of_range(algebra, mask)
    except AttributeError:
        raise _not_an_algebra(algebra) from None
    t = _member_sum(algebra, mask)
    if not mask >> t & 1:
        raise AlgebraError(
            "the set does not hold the join of its members "
            f"(witness: {algebra.names[t]})"
        )
    class_at: dict[int, int] = {}  # x + t -> class index
    class_of = []
    classes: list[int] = []
    for x, v in enumerate(algebra.add[t]):
        if v not in class_at:
            class_at[v] = len(classes)
            classes.append(0)
        k = class_at[v]
        classes[k] |= 1 << x
        class_of.append(k)
    return Congruence(tuple(class_of), tuple(classes))


def quotient(algebra: Algebra, mask: int) -> Algebra:
    """A/I, the quotient by the Bourne congruence of the ideal I.

    Its elements are the classes of ``bourne_congruence``, each labelled
    ``[r]`` by its smallest member r; ``bourne_congruence(algebra,
    mask).class_of`` is the projection.  A non-ideal is refused with its
    witness.  The partition is not checked again, as the Bourne partition
    of an ideal is always a congruence.  Let t be the join of I, so that
    a ~ b means a + t = b + t.  Then (a + c) + t = (b + c) + t.  And c*t
    lies in I, so c*t + t = t and c*a + t = c*(a + t) + t = c*(b + t) + t
    = c*b + t.  The ``Algebra`` constructor checks the target's axioms.
    """
    bad = ideal_violation(algebra, mask)
    if bad:
        raise _not_an_ideal(algebra, bad)
    class_of, classes = bourne_congruence(algebra, mask)
    reps = [(c & -c).bit_length() - 1 for c in classes]  # the smallest member of each class
    add = tuple(tuple(class_of[algebra.add[r][s]] for s in reps) for r in reps)
    mul = tuple(tuple(class_of[algebra.mul[r][s]] for s in reps) for r in reps)
    return Algebra(tuple([f"[{algebra.names[r]}]" for r in reps]), add, mul, class_of[algebra.one])
