"""Classification of ideals: primes, primaries, spectra, associated primes.

The divisor set D(I) = {x : x*y in I for some y outside I} is the one row
scan: it reads the pair mask P(I) = {(u, v) : u*v in I}
(``ideals._pairs_in``), whose row x is the conductor C_x(I), once, and
keeps the x whose row meets the outside of I.  The prime and primary
tests are inclusions in it: I is prime iff D(I) is inside I, and primary
iff D(I) is inside r(I) (Atiyah-Macdonald, ch. 4).  The three are
memoized per algebra and mask (``ideals._per_mask``), so each mask's row
scan runs once, and the divisor set refuses an out-of-range mask for all
three.  The weak decomposition's split step reads D(J) too: the least
element of D(J) outside J starts J's first failing pair, if J is not prime.
Every family (primes, saturated primes, primaries, the minimal and maximal
spectra, associated primes and the standard verdict) is memoized once per
algebra (``ideals._per_algebra``).  The saturated primes are the saturated
ideals that pass the prime test, so they, the minimal saturated primes,
the maximal saturated ideals, the standard cover and the associated primes
never enumerate the ideals; the primes and primaries do.  Lists come
back in the canonical enumeration order (cardinality, then mask value), so
reports are diffable.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Algebra
from .ideals import (
    _canonical,
    _not_an_algebra,
    _out_of_range,
    _pairs_in,
    _per_algebra,
    _per_mask,
    enumerate_ideals,
    enumerate_saturated_ideals,
    radical,
)

__all__ = (
    "SpectrumResult", "associated_primes", "divisor_set", "is_primary", "is_prime",
    "is_standard", "max_saturated", "min_primes", "min_saturated_primes", "nilradical",
    "primes", "saturated_primes", "spectrum", "zero_divisors",
)


@_per_mask
def is_prime(algebra: Algebra, mask: int) -> bool:
    """Proper, and u*v in I forces u in I or v in I.

    That is D(I) inside I: an x in D(I) outside I is an x and a y, both
    outside I, with x*y in I.  This holds for any in-range mask.
    """
    return mask != algebra._full and not divisor_set(algebra, mask) & ~mask


@_per_mask
def is_primary(algebra: Algebra, mask: int) -> bool:
    """Proper, and x*y in Q forces x in Q or some power of y in Q.

    The power condition on y is membership in r(Q), so Q is primary iff
    the conductor C_x(Q) = {y : x*y in Q} of each x outside Q lies in
    r(Q).  As x*y = y*x, D(Q) is the union of those conductors, so that is
    D(Q) inside r(Q).  This holds for any in-range mask.
    """
    return mask != algebra._full and not divisor_set(algebra, mask) & ~radical(algebra, mask)


@_per_algebra
def primes(algebra: Algebra) -> tuple[int, ...]:
    return tuple([m for m in enumerate_ideals(algebra) if is_prime(algebra, m)])


@_per_algebra
def saturated_primes(algebra: Algebra) -> tuple[int, ...]:
    return tuple([p for p in enumerate_saturated_ideals(algebra) if is_prime(algebra, p)])


@_per_algebra
def _primaries(algebra: Algebra) -> tuple[int, ...]:
    """The primary ideals, in the canonical order."""
    return tuple([m for m in enumerate_ideals(algebra) if is_primary(algebra, m)])


def _minimal(family) -> tuple[int, ...]:
    """The minimal members of a family of distinct masks in canonical order.

    A strict subset has fewer members, so it comes first in that order.  A
    member is kept unless a member kept before it lies inside it.  So every
    minimal member is kept, and a member m that is not minimal is dropped:
    a strict subset of m in the family holds a minimal member, which is a
    strict subset of m too, so it came before m and was kept.
    """
    out = []
    for m in family:
        for o in out:
            if o & m == o:
                break
        else:
            out.append(m)
    return tuple(out)


def _maximal(family) -> tuple[int, ...]:
    """The maximal members of a family of distinct masks in canonical order.

    ``_minimal``'s mirror: over the reversed family a strict superset comes
    first, and a member is kept unless a member kept before it holds it.
    """
    out = []
    for m in reversed(family):
        for o in out:
            if o & m == m:
                break
        else:
            out.append(m)
    return tuple(reversed(out))


@_per_algebra
def min_primes(algebra: Algebra) -> tuple[int, ...]:
    return _minimal(primes(algebra))


@_per_algebra
def min_saturated_primes(algebra: Algebra) -> tuple[int, ...]:
    return _minimal(saturated_primes(algebra))


@_per_algebra
def max_saturated(algebra: Algebra) -> tuple[int, ...]:
    """Maximal elements among the proper saturated ideals."""
    return _maximal(enumerate_saturated_ideals(algebra)[:-1])


def zero_divisors(algebra: Algebra) -> int:
    """Mask of nonzero elements that kill some nonzero element: ``Algebra._zero_divisors``."""
    try:
        return algebra._zero_divisors
    except AttributeError:
        raise _not_an_algebra(algebra) from None


@_per_mask
def divisor_set(algebra: Algebra, mask: int) -> int:
    """D(I) = {x : x*y in I for some y outside I}.

    Contains I whenever I is proper, and D({0}) is the zero divisors plus
    zero for any nontrivial algebra.
    """
    if mask & ~algebra._full:
        raise _out_of_range(algebra, mask)
    n, outside = algebra.order, algebra._full & ~mask
    pairs = _pairs_in(algebra, mask)  # row x is the conductor C_x(I)
    out = 0
    for x in range(n):
        if pairs >> x * n & outside:
            out |= 1 << x
    return out


def nilradical(algebra: Algebra) -> int:
    return radical(algebra, 1)


@_per_algebra
def associated_primes(algebra: Algebra) -> tuple[tuple[int, int], ...]:
    """Pairs (witness x, prime) where the prime pulls back from a minimal
    prime of the quotient by the Bourne congruence of Ann(x).

    The quotient is never built.  Its primes pull back, keeping inclusion
    and saturation, and a saturated prime is a pull-back exactly when it
    holds the join of Ann(x), so exactly when it holds Ann(x): a saturated
    ideal is closed under + one way and a down-set the other.  Minimal
    primes are saturated: for x in a minimal prime P some s outside P and
    k >= 1 have s*x^k = 0, so each a <= x has s*a^k = 0 and lies in P.  So
    x gives the minimal saturated primes that hold Ann(x).  One witness is
    kept per distinct prime, the smallest element index; x = 1 always
    contributes, so the minimal primes are always present.
    """
    candidates = saturated_primes(algebra)
    found: dict[int, int] = {}
    for x in range(1, algebra.order):
        killed = algebra._annihilators[x]
        holding = []
        for p in candidates:
            if not killed & ~p:
                holding.append(p)
        for p in _minimal(holding):
            found.setdefault(p, x)
    return tuple([(found[p], p) for p in _canonical(found)])


@_per_algebra
def is_standard(algebra: Algebra) -> tuple[bool, tuple[int, ...]]:
    """Whether the zero divisors plus zero are a union of saturated primes.

    Returns the verdict and the unique minimum cover: the maximal saturated
    primes inside the target D({0}), in canonical order.  If an ideal M lay
    in a union of saturated ideals Q_1..Q_k but in none of them, some a_i
    in M outside each Q_i would sum to s in M, so s lies in some Q_j, and
    a_j <= s puts a_j in the down-set Q_j.  So every cover holds each
    maximal candidate, and they cover whenever any cover exists.

    Every finite algebra is standard, and its cover is the maximal
    annihilators Ann(y), y != 0.  D({0}) is the union of those Ann(y).
    Each is saturated: from a <= x, that is a + x = x, and x*y = 0 follows
    a*y + x*y = x*y, so a*y = 0.  A maximal one is prime: it is proper, as
    1*y = y, and if a*b*y = 0 with a*y != 0, then Ann(a*y) holds Ann(y),
    is equal to it by maximality, and holds b.  So the maximal
    annihilators are saturated primes that cover D({0}); by the argument
    above each candidate lies in one of them, so they are the maximal
    candidates.  The verdict is still computed, so that a corrupted divisor
    set or family fails it.
    """
    target = divisor_set(algebra, 1)
    candidates = []
    union = 0
    for p in saturated_primes(algebra):
        if not p & ~target:
            candidates.append(p)
            union |= p
    if union != target:
        return False, ()
    return True, _maximal(candidates)


class SpectrumResult(namedtuple("SpectrumResult", (
    "primes",                # tuple[int, ...]
    "saturated_primes",      # tuple[int, ...]
    "min_primes",            # tuple[int, ...]
    "min_saturated_primes",  # tuple[int, ...]
    "max_saturated",         # tuple[int, ...]
    "associated",            # tuple[tuple[int, int], ...]
    "nilradical",            # int
    "zero_divisors",         # int
    "standard",              # bool
    "standard_cover",        # tuple[int, ...]
))):
    """One-shot classification of an algebra's ideal spectrum."""

    __slots__ = ()


def spectrum(algebra: Algebra) -> SpectrumResult:
    standard, cover = is_standard(algebra)
    return SpectrumResult(
        primes=primes(algebra),
        saturated_primes=saturated_primes(algebra),
        min_primes=min_primes(algebra),
        min_saturated_primes=min_saturated_primes(algebra),
        max_saturated=max_saturated(algebra),
        associated=associated_primes(algebra),
        nilradical=radical(algebra, 1),
        zero_divisors=algebra._zero_divisors,
        standard=standard,
        standard_cover=cover,
    )
