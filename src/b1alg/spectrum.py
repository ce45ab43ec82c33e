"""Classification of ideals: primes, primaries, spectra, associated primes.

Primality, primarity and divisor sets are read off the pair mask
P(I) = {(u, v) : u*v in I} (``ideals._pairs_in``), whose row u is the
conductor C_u(I): each predicate ORs the pair-product masks of ``Algebra``
over I once and then reads the rows of the elements outside I, with no
per-element conductor call.  The prime and primary tests and divisor sets
are memoized per algebra and mask (``ideals._per_mask``); the prime test
is the prime question's one memo, and ``_prime_witness`` gives the
failing pair to its one other caller, the weak decomposition's split
step, which is memoized per node.
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
    _member_sum,
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


def _prime_witness(algebra: Algebra, mask: int) -> tuple[int, int] | None:
    """First (u, v) in element-index order with u, v outside and u*v inside.

    The first outside u whose row of P(I) meets the outside, with the
    lowest bit of that meet as v.
    """
    n, outside = algebra.order, algebra._full & ~mask
    pairs = _pairs_in(algebra, mask)  # row u is the conductor C_u(I)
    rest = outside
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        hits = pairs >> u * n & outside
        if hits:
            return u, (hits & -hits).bit_length() - 1
        rest ^= low
    return None


@_per_mask
def is_prime(algebra: Algebra, mask: int) -> bool:
    """Proper, and u*v in I forces u in I or v in I."""
    if mask & ~algebra._full:
        raise _out_of_range(algebra, mask)
    return mask != algebra._full and _prime_witness(algebra, mask) is None


@_per_mask
def is_primary(algebra: Algebra, mask: int) -> bool:
    """Proper, and x*y in Q forces x in Q or some power of y in Q.

    The power condition on y is exactly membership in the radical, so Q is
    primary iff no row of P(Q) for an x outside Q meets the complement of
    r(Q).
    """
    n, full = algebra.order, algebra._full
    if mask & ~full:
        raise _out_of_range(algebra, mask)
    if mask == full:
        return False
    pairs = _pairs_in(algebra, mask)  # row x is the conductor C_x(Q)
    beyond = full & ~radical(algebra, mask)
    rest = full & ~mask
    while rest:
        low = rest & -rest
        if pairs >> (low.bit_length() - 1) * n & beyond:
            return False
        rest ^= low
    return True


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
    out = []
    for m in family:
        for o in family:
            if o != m and o & m == o:
                break
        else:
            out.append(m)
    return tuple(out)


def _maximal(family) -> tuple[int, ...]:
    out = []
    for m in family:
        for o in family:
            if o != m and o & m == m:
                break
        else:
            out.append(m)
    return tuple(out)


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
    """Mask of nonzero elements that kill some nonzero element."""
    n = algebra.order
    killed = algebra._products[0]  # row a is Ann(a)
    nonzero = algebra._full & ~1
    out = 0
    for a in range(1, n):
        if killed >> a * n & nonzero:
            out |= 1 << a
    return out


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

    The quotient is never built: its primes pull back, keeping inclusion
    and saturation, to the primes that are unions of the fibres of
    y -> y + t, with t the join of Ann(x).  A saturated prime is a down-set,
    so it is such a union exactly when it holds t: the fibre of 0 holds t,
    and z <= z + t = y + t.  Minimal primes are saturated: for x in a
    minimal prime P some s outside P and k >= 1 have s*x^k = 0, so each
    a <= x has s*a^k = 0 and lies in P.  So x gives the minimal saturated
    primes that hold t.  One witness is kept per distinct prime, the
    smallest element index; x = 1 always contributes, so the minimal primes
    are always present.
    """
    candidates = saturated_primes(algebra)
    n, full = algebra.order, algebra._full
    killed = algebra._products[0]  # row x is Ann(x)
    found: dict[int, int] = {}
    for x in range(1, n):
        t = _member_sum(algebra, killed >> x * n & full)
        holding = []
        for p in candidates:
            if p >> t & 1:
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
    "algebra",               # Algebra
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
        algebra=algebra,
        primes=primes(algebra),
        saturated_primes=saturated_primes(algebra),
        min_primes=min_primes(algebra),
        min_saturated_primes=min_saturated_primes(algebra),
        max_saturated=max_saturated(algebra),
        associated=associated_primes(algebra),
        nilradical=nilradical(algebra),
        zero_divisors=zero_divisors(algebra),
        standard=standard,
        standard_cover=cover,
    )
