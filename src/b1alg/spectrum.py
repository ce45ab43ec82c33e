"""Classification of ideals: primes, primaries, spectra, associated primes.

Primality, primarity and divisor sets are read off the pair mask
P(I) = {(u, v) : u*v in I} (``ideals._pairs_in``), whose row u is the
conductor C_u(I): each predicate ORs the pair-product masks of ``Algebra``
over I once and ANDs the result with a block of pairs, with no
per-element conductor call.  Prime witnesses, primarity and divisor sets
are memoized per algebra and mask (``ideals._per_mask``).  Lists come
back in the canonical enumeration order (cardinality, then mask value),
so reports are diffable.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .algebra import Algebra
from .ideals import (
    _block,
    _canonical,
    _pairs_in,
    _per_algebra,
    _per_mask,
    annihilator,
    bourne_congruence,
    enumerate_ideals,
    enumerate_saturated_ideals,
    is_saturated,
    radical,
)


@_per_mask
def _prime_witness(algebra: Algebra, mask: int) -> tuple[int, int] | None:
    """First (u, v) in element-index order with u, v outside and u*v inside.

    Pair (u, v) sits at bit u*n + v, so the lowest bit is that pair.  The
    pair mask is read unmemoized: ``primes`` asks about every ideal, and a
    witness is much smaller than a pair mask.
    """
    outside = algebra._full & ~mask
    hits = _pairs_in.__wrapped__(algebra, mask) & _block(algebra, outside, outside)
    if not hits:
        return None
    return divmod((hits & -hits).bit_length() - 1, algebra.order)


def is_prime(algebra: Algebra, mask: int) -> bool:
    """Proper, and u*v in I forces u in I or v in I."""
    return mask != algebra._full and _prime_witness(algebra, mask) is None


@_per_mask
def is_primary(algebra: Algebra, mask: int) -> bool:
    """Proper, and x*y in Q forces x in Q or some power of y in Q.

    The power condition on y is exactly membership in the radical, so one
    radical computation replaces the per-pair exponent search.  Both masks
    are read unmemoized, so that ``_primaries``, which reads this function
    unmemoized, leaves every per-mask memo alone.
    """
    full = algebra._full
    if mask == full:
        return False
    rad = radical.__wrapped__(algebra, mask)
    outside = _block(algebra, full & ~mask, full & ~rad)
    return not _pairs_in.__wrapped__(algebra, mask) & outside


@_per_algebra
def primes(algebra: Algebra) -> tuple[int, ...]:
    return tuple(m for m in enumerate_ideals(algebra) if is_prime(algebra, m))


@_per_algebra
def saturated_primes(algebra: Algebra) -> tuple[int, ...]:
    return tuple(p for p in primes(algebra) if is_saturated(algebra, p))


@_per_algebra
def _primaries(algebra: Algebra) -> tuple[int, ...]:
    # One pass over every ideal, so it reads the unmemoized predicate.
    primary = is_primary.__wrapped__
    return tuple(m for m in enumerate_ideals(algebra) if primary(algebra, m))


def _minimal(family) -> tuple[int, ...]:
    fam = list(family)
    return tuple(
        m for m in fam if not any(o != m and o & m == o for o in fam)
    )


def _maximal(family) -> tuple[int, ...]:
    fam = list(family)
    return tuple(
        m for m in fam if not any(o != m and o & m == m for o in fam)
    )


def min_primes(algebra: Algebra) -> tuple[int, ...]:
    return _minimal(primes(algebra))


def min_saturated_primes(algebra: Algebra) -> tuple[int, ...]:
    return _minimal(saturated_primes(algebra))


def max_saturated(algebra: Algebra) -> tuple[int, ...]:
    """Maximal elements among the proper saturated ideals."""
    full = algebra._full
    proper = [m for m in enumerate_saturated_ideals(algebra) if m != full]
    return _maximal(proper)


def zero_divisors(algebra: Algebra) -> int:
    """Mask of nonzero elements that kill some nonzero element."""
    mul = algebra.mul
    out = 0
    for a in range(1, algebra.order):
        row = mul[a]
        if any(row[b] == 0 for b in range(1, algebra.order)):
            out |= 1 << a
    return out


@_per_mask
def divisor_set(algebra: Algebra, mask: int) -> int:
    """D(I) = {x : x*y in I for some y outside I}.

    Contains I whenever I is proper, and D({0}) is the zero divisors plus
    zero for any nontrivial algebra.
    """
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

    The quotient is never built: its primes pull back to exactly the
    primes of the algebra that are unions of congruence classes, and the
    pullback keeps inclusion, so the minimal ones among those are the
    answer.  One witness is kept per distinct prime, the smallest element
    index; x = 1 always contributes, so the minimal primes are always
    present.
    """
    candidates = primes(algebra)
    found: dict[int, int] = {}
    for x in range(1, algebra.order):
        classes = bourne_congruence(algebra, annihilator(algebra, x)).classes
        unions = [p for p in candidates if all(p & c in (0, c) for c in classes)]
        for p in _minimal(unions):
            found.setdefault(p, x)
    return tuple((found[p], p) for p in _canonical(found))


def is_standard(algebra: Algebra) -> tuple[bool, tuple[int, ...]]:
    """Whether the zero divisors plus zero are a union of saturated primes.

    Returns the verdict and a minimum-size witnessing cover (searched over
    the saturated primes contained in the target, smallest combinations
    first, in canonical order).
    """
    target = divisor_set(algebra, 1)
    candidates = [p for p in saturated_primes(algebra) if not p & ~target]
    union = 0
    for p in candidates:
        union |= p
    if union != target:
        return False, ()
    for k in range(len(candidates) + 1):
        for combo in combinations(candidates, k):
            m = 0
            for p in combo:
                m |= p
            if m == target:
                return True, combo
    return False, ()  # pragma: no cover - the full candidate union covers


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
