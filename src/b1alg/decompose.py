"""Decompositions, laskerian verdicts, Evans reports, and the law audit.

The central algorithm turns the existence proof for weak primary
decomposition into a terminating procedure: a saturated radical ideal that
is not prime admits a witness pair (u, v) outside it with u*v inside, and
splitting along the saturations of J + Au and J + Av, then recursing on
their radicals, yields finitely many saturated primes intersecting exactly
to J.  Taking radicals before recursing is what restores the precondition
at every node; the intersection identity survives because a power landing
in both branches lands, after one more squaring, in J itself.  Only the
public entry points check the precondition; ``_split`` trusts its input.
Each node is split once per algebra (``_split_step``), which reads both
the prime verdict and the witness off the divisor set D(J), and every
decomposition and audit law that passes through it reuses that step.
Each walk checks the variant its end rests on: the split, that each arm
strictly holds its node, on every visit, memo hit or not; the laskerian
meet closure, that it never outgrows the proper saturated ideals.  A
failed check raises RuntimeError instead of walking for ever.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Algebra, AlgebraError
from .ideals import (
    _canonical,
    _generated,
    _join,
    _members,
    _not_an_ideal,
    _pairs_in,
    _per_algebra,
    _per_mask,
    bourne_congruence,
    enumerate_ideals,
    enumerate_saturated_ideals,
    ideal_violation,
    is_saturated,
    member_labels,
    radical,
    saturation,
)
from .spectrum import (
    _maximal,
    _primaries,
    associated_primes,
    divisor_set,
    is_primary,
    is_prime,
    is_standard,
    max_saturated,
    min_primes,
    min_saturated_primes,
    saturated_primes,
    zero_divisors,
)

__all__ = (
    "AuditCheck", "AuditResult", "DecompositionResult", "EvansReport", "LaskerianReport",
    "audit", "evans_report", "laskerian_check", "minimalize", "radical_decomposition",
    "weak_decompose",
)


class DecompositionResult(namedtuple("DecompositionResult", (
    "input",        # int
    "components",   # tuple[int, ...]
    "irredundant",  # bool
    "split_trace",  # tuple[tuple[int, tuple[int, int]], ...]: (node, (u, v))
))):
    __slots__ = ()

    def intersection(self) -> int:
        """The meet of the components; -1, every bit set, if there are none."""
        out = -1
        for c in self.components:
            out &= c
        return out


class EvansReport(namedtuple("EvansReport", (
    "ideal",                     # int
    "maximal_conductors",        # tuple[tuple[int, int], ...]: (witness y, conductor)
    "all_prime",                 # bool
    "all_saturated",             # bool
    "union_equals_divisor_set",  # bool
    "passed",                    # bool
))):
    __slots__ = ()


class LaskerianReport(namedtuple("LaskerianReport", (
    "laskerian",            # bool
    "witness",              # int | None
    "table",                # tuple[tuple[int, tuple[int, ...]], ...]: ideal -> primaries
    "saturated_primaries",  # tuple[int, ...]
    "primaries",            # tuple[int, ...]
))):
    __slots__ = ()


class AuditCheck(namedtuple("AuditCheck", "name passed detail")):
    """name: str; passed: bool; detail: str."""

    __slots__ = ()


class AuditResult(namedtuple("AuditResult", "checks")):
    """checks: tuple[AuditCheck, ...]."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all([c.passed for c in self.checks])


def _require_saturated_proper(algebra: Algebra, mask: int) -> None:
    """Refuse a mask that is not a proper saturated ideal, naming a witness."""
    bad = ideal_violation(algebra, mask)
    if bad:
        raise _not_an_ideal(algebra, bad)
    if mask == algebra._full:
        raise AlgebraError("the ideal must be proper")
    if not is_saturated(algebra, mask):
        extra = saturation(algebra, mask) & ~mask
        raise AlgebraError(
            f"the ideal is not saturated; its closure adds {_labels(algebra, extra)}"
        )


def weak_decompose(algebra: Algebra, mask: int) -> DecompositionResult:
    """Split a saturated radical proper ideal into saturated primes.

    The witness pair at each node is the lexicographically smallest
    (u, v) in element-index order, so traces are reproducible.  The
    returned components always intersect exactly to the input.  Each
    node's witness and arms are computed once per algebra (``_split_step``)
    and shared by every split that passes through the node.
    """
    _require_saturated_proper(algebra, mask)
    extra = radical(algebra, mask) & ~mask
    if extra:
        culprit = (extra & -extra).bit_length() - 1
        raise AlgebraError(
            "weak_decompose requires a radical ideal; a power of "
            f"{algebra.names[culprit]!r} lies inside"
        )
    return _split(algebra, mask)


@_per_mask
def _split_step(algebra: Algebra, j: int) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The one split of node j, proper, saturated and radical: None if j is
    prime, else its witness pair (u, v) and its arms r(sat(j + A*u)) and
    r(sat(j + A*v)), each strictly between j and the whole algebra.
    ``_split`` checks the arms on every visit.

    Both come from D(j) outside j, the u outside j with u*v in j for some v
    outside j: it is empty iff j is prime.  Its least u, with the least v
    outside j in C_u(j), is the first such pair in element-index order: any
    other (u', v') has u' in it, so u' >= u, and v' >= v if u' = u.
    """
    outside = algebra._full & ~j
    d = divisor_set(algebra, j) & outside
    if not d:
        return None
    u = (d & -d).bit_length() - 1
    for v, uv in enumerate(algebra.mul[u]):
        if outside >> v & 1 and j >> uv & 1:
            break
    else:
        raise RuntimeError("split witness has no partner outside the node (engine bug)")
    arm_u = radical(algebra, saturation(algebra, _join(algebra, j, algebra._principal[u])))
    arm_v = radical(algebra, saturation(algebra, _join(algebra, j, algebra._principal[v])))
    return (u, v), (arm_u, arm_v)


def _split(algebra: Algebra, mask: int) -> DecompositionResult:
    """``weak_decompose`` of a proper, saturated, radical ideal, unchecked.

    Depth first on an explicit stack, u's arm first, reading each node's
    step from ``_split_step``; the trace lists every visit.  A node is the
    meet of the saturated primes above it and each arm strictly holds its
    node, so a split is at most as deep as there are saturated primes above
    its input, which can pass the recursion limit: the walk never recurses.
    The walk checks both arms of every visit, memo hit or not, so a step
    that breaks this raises instead of walking for ever.
    """
    components = set()
    trace: list[tuple[int, tuple[int, int]]] = []
    stack = [mask]
    while stack:
        j = stack.pop()
        step = _split_step(algebra, j)
        if step is None:
            components.add(j)
        else:
            arm_u, arm_v = step[1]
            if j & ~(arm_u & arm_v) or {arm_u, arm_v} & {j, algebra._full}:
                raise RuntimeError("split arm failed to grow properly (engine bug)")
            trace.append((j, step[0]))
            stack += arm_v, arm_u
    result = DecompositionResult(mask, tuple(_canonical(components)), False, tuple(trace))
    if result.intersection() != mask:
        raise RuntimeError("decomposition lost its intersection (engine bug)")
    return result


@_per_mask
def radical_decomposition(algebra: Algebra, mask: int) -> DecompositionResult:
    """Decompose the radical of a saturated ideal into saturated primes.

    The radical of a proper saturated ideal is itself proper and saturated,
    so it is split without a second check; the components intersect to r(I).
    """
    _require_saturated_proper(algebra, mask)
    return _split(algebra, radical(algebra, mask))._replace(input=mask)


def minimalize(result: DecompositionResult) -> DecompositionResult:
    """Drop components containing the intersection of the others.

    The intersection is preserved.  One pass in canonical order suffices:
    deleting a component can only enlarge the meet of the others, so a
    component kept because that meet escapes it stays irredundant.
    """
    if not isinstance(result, DecompositionResult):
        raise AlgebraError(f"result {result!r} is not a DecompositionResult")
    comps = list(result.components)
    k = 0
    while k < len(comps) > 1:
        rest = -1
        for o in comps[:k] + comps[k + 1:]:
            rest &= o
        if rest & ~comps[k]:
            k += 1
        else:
            del comps[k]
    return result._replace(components=tuple(comps), irredundant=True)


def laskerian_check(algebra: Algebra) -> LaskerianReport:
    """Can every proper saturated ideal be cut out by saturated primaries?

    The family of proper saturated primary ideals is closed under pairwise
    intersection to a meet-closed family with tracked components; the
    algebra is laskerian iff every proper saturated ideal shows up.  The
    improper ideal is the empty intersection by convention.  Both primary
    families (saturated and not) are reported; only the saturated one
    decides the verdict.

    Every member of the closure is a proper saturated ideal, since meets of
    saturated ideals are saturated, so a round that leaves more members than
    there are proper saturated ideals is an engine bug and raises.

    A ``table`` entry holds the components of the first pair of meets that
    reached its ideal.  They meet to it but need not be the minimal
    saturated primaries above it (``tests/support.monoid_ideal_algebra``).
    """
    proper_saturated = enumerate_saturated_ideals(algebra)[:-1]
    primaries = _primaries(algebra)
    sat_primaries = tuple([q for q in primaries if is_saturated(algebra, q)])

    reachable: dict[int, tuple[int, ...]] = {q: (q,) for q in sat_primaries}
    frontier = list(sat_primaries)
    while frontier:
        fresh: dict[int, tuple[int, ...]] = {}
        known = _canonical(reachable)
        for a in frontier:
            for b in known:
                c = a & b
                if c not in reachable and c not in fresh:
                    fresh[c] = tuple(_canonical(set(reachable[a]) | set(reachable[b])))
        reachable.update(fresh)
        if len(reachable) > len(proper_saturated):
            raise RuntimeError("meet closure outgrew the saturated ideals (engine bug)")
        frontier = _canonical(fresh)

    witness = None
    for m in proper_saturated:
        if m not in reachable:
            witness = m
            break
    table = tuple([(m, reachable[m]) for m in proper_saturated if m in reachable])
    return LaskerianReport(
        laskerian=witness is None,
        witness=witness,
        table=table,
        saturated_primaries=sat_primaries,
        primaries=primaries,
    )


@_per_mask
def evans_report(algebra: Algebra, mask: int) -> EvansReport:
    """Check that D(I) is the union of the maximal I-conductors.

    Conductors C_y(I) for y outside I are collected, the maximal ones kept
    (smallest witness y per distinct conductor), and each is required to
    be prime and saturated with their union equal to D(I).

    In a finite algebra it always passes (``is_standard``'s proof is the
    case I = {0}).  D(I) is the union of the C_y(I), each inside a maximal
    one.  A maximal C_y(I) is proper, as 1*y = y, and saturated: a <= x
    and x*y in I give a*y + x*y = x*y, so a*y lies in the down-set I.  It
    is prime: if a*b*y is in I and a*y is not, C_{a*y}(I) holds C_y(I), as
    x*a*y = a*(x*y), so it equals C_y(I) and holds b.  The verdict is still
    computed, so that a corrupted memo fails it.
    """
    _require_saturated_proper(algebra, mask)
    n, full = algebra.order, algebra._full
    pairs = _pairs_in(algebra, mask)  # row y is the conductor C_y(I)
    conductors: dict[int, int] = {}
    for y in range(n):
        if not mask >> y & 1:
            conductors.setdefault(pairs >> y * n & full, y)
    maximal = _maximal(_canonical(conductors))
    entries = tuple([(conductors[c], c) for c in maximal])
    all_prime = all([is_prime(algebra, c) for c in maximal])
    all_saturated = all([is_saturated(algebra, c) for c in maximal])
    union = 0
    for c in maximal:
        union |= c
    union_ok = union == divisor_set(algebra, mask)
    return EvansReport(
        ideal=mask,
        maximal_conductors=entries,
        all_prime=all_prime,
        all_saturated=all_saturated,
        union_equals_divisor_set=union_ok,
        passed=all_prime and all_saturated and union_ok,
    )


# ---------------------------------------------------------------------------
# The audit: every law the engine relies on, checked exhaustively.


def _labels(algebra: Algebra, mask: int) -> str:
    return "{" + ",".join(member_labels(algebra, mask)) + "}"


# Each check returns None when its law holds on the algebra, else the
# failure's detail.  Each asks the memoized families for what it reads.


# The three pair laws name the first failing pair of the nested scan over
# every ordered pair, yet visit each unordered pair once: their inner loops
# start at the outer item's position.  The two meet laws below test a predicate
# symmetric in the pair, so if (i, j) fails with j before i, then (j, i) fails
# earlier in the nested scan.  They look each meet up in its family: ideals and
# saturated ideals are closed under meets and _primaries lists every primary
# ideal, so a lookup misses, failing the law, only where a family lacks a meet.
# In the monotone law of saturation-closure, i <= j puts j at or after i in canonical order.


def _audit_saturation_closure(algebra: Algebra) -> str | None:
    ideals = enumerate_ideals(algebra)
    sats = [saturation(algebra, i) for i in ideals]
    for k, (i, s) in enumerate(zip(ideals, sats)):
        if i & ~s:
            return f"not extensive at {_labels(algebra, i)}"
        if saturation(algebra, s) != s:
            return f"not idempotent at {_labels(algebra, i)}"
        if ideal_violation(algebra, s) is not None:
            return f"saturation of {_labels(algebra, i)} is not an ideal"
        for j, sj in zip(ideals[k:], sats[k:]):
            if i & ~j == 0 and s & ~sj:
                return f"not monotone at {_labels(algebra, i)} <= {_labels(algebra, j)}"
    return None


def _audit_radical_closure(algebra: Algebra) -> str | None:
    for i in enumerate_ideals(algebra):
        r = radical(algebra, i)
        if i & ~r or radical(algebra, r) != r or ideal_violation(algebra, r) is not None:
            return f"radical misbehaves at {_labels(algebra, i)}"
    return None


def _audit_radical_saturation_intersection(algebra: Algebra) -> str | None:
    ideals = enumerate_ideals(algebra)
    sats = [saturation(algebra, i) for i in ideals]
    rad_sat = {i: radical(algebra, s) for i, s in zip(ideals, sats)}
    rad = {s: radical(algebra, s) for s in enumerate_saturated_ideals(algebra)}
    for k, (i, si) in enumerate(zip(ideals, sats)):
        for j, sj in zip(ideals[k:], sats[k:]):
            if not rad_sat.get(i & j) == rad.get(si & sj) == rad_sat[i] & rad_sat[j]:
                return f"identity fails at ({_labels(algebra, i)}, {_labels(algebra, j)})"
    return None


def _audit_annihilators_saturated(algebra: Algebra) -> str | None:
    for s, killed in enumerate(algebra._annihilators):
        if not is_saturated(algebra, killed):
            return f"Ann({algebra.names[s]}) is not saturated"
    return None


def _audit_conductors_saturated(algebra: Algebra) -> str | None:
    saturated = enumerate_saturated_ideals(algebra)
    n, full = algebra.order, algebra._full
    pairs = [_pairs_in(algebra, j) for j in saturated]  # row x is C_x(j)
    passed = set()  # each distinct conductor is tested once
    for x in range(n):
        for j, p in zip(saturated, pairs):
            c = p >> x * n & full
            if c in passed:
                continue
            if not is_saturated(algebra, c):
                return f"C_{algebra.names[x]}({_labels(algebra, j)}) not saturated"
            passed.add(c)
    return None


def _audit_bourne_class_of_zero(algebra: Algebra) -> str | None:
    for i in enumerate_ideals(algebra):
        if bourne_congruence(algebra, i).classes[0] != saturation(algebra, i):
            return f"zero class wrong for {_labels(algebra, i)}"
    return None


def _audit_generated_roundtrip(algebra: Algebra) -> str | None:
    for i in enumerate_ideals(algebra):
        if _generated(algebra, _members(i)) != i:
            return f"regenerating {_labels(algebra, i)} changed it"
    return None


def _audit_maximal_saturated_are_prime(algebra: Algebra) -> str | None:
    sat_primes = set(saturated_primes(algebra))
    for m in max_saturated(algebra):
        if m not in sat_primes:
            return f"{_labels(algebra, m)} is maximal saturated but not prime"
    return None


def _audit_minimal_primes_are_zero_divisors(algebra: Algebra) -> str | None:
    divisors = zero_divisors(algebra)
    for p in set(min_primes(algebra)) | set(min_saturated_primes(algebra)):
        for a in _members(p & ~1):
            if not divisors >> a & 1:
                return f"{algebra.names[a]} in {_labels(algebra, p)} is no zero divisor"
    return None


def _audit_minimal_primes_equal_minimal_saturated(algebra: Algebra) -> str | None:
    if min_primes(algebra) != min_saturated_primes(algebra):
        return "the two minimal families differ"
    return None


def _audit_associated_primes_are_annihilators(algebra: Algebra) -> str | None:
    annihilators = set(algebra._annihilators[1:])
    for x, p in associated_primes(algebra):
        if not is_prime(algebra, p):
            return f"associated {_labels(algebra, p)} is not prime"
        if not is_saturated(algebra, p):
            return f"associated {_labels(algebra, p)} is not saturated"
        if p not in annihilators:
            return f"associated {_labels(algebra, p)} is no annihilator"
    return None


def _audit_primary_radical_is_prime(algebra: Algebra) -> str | None:
    for q in _primaries(algebra):
        if not is_prime(algebra, radical(algebra, q)):
            return f"r({_labels(algebra, q)}) is not prime"
    return None


def _audit_primary_intersections_stay_primary(algebra: Algebra) -> str | None:
    by_radical: dict[int, list[int]] = {}
    for q in _primaries(algebra):
        by_radical.setdefault(radical(algebra, q), []).append(q)
    for group in by_radical.values():
        members = set(group)
        passed = set()  # each distinct meet is tested once, when it first comes up
        for k, a in enumerate(group):
            for b in group[k:]:
                c = a & b
                if c in passed:
                    continue
                if not is_primary(algebra, c) or c not in members:
                    return (
                        f"{_labels(algebra, a)} meet {_labels(algebra, b)} "
                        "is not primary for the same prime"
                    )
                passed.add(c)
    return None


def _audit_weak_decomposition_exact(algebra: Algebra) -> str | None:
    for j in enumerate_saturated_ideals(algebra)[:-1]:
        if radical(algebra, j) != j:
            continue
        result = _split(algebra, j)
        for c in result.components:
            if not is_prime(algebra, c) or not is_saturated(algebra, c):
                return f"component {_labels(algebra, c)} of {_labels(algebra, j)}"
        if minimalize(result).intersection() != j:
            return f"minimalize broke {_labels(algebra, j)}"
        for node, (u, v) in result.split_trace:
            if node >> u & 1 or node >> v & 1 or not node >> algebra.mul[u][v] & 1:
                return f"bad split witness at {_labels(algebra, node)}"
    return None


def _audit_radical_decomposition_matches_minimal_primes(algebra: Algebra) -> str | None:
    if algebra.is_trivial:
        return None
    result = radical_decomposition(algebra, 1)
    comps = set(result.components)
    minimal = min_primes(algebra)
    if not set(minimal) <= comps:
        return "a minimal prime is missing from the components"
    slim = minimalize(result)
    if slim.components != minimal:
        return "minimalized components differ from the minimal primes"
    return None


@_per_algebra
def _evans_failure(algebra: Algebra) -> int | None:
    """The first proper saturated ideal failing Evans' condition, if any."""
    for i in enumerate_saturated_ideals(algebra)[:-1]:
        if not evans_report(algebra, i).passed:
            return i
    return None


def _audit_evans_property(algebra: Algebra) -> str | None:
    failure = _evans_failure(algebra)
    if failure is not None:
        return f"evans fails at {_labels(algebra, failure)}"
    return None


def _audit_laskerian_implies_evans(algebra: Algebra) -> str | None:
    failure = _evans_failure(algebra)
    if failure is not None and laskerian_check(algebra).laskerian:
        return f"laskerian algebra fails evans at {_labels(algebra, failure)}"
    return None


def _audit_divisor_sets(algebra: Algebra) -> str | None:
    for i in enumerate_ideals(algebra)[:-1]:
        if i & ~divisor_set(algebra, i):
            return f"D({_labels(algebra, i)}) does not contain the ideal"
    if not algebra.is_trivial:
        if divisor_set(algebra, 1) != zero_divisors(algebra) | 1:
            return "D({0}) differs from the zero divisors plus zero"
    return None


def _audit_standard(algebra: Algebra) -> str | None:
    ok, _cover = is_standard(algebra)
    if not ok:
        return "zero divisors are not a union of saturated primes"
    return None


_AUDIT_CHECKS = (
    ("saturation-closure", _audit_saturation_closure),
    ("radical-closure", _audit_radical_closure),
    ("radical-saturation-intersection", _audit_radical_saturation_intersection),
    ("annihilators-saturated", _audit_annihilators_saturated),
    ("conductors-saturated", _audit_conductors_saturated),
    ("bourne-zero-class", _audit_bourne_class_of_zero),
    ("generated-roundtrip", _audit_generated_roundtrip),
    ("maximal-saturated-are-prime", _audit_maximal_saturated_are_prime),
    ("minimal-primes-are-zero-divisors", _audit_minimal_primes_are_zero_divisors),
    ("minimal-primes-equal-minimal-saturated", _audit_minimal_primes_equal_minimal_saturated),
    ("associated-primes-are-annihilators", _audit_associated_primes_are_annihilators),
    ("primary-radical-is-prime", _audit_primary_radical_is_prime),
    ("primary-intersections-stay-primary", _audit_primary_intersections_stay_primary),
    ("weak-decomposition-exact", _audit_weak_decomposition_exact),
    ("radical-decomposition-matches-minimal-primes",
     _audit_radical_decomposition_matches_minimal_primes),
    ("evans-property", _audit_evans_property),
    ("laskerian-implies-evans", _audit_laskerian_implies_evans),
    ("divisor-sets", _audit_divisor_sets),
    ("standard", _audit_standard),
)


def audit(algebra: Algebra) -> AuditResult:
    """Run the full invariant suite against one finite algebra.

    A finite algebra satisfies both chain conditions vacuously, so every
    check must pass; any failure is an engine defect, and the witness in
    the detail string says where to look.
    """
    # Every Algebra holds the axiom certificate: its constructor ran
    # check_axioms.  By those axioms a <= b iff a + b = b is a partial order
    # with zero at the bottom: a + a = a gives a <= a; commutativity gives
    # antisymmetry (a = b + a = a + b = b); associativity, transitivity
    # (a + c = a + (b + c) = (a + b) + c = b + c = c); 0 + a = a puts zero lowest.
    checks = [AuditCheck("axioms", True, "ok"), AuditCheck("natural-order", True, "ok")]
    for name, check in _AUDIT_CHECKS:
        failure = check(algebra)
        checks.append(AuditCheck(name, failure is None, failure or "ok"))
    return AuditResult(checks=tuple(checks))
