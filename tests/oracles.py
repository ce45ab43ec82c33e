"""Independent second implementations used to cross-check the engine.

These deliberately take different routes than the library: primality via
multiplicative closure of the complement, primarity via an unbounded
power walk that stops on cycle detection, ideal enumeration via a scan
of every subset instead of joins of principal ideals, generation via
a naive alternating closure, the ideal test, conductors, divisor sets and
prime witnesses via scans of the tables instead of principal-ideal and
pair-product masks, Bourne classes via the pairwise single-witness
relation instead of the join of the ideal, congruences via a scan of every
related pair against every third element, associated primes via quotient
algebras built here from those classes with the ``Algebra`` constructor
alone, the axioms via a scan of every triple with no fast pass, the
laskerian verdict and the ideals its table covers via the meet of the
saturated primaries above each ideal instead of a meet closure, the
standard cover via every subset of the saturated primes, and the Evans
report via the conductor, prime, saturation and divisor-set oracles
instead of the pair mask and the memoized predicates.  The ideals, saturated ideals, primes, minimal
primes and maximal proper saturated ideals of a direct product come from
its factors' ideal, saturation and prime oracles, which still run where
the product is too large for the subset scan, its laskerian verdict is
the conjunction of its factors', and its D({0}) and associated primes
are unions of its factors' lifted.
"""

from __future__ import annotations

from itertools import combinations

import b1alg as b


def _canonical(masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def axiom_report_oracle(add, mul, one) -> b.AxiomReport:
    """Every axiom on every element, pair and triple, in the order
    ``check_axioms`` reports them, with no fast pass."""
    n = len(add)
    rng = range(n)
    out = []
    for x in rng:
        if add[x][x] != x:
            out.append(b.Violation("add-idempotent", (x,)))
        if add[0][x] != x or add[x][0] != x:
            out.append(b.Violation("add-identity", (x,)))
        if mul[one][x] != x or mul[x][one] != x:
            out.append(b.Violation("mul-identity", (x,)))
        if mul[0][x] != 0 or mul[x][0] != 0:
            out.append(b.Violation("mul-zero-absorbs", (x,)))
    for x in rng:
        for y in rng:
            if add[x][y] != add[y][x]:
                out.append(b.Violation("add-commutative", (x, y)))
            if mul[x][y] != mul[y][x]:
                out.append(b.Violation("mul-commutative", (x, y)))
    for x in rng:
        for y in rng:
            for z in rng:
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    out.append(b.Violation("add-associative", (x, y, z)))
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    out.append(b.Violation("mul-associative", (x, y, z)))
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    out.append(b.Violation("left-distributive", (x, y, z)))
                if mul[add[y][z]][x] != add[mul[y][x]][mul[z][x]]:
                    out.append(b.Violation("right-distributive", (x, y, z)))
    if add[one][one] != one:
        out.append(b.Violation("characteristic-one", (one,)))
    if n > 1 and one == 0:
        out.append(b.Violation("zero-is-not-one", (0,)))
    return b.AxiomReport(valid=not out, violations=tuple(out))


def prime_oracle(algebra: b.Algebra, mask: int) -> bool:
    """Proper with multiplicatively closed complement."""
    full = b.full_mask(algebra)
    if mask == full:
        return False
    complement = [a for a in algebra.elements() if not mask >> a & 1]
    for u in complement:
        for v in complement:
            if mask >> algebra.mul[u][v] & 1:
                return False
    return True


def primary_oracle(algebra: b.Algebra, mask: int) -> bool:
    """Proper; offending pairs resolved by walking powers until they cycle."""
    if mask == b.full_mask(algebra):
        return False
    for x in algebra.elements():
        for y in algebra.elements():
            if not mask >> algebra.mul[x][y] & 1:
                continue
            if mask >> x & 1:
                continue
            p = y
            seen = set()
            hit = False
            while p not in seen:
                if mask >> p & 1:
                    hit = True
                    break
                seen.add(p)
                p = algebra.mul[p][y]
            if not hit:
                return False
    return True


def generated_oracle(algebra: b.Algebra, elements) -> int:
    """Naive fixpoint: alternately close under sums and all multiples."""
    mask = 1
    for e in elements:
        mask |= 1 << e
    while True:
        new = mask
        for i in b.bits(mask):
            for j in b.bits(mask):
                new |= 1 << algebra.add[i][j]
        for a in algebra.elements():
            for i in b.bits(mask):
                new |= 1 << algebra.mul[a][i]
        if new == mask:
            return mask
        mask = new


def ideals_oracle(algebra: b.Algebra) -> frozenset[int]:
    """All ideals by testing each of the 2**(order-1) subsets with zero."""
    add, mul = algebra.add, algebra.mul
    n = algebra.order
    multiples = [0] * n  # mask of the multiples a*i of each element i
    for i in range(n):
        for a in range(n):
            multiples[i] |= 1 << mul[a][i]
    found = set()
    for t in range(1 << (n - 1)):
        mask = 1 | t << 1
        members = list(b.bits(mask))
        if any(multiples[i] & ~mask for i in members):
            continue
        if all(mask >> add[i][j] & 1 for i in members for j in members):
            found.add(mask)
    return frozenset(found)


def _primes(algebra: b.Algebra) -> list[int]:
    return [m for m in ideals_oracle(algebra) if prime_oracle(algebra, m)]


def _minimal_primes(algebra: b.Algebra) -> list[int]:
    primes = _primes(algebra)
    return [p for p in primes if not any(q != p and q & p == q for q in primes)]


def _times(i: int, j: int, right: b.Algebra) -> int:
    """The mask of I x J in ``direct_product(left, right)``, whose element
    (a, b) has index a * |right| + b."""
    return sum(j << a * right.order for a in b.bits(i))


def lifted_ideals_oracle(left: b.Algebra, right: b.Algebra) -> list[int]:
    """The ideals of A x B = ``direct_product(left, right)`` in the
    canonical order: every I x J for ideals I of A and J of B.

    e = (1, 0) and f = (0, 1) are idempotents with e + f = 1 and ef = 0.
    For an ideal K and (a, b) in K, e*(a, b) = (a, 0) and f*(a, b) = (0, b)
    lie in K, and (a, 0) + (0, b) = (a, b).  So K = I x J with
    I = {a : (a, 0) in K} and J = {b : (0, b) in K}, and I, J are ideals, as
    (x, y)*(a, 0) = (xa, 0) and (a, 0) + (a', 0) = (a + a', 0).  Conversely
    every I x J is an ideal, as the operations act per factor.
    """
    ideals = ideals_oracle(right)
    return _canonical(_times(i, j, right) for i in ideals_oracle(left) for j in ideals)


def lifted_saturated_ideals_oracle(left: b.Algebra, right: b.Algebra) -> list[int]:
    """The saturated ideals of A x B in the canonical order: every S x T for
    saturated ideals S of A and T of B.

    The natural order of A x B is the product order, since
    (a, b) + (c, d) = (c, d) exactly when a + c = c and b + d = d.  So the
    saturation of I x J, the down-set of I x J, is sat(I) x sat(J), and
    I x J is saturated exactly when I and J are.
    """
    def saturated(algebra):
        return [m for m in ideals_oracle(algebra) if saturation_oracle(algebra, m) == m]

    ideals = saturated(right)
    return _canonical(_times(s, t, right) for s in saturated(left) for t in ideals)


def _lifted_sides(left: b.Algebra, right: b.Algebra, family) -> list[int]:
    """P x B for each P in family(left), and A x Q for each Q in
    family(right), in the canonical order."""
    whole_left, whole_right = b.full_mask(left), b.full_mask(right)
    return _canonical(
        [_times(p, whole_right, right) for p in family(left)]
        + [_times(whole_left, q, right) for q in family(right)]
    )


def lifted_primes_oracle(left: b.Algebra, right: b.Algebra) -> list[int]:
    """The primes of A x B = ``direct_product(left, right)`` in the
    canonical order: P x B for each prime P of A, and A x Q for each prime
    Q of B.

    A prime of A x B holds (1, 0)*(0, 1) = 0, so it holds (0, 1) or (1, 0),
    not both, as it is proper.  Holding (0, 1) it holds every (0, b) =
    (0, 1)*(a, b), so it is P x B with P = {a : (a, 0) in it}; P is proper,
    and prime since (u, 1)*(v, 1) = (uv, 1).  Every P x B with P prime is
    prime, and so is every A x Q.
    """
    return _lifted_sides(left, right, _primes)


def _primaries(algebra: b.Algebra) -> list[int]:
    return [m for m in ideals_oracle(algebra) if primary_oracle(algebra, m)]


def lifted_primaries_oracle(left: b.Algebra, right: b.Algebra) -> list[int]:
    """The primary ideals of A x B = ``direct_product(left, right)`` in the
    canonical order: Q x B for each primary Q of A, and A x Q' for each
    primary Q' of B.

    With e = (1, 0) and f = (0, 1), e*f = 0 lies in a primary K, so K holds
    e or a power of f, which is f; not both, as e + f = 1.  Holding f it is
    Q x B with Q = {a : (a, 0) in K}, as for the primes, and holding e it
    is A x Q' likewise.  Q is proper, and primary: if x*y is in Q then
    (x, 1)*(y, 1) = (xy, 0) + f is in K, so K holds (x, 1), and with it
    (x, 0) = (x, 1)*e, or some (y, 1)^k = (y^k, 1), and with it (y^k, 0).
    Every Q x B with Q primary is primary, and so is every A x Q'.
    """
    return _lifted_sides(left, right, _primaries)


def lifted_min_primes_oracle(left: b.Algebra, right: b.Algebra) -> list[int]:
    """The minimal primes of ``direct_product(left, right)`` in the
    canonical order, lifted from the factors': P x B for each minimal prime
    P of A = left, and A x Q for each minimal prime Q of B = right.

    The primes are the lifts of ``lifted_primes_oracle``.  P x B lies in
    P' x B exactly when P lies in P', and never in A x Q, which misses
    (0, 1).

    They are also the minimal saturated primes.  Every saturated prime holds
    a minimal prime, and every minimal prime P is saturated: for x in P some
    s outside P and k >= 1 have s*x^k = 0, so each a <= x has s*a^k = 0 and,
    as P is prime, lies in P.
    """
    return _lifted_sides(left, right, _minimal_primes)


def _maximal_proper_saturated(algebra: b.Algebra) -> list[int]:
    full = b.full_mask(algebra)
    proper = [
        m for m in ideals_oracle(algebra) if m != full and saturation_oracle(algebra, m) == m
    ]
    return [m for m in proper if not any(o != m and o & m == m for o in proper)]


def lifted_max_saturated_oracle(left: b.Algebra, right: b.Algebra) -> list[int]:
    """The maximal proper saturated ideals of ``direct_product(left, right)``
    in the canonical order: M x B for each maximal proper saturated ideal M
    of A = left, and A x N for each N of B = right.

    The saturated ideals of A x B are the S x T of
    ``lifted_saturated_ideals_oracle``, and S x T lies in S' x T' exactly
    when S lies in S' and T in T'.  A proper S x T with S != A lies in the
    proper S x B, and one with S = A has T != B and lies in the proper A x T.
    So a maximal one is M x B or A x N, with M and N maximal; and a proper
    saturated ideal above M x B is some S' x B with S' proper above M, so
    S' = M.
    """
    return _lifted_sides(left, right, _maximal_proper_saturated)


def radical_oracle(algebra: b.Algebra, mask: int) -> int:
    """Membership by walking powers until a repeat, no explicit bound."""
    out = 0
    for a in algebra.elements():
        p = a
        seen = set()
        while p not in seen:
            if mask >> p & 1:
                out |= 1 << a
                break
            seen.add(p)
            p = algebra.mul[p][a]
    return out


def saturation_oracle(algebra: b.Algebra, mask: int) -> int:
    """The down-set of I under the natural order."""
    out = 0
    for a in algebra.elements():
        if any(algebra.add[a][i] == i for i in b.bits(mask)):
            out |= 1 << a
    return out


def ideal_violation_oracle(algebra: b.Algebra, mask: int) -> tuple[str, tuple[int, ...]] | None:
    """First failed ideal condition: every ordered pair of members under
    addition, then the multiplication table row by row."""
    n = algebra.order
    if mask >> n:
        return ("contains an out-of-range element", (next(i for i in b.bits(mask) if i >= n),))
    if not mask & 1:
        return ("does not contain zero", (0,))
    members = list(b.bits(mask))
    for i in members:
        for j in members:
            if not mask >> algebra.add[i][j] & 1:
                return ("is not closed under addition", (i, j))
    for a in algebra.elements():
        for i in members:
            if not mask >> algebra.mul[a][i] & 1:
                return ("is not closed under multiplication by the algebra", (a, i))
    return None


def conductor_oracle(algebra: b.Algebra, x: int, mask: int) -> int:
    """C_x(J) = {y : x*y in J}, read off the row of x."""
    out = 0
    for y in algebra.elements():
        if mask >> algebra.mul[x][y] & 1:
            out |= 1 << y
    return out


def prime_witness_oracle(algebra: b.Algebra, mask: int) -> tuple[int, int] | None:
    """The first (u, v) in the table, row by row, with u, v outside and u*v inside."""
    for u in algebra.elements():
        for v in algebra.elements():
            if not (mask >> u & 1 or mask >> v & 1) and mask >> algebra.mul[u][v] & 1:
                return u, v
    return None


def divisor_set_oracle(algebra: b.Algebra, mask: int) -> int:
    """D(I) = {x : x*y in I for some y outside I}, by scanning the table."""
    out = 0
    for x in algebra.elements():
        for y in algebra.elements():
            if not mask >> y & 1 and mask >> algebra.mul[x][y] & 1:
                out |= 1 << x
                break
    return out


def evans_oracle(algebra: b.Algebra, mask: int) -> b.EvansReport:
    """Evans' condition on a proper saturated ideal I, from the table scans:
    the conductors C_y(I) of the y outside I with the smallest witness per
    conductor, the maximal ones in canonical order, each asked whether it
    is prime and saturated, and their union compared with D(I)."""
    conductors: dict[int, int] = {}
    for y in algebra.elements():
        if not mask >> y & 1:
            conductors.setdefault(conductor_oracle(algebra, y, mask), y)
    maximal = _canonical(
        c for c in conductors if not any(o != c and o & c == c for o in conductors)
    )
    all_prime = all(prime_oracle(algebra, c) for c in maximal)
    all_saturated = all(saturation_oracle(algebra, c) == c for c in maximal)
    union = 0
    for c in maximal:
        union |= c
    union_ok = union == divisor_set_oracle(algebra, mask)
    return b.EvansReport(
        ideal=mask,
        maximal_conductors=tuple((conductors[c], c) for c in maximal),
        all_prime=all_prime,
        all_saturated=all_saturated,
        union_equals_divisor_set=union_ok,
        passed=all_prime and all_saturated and union_ok,
    )


def bourne_classes_oracle(algebra: b.Algebra, mask: int) -> b.Congruence:
    """Bourne classes by testing every pair: a ~ b iff a + w = b + w for
    some w in I, classes numbered by smallest member."""
    add = algebra.add
    members = list(b.bits(mask))
    n = algebra.order
    class_of = [-1] * n
    classes: list[int] = []
    for a in range(n):
        if class_of[a] != -1:
            continue
        k = len(classes)
        cls = 1 << a
        class_of[a] = k
        row_a = add[a]
        for c in range(a + 1, n):
            if class_of[c] == -1:
                row_c = add[c]
                if any(row_a[w] == row_c[w] for w in members):
                    class_of[c] = k
                    cls |= 1 << c
        classes.append(cls)
    return b.Congruence(tuple(class_of), tuple(classes))


def congruence_violation_oracle(add, mul, class_of) -> tuple[str, tuple[int, int, int]] | None:
    """The first (u, v, w) with u ~ v at which the partition class_of of
    the tables is not compatible with an operation, as ("add" or "mul",
    (u, v, w)), else None."""
    everything = range(len(add))
    for u in everything:
        for v in everything:
            if class_of[u] != class_of[v]:
                continue
            for w in everything:
                if class_of[add[u][w]] != class_of[add[v][w]]:
                    return ("add", (u, v, w))
                if class_of[mul[u][w]] != class_of[mul[v][w]]:
                    return ("mul", (u, v, w))
    return None


def associated_oracle(algebra: b.Algebra) -> tuple[tuple[int, int], ...]:
    """Associated primes through the quotients: for each x != 0, the minimal
    primes of A / Bourne(Ann(x)) pulled back to A, smallest witness kept.

    The quotient is built from the pairwise Bourne classes by the
    ``Algebra`` constructor, which checks its axioms, over the smallest
    member of each class, and each prime is pulled back through the class
    map here: no engine quotient or preimage is used."""
    names, add, mul = algebra.names, algebra.add, algebra.mul
    found: dict[int, int] = {}
    for x in range(1, algebra.order):
        class_of, classes = bourne_classes_oracle(algebra, b.annihilator(algebra, x))
        reps = [class_of.index(k) for k in range(len(classes))]
        target = b.Algebra(
            tuple(f"[{names[r]}]" for r in reps),
            tuple(tuple(class_of[add[r][s]] for s in reps) for r in reps),
            tuple(tuple(class_of[mul[r][s]] for s in reps) for r in reps),
            class_of[algebra.one],
        )
        for q in _minimal_primes(target):
            found.setdefault(sum(1 << a for a, k in enumerate(class_of) if q >> k & 1), x)
    return tuple((found[p], p) for p in _canonical(found))


def _saturated_ideals(algebra: b.Algebra) -> list[int]:
    # The engine's ideal list, which tests check against ideals_oracle, so
    # that algebras too large for the subset scan are covered too.
    return [
        m for m in b.enumerate_ideals(algebra)
        if saturation_oracle(algebra, m) == m
    ]


def saturated_primaries_oracle(algebra: b.Algebra) -> list[int]:
    """The saturated primary ideals, in the canonical order."""
    return [q for q in _saturated_ideals(algebra) if primary_oracle(algebra, q)]


def _primary_meets(algebra: b.Algebra) -> list[tuple[int, int]]:
    """(I, the meet of the saturated primaries containing I) for each
    proper saturated I, in the canonical order."""
    full = b.full_mask(algebra)
    primaries = saturated_primaries_oracle(algebra)
    out = []
    for m in _saturated_ideals(algebra):
        if m == full:
            continue
        meet = full
        for q in primaries:
            if q & m == m:
                meet &= q
        out.append((m, meet))
    return out


def laskerian_oracle(algebra: b.Algebra) -> tuple[bool, int | None]:
    """(verdict, witness): every proper saturated I must equal the meet of
    the proper saturated primaries containing it; the witness is the first
    that does not, in the canonical order."""
    for m, meet in _primary_meets(algebra):
        if meet != m:
            return False, m
    return True, None


def laskerian_table_oracle(algebra: b.Algebra) -> list[int]:
    """The ideals a laskerian table covers: the proper saturated I that
    equal the meet of the saturated primaries containing them."""
    return [m for m, meet in _primary_meets(algebra) if meet == m]


def minimal_saturated_primaries_above(algebra: b.Algebra, mask: int) -> list[int]:
    """The minimal members of the saturated primaries containing I."""
    above = [q for q in saturated_primaries_oracle(algebra) if q & mask == mask]
    return [q for q in above if not any(p != q and p & q == p for p in above)]


def standard_oracle(algebra: b.Algebra) -> tuple[bool, tuple[int, ...]]:
    """(verdict, cover): the first subset of all saturated primes, smallest
    first and in ``combinations`` order, whose union is D({0})."""
    target = divisor_set_oracle(algebra, 1)
    primes = [p for p in _saturated_ideals(algebra) if prime_oracle(algebra, p)]
    for k in range(len(primes) + 1):
        for combo in combinations(primes, k):
            union = 0
            for p in combo:
                union |= p
            if union == target:
                return True, combo
    return False, ()


def lifted_laskerian_oracle(left: b.Algebra, right: b.Algebra) -> bool:
    """The laskerian verdict of A x B = ``direct_product(left, right)``, for
    nontrivial factors: A x B is laskerian exactly when A and B are.

    The saturated ideals of A x B are the S x T of
    ``lifted_saturated_ideals_oracle``, and its saturated primaries are the
    Q x B and A x Q' for saturated primaries Q of A and Q' of B, as Q x B
    is primary exactly when Q is (``lifted_primaries_oracle``) and saturated
    exactly when Q is.  Q x B holds S x T exactly when Q holds S, and
    A x Q' exactly when Q' holds T, so the meet of the saturated primaries
    above S x T is m_A(S) x m_B(T), where m_A(S) is the meet of the
    saturated primaries of A above S, and m_A(A) = A, the empty meet.  A
    proper S x T has S or T proper; S x B is proper for every proper S.
    So every proper S x T equals its meet exactly when every proper
    saturated S of A has S = m_A(S) and every proper saturated T of B has
    T = m_B(T).
    """
    return laskerian_oracle(left)[0] and laskerian_oracle(right)[0]


def lifted_divisor_set_oracle(left: b.Algebra, right: b.Algebra) -> int:
    """D({0}) of A x B = ``direct_product(left, right)``, for nontrivial
    factors: (D_A({0}) x B) u (A x D_B({0})), from the factors' table scans.

    (a, b)*(c, d) = (0, 0) for a (c, d) != (0, 0) exactly when c != 0 and
    a*c = 0, or d != 0 and b*d = 0: given c != 0 with a*c = 0, (c, 0) kills
    (a, b), and likewise (0, d).
    """
    whole_left, whole_right = b.full_mask(left), b.full_mask(right)
    return _times(divisor_set_oracle(left, 1), whole_right, right) | _times(
        whole_left, divisor_set_oracle(right, 1), right
    )


def lifted_associated_oracle(left: b.Algebra, right: b.Algebra) -> tuple[tuple[int, int], ...]:
    """The associated primes of A x B = ``direct_product(left, right)``, with
    the engine's witnesses, for nontrivial factors, from the factors'
    quotient-route ``associated_oracle``: P x B with witness x*|B| for each
    (x, P) of A, and A x Q with witness y for each (y, Q) of B, in the
    canonical order.

    The engine's associated primes of (x, y) != 0 are the minimal saturated
    primes that hold Ann((x, y)) (``spectrum.associated_primes``), and
    Ann((x, y)) = Ann(x) x Ann(y), as the operations act per factor.  The
    saturated primes of A x B are the P x B and the A x Q for saturated
    primes P of A and Q of B (``lifted_primes_oracle``).  P x B holds
    Ann(x) x Ann(y) exactly when P holds Ann(x), which no proper P does for
    x = 0, as Ann(0) = A; A x Q holds it exactly when Q holds Ann(y).
    Neither kind lies in the other, as (0, 1) lies in P x B alone and
    (1, 0) in A x Q alone, and P x B lies in P' x B exactly when P lies in
    P'.  So (x, y) yields the
    P x B for the P that x yields in A, if x != 0, and the A x Q for the Q
    that y yields in B, if y != 0.  The least index x*|B| + y that yields
    P x B is (x, 0) for the least x that yields P, and the least that
    yields A x Q is (0, y) for the least y that yields Q, as every index
    with a first coordinate of 0 is below |B|.
    """
    whole_left, whole_right = b.full_mask(left), b.full_mask(right)
    witness = {_times(p, whole_right, right): x * right.order for x, p in associated_oracle(left)}
    for y, q in associated_oracle(right):
        witness[_times(whole_left, q, right)] = y
    return tuple((witness[p], p) for p in _canonical(witness))
