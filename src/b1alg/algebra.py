"""Finite characteristic-one semirings given by validated Cayley tables.

A B1-algebra is a commutative unitary semiring whose addition is idempotent
(equivalently, 1 + 1 = 1).  Algebras here are finite: a tuple of element
labels plus addition and multiplication tables indexed by element position.
Element 0 is always the additive identity; the position of the
multiplicative identity is stored explicitly.

Everything downstream (ideals, spectra, decompositions) assumes the axioms
hold, so the ``Algebra`` constructor is the one gate: it runs the exhaustive
checker and either returns an immutable algebra or refuses the tables, with
an ``AlgebraError`` for ill-shaped ones and an ``AxiomError`` reporting every
violated axiom with a concrete witness.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

__all__ = (
    "Algebra", "AlgebraError", "AxiomError", "AxiomReport", "Violation",
    "build_algebra", "builtin", "chain_algebra", "check_axioms", "direct_product",
)

# Labels travel through files and comma-separated CLI flags.
_FORBIDDEN_IN_LABEL = ("#", ",")

# Whether the types of labels, or of a table and its rows, are all tuple or list, in one
# C-level call: only those index exactly what they iterate.  A set has no order, a str
# splits, an iterator cannot be read twice, and a dict or a subclass may index other entries.
_all_sequences = frozenset((tuple, list)).issuperset


class AlgebraError(ValueError):
    """Invalid input: bad tables, bad labels, or a broken precondition."""


class Violation(namedtuple("Violation", "axiom witness")):
    """One failed axiom with the elements (as indices) that witness it.

    axiom: str; witness: tuple[int, ...].
    """

    __slots__ = ()


class AxiomReport(namedtuple("AxiomReport", "valid violations")):
    """valid: bool; violations: tuple[Violation, ...]."""

    __slots__ = ()


class AxiomError(AlgebraError):
    """Raised when tables fail the axioms; carries the full report and the
    element labels its witness indices refer to."""

    def __init__(self, report: AxiomReport, names: tuple[str, ...]):
        self.report = report
        self.names = names
        first = report.violations[0]
        extra = len(report.violations) - 1
        msg = f"axiom {first.axiom} violated at ({', '.join([names[i] for i in first.witness])})"
        if extra:
            msg += f" (and {extra} further violation{'s' if extra > 1 else ''})"
        super().__init__(msg)


class Algebra:
    """Immutable finite B1-algebra.

    The constructor is the one gate, so nothing downstream checks again.
    It raises an ``AlgebraError`` naming labels that are not a tuple or list
    (a set, a str), the first bad label (not a str, empty, holding
    whitespace, '#' or ',', or repeated), the first table defect that
    ``check_axioms`` names, or a row count other than the labels', and an
    ``AxiomError`` when an axiom fails.
    It checks the tables as given, then freezes them to tuples: a table or
    row that is not a tuple or list (a set, an iterator, a dict) is refused.

    ``add`` and ``mul`` are tuples of tuples of element indices;
    ``add[a][b]`` is the index of a + b.  ``zero`` is always 0, and
    ``order``, the element count, and ``is_trivial``, true for the
    one-element algebra, where zero and one coincide, are plain attributes
    like ``names``.
    Instances compare and hash structurally, but derived ideal families
    and per-ideal results are memoized per instance in ``_memo``, keyed by
    the computing function, so equal tables built twice each compute their
    own.  A family's entry is its result (``ideals._per_algebra``); a
    per-ideal function's entry is a dict keyed by mask, of results
    (``ideals._per_mask``) or of a record's class and fields without the
    algebra (``ideals._per_mask_record``).  No entry refers back to the
    instance, so reference counting alone frees it.

    The tables are also read once into bitmasks, so that saturations,
    radicals, joins, conductors, the saturated ideals and the prime and
    primary questions are ORs, ANDs and shifts of masks: ``_down[t]`` is
    the down-set {a : a + t = t}, ``_powers[a]`` is {a**k : k >= 1},
    ``_principal[a]`` is A*a, ``_products[t]`` is {(u, v) : u*v = t},
    pair (u, v) at bit u*n + v, ``_annihilators[x]`` is Ann(x) = {y : x*y = 0}
    and ``_zero_divisors`` is the mask of the nonzero x whose Ann(x) holds a
    nonzero element.  They are built here as plain attributes,
    so a per-ideal call reads them without a memo lookup.  None of them
    needs the ideals, so radicals, the nilradical and the saturated ideals
    answer past the enumeration bound, which ``enumerate_ideals`` alone
    enforces.
    """

    __slots__ = (
        "names", "order", "is_trivial", "add", "mul", "zero", "one", "index",
        "_full", "_down", "_powers", "_principal", "_products",
        "_annihilators", "_zero_divisors",
        "_hash", "_memo", "__weakref__",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        add: tuple[tuple[int, ...], ...],
        mul: tuple[tuple[int, ...], ...],
        one: int,
    ):
        if not _all_sequences((type(names),)):
            raise AlgebraError(f"the labels {names!r} are not a tuple or list")
        self.names = names = tuple(names)
        self.order = n = len(names)
        # _label_problem's rules in C-level calls; labels split back from their join
        # exactly when none is empty or holds whitespace.
        joined = " ".join(map(str, names))
        if (set(map(type, names)) - {str} or len(set(names)) != n or joined.split() != [*names]
                or any(map(joined.__contains__, _FORBIDDEN_IN_LABEL))):
            raise AlgebraError(_label_problem(names))
        self.index = dict(zip(names, range(n)))
        report = check_axioms(add, mul, one)
        if len(add) != n:
            raise AlgebraError(f"{n} labels for an add table of {len(add)} rows")
        if not report.valid:
            raise AxiomError(report, names)
        self.add = tuple(map(tuple, add))
        self.mul = tuple(map(tuple, mul))
        self.zero = 0
        self.one = one
        self.is_trivial = n == 1
        self._full = (1 << n) - 1
        down = []
        for t, row in enumerate(self.add):
            mask = 0
            for i, s in enumerate(row):
                if s == t:
                    mask |= 1 << i
            down.append(mask)
        self._down = tuple(down)
        powers = []
        for a in range(n):
            orbit, p = 0, a
            while not orbit >> p & 1:
                orbit |= 1 << p
                p = self.mul[p][a]
            powers.append(orbit)
        self._powers = tuple(powers)
        principal, products, annihilators, divisors = [], [0] * n, [], 0
        for x, row in enumerate(self.mul):
            by_value = [0] * n
            for y, t in enumerate(row):
                by_value[t] |= 1 << y
            # A*x is the set of values in the row of x, as mul is commutative.
            values = 0
            for t, ys in enumerate(by_value):
                if ys:
                    values |= 1 << t
                    products[t] |= ys << x * n
            principal.append(values)
            annihilators.append(by_value[0])
            if x and by_value[0] > 1:  # Ann(x) holds a nonzero element
                divisors |= 1 << x
        self._principal = tuple(principal)
        self._products = tuple(products)
        self._annihilators = tuple(annihilators)
        self._zero_divisors = divisors
        self._hash = hash((self.names, self.add, self.mul, one))
        self._memo: dict = {}

    def elements(self) -> range:
        return range(self.order)

    def _require_element(self, a: int) -> None:
        """Refuse an element index that is not an int in range(order), naming it."""
        if type(a) is not int:
            raise AlgebraError(f"element index {a!r} is not an int")
        if not 0 <= a < self.order:
            raise AlgebraError(
                f"element index {a} is out of range for this order-{self.order} algebra"
            )

    def leq(self, a: int, b: int) -> bool:
        """Natural order: a <= b iff a + b = b.  Zero is the minimum."""
        self._require_element(a)
        self._require_element(b)
        return self.add[a][b] == b

    def power(self, a: int, k: int) -> int:
        """a**k for k >= 1 (k = 0 is deliberately unsupported)."""
        self._require_element(a)
        if type(k) is not int or k < 1:
            raise AlgebraError(f"exponent must be an int >= 1, got {k!r}")
        # Repeated squaring, valid by associativity: a**k is a times a**(2**i)
        # for each set bit i of k - 1.
        mul, acc, k = self.mul, a, k - 1
        while k:
            if k & 1:
                acc = mul[acc][a]
            a = mul[a][a]
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.names == other.names
            and self.add == other.add
            and self.mul == other.mul
            and self.one == other.one
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Algebra(order={self.order}, names={self.names!r})"


def check_axioms(
    add: tuple[tuple[int, ...], ...],
    mul: tuple[tuple[int, ...], ...],
    one: int,
) -> AxiomReport:
    """Exhaustively test the B1-algebra axioms on index tables.

    Returns the complete list of violations; every witness is a tuple of
    element indices in the order the axiom quantifies them.  Zero is
    position 0 by convention.  Tables that are not sequences of rows n by n
    over range(n), or a ``one`` outside it (ints only: not 1.0), raise an
    AlgebraError naming it; only a tuple or list of tuples or lists is a
    sequence of rows (``_all_sequences``), so a set or a dict is refused.

    The unary axioms and commutativity are always scanned in full.  When
    they hold, ``_ternary_laws_hold`` tests each remaining equation once;
    if it accepts, the full ternary scan would find nothing and is
    skipped.  Otherwise the full scan runs and alone builds the report.
    """
    # The shape, in C-level calls only: this runs on every construction.
    try:
        n = len(add)
        rows = set(map(len, add)) | set(map(len, mul))
        shaped = (len(mul) == n and rows == {n}
                  and _all_sequences(map(type, chain((add, mul), add, mul)))
                  and set(map(type, chain((one,), *add, *mul))) == {int}
                  and not set().union((one,), *add, *mul) - set(range(n)))
    except TypeError:  # a table, or one of its rows, has no length
        shaped = False
    if not shaped:
        raise AlgebraError(_shape_problem(add, mul, one))
    rng = range(n)
    out: list[Violation] = []

    for a in rng:
        if add[a][a] != a:
            out.append(Violation("add-idempotent", (a,)))
        if add[0][a] != a or add[a][0] != a:
            out.append(Violation("add-identity", (a,)))
        if mul[one][a] != a or mul[a][one] != a:
            out.append(Violation("mul-identity", (a,)))
        if mul[0][a] != 0 or mul[a][0] != 0:
            out.append(Violation("mul-zero-absorbs", (a,)))
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                out.append(Violation("add-commutative", (a, b)))
            if mul[a][b] != mul[b][a]:
                out.append(Violation("mul-commutative", (a, b)))
    # The fast pass needs the unary axioms and commutativity; when it
    # accepts, the full scan below would find nothing.
    if out or not _ternary_laws_hold(add, mul):
        for a in rng:
            add_a, mul_a = add[a], mul[a]
            col_a = tuple(row[a] for row in mul)  # col_a[x] is x*a
            for b in rng:
                add_b, mul_b = add[b], mul[b]
                sum_ab, prod_ab = add[add_a[b]], mul[mul_a[b]]
                left_ab, right_ba = add[mul_a[b]], add[col_a[b]]
                for c in rng:
                    if sum_ab[c] != add_a[add_b[c]]:
                        out.append(Violation("add-associative", (a, b, c)))
                    if prod_ab[c] != mul_a[mul_b[c]]:
                        out.append(Violation("mul-associative", (a, b, c)))
                    if mul_a[add_b[c]] != left_ab[mul_a[c]]:
                        out.append(Violation("left-distributive", (a, b, c)))
                    if col_a[add_b[c]] != right_ba[col_a[c]]:
                        out.append(Violation("right-distributive", (a, b, c)))
    # Implied by idempotency but checked on its own so a broken table
    # names the defining axiom directly.
    if add[one][one] != one:
        out.append(Violation("characteristic-one", (one,)))
    if n > 1 and one == 0:
        out.append(Violation("zero-is-not-one", (0,)))

    return AxiomReport(valid=not out, violations=tuple(out))


def _shape_problem(add, mul, one) -> str:
    """The first defect of tables that are not sequences of rows (tuples
    or lists of tuples or lists) or not n by n over range(n), with n
    the add table's row count, or of a ``one`` outside range(n)."""
    for what, table in (("add", add), ("mul", mul)):
        try:
            if _all_sequences(map(type, chain((table,), table))):
                continue
        except TypeError:
            pass
        return f"the {what} table {table!r} is not a sequence of rows"
    n = len(add)
    if len(mul) != n:
        return f"the add table has {n} rows but the mul table has {len(mul)}"
    for what, table in (("add", add), ("mul", mul)):
        for i, row in enumerate(table, 1):
            if len(row) != n:
                return f"{what} table row {i} has {len(row)} entries, expected {n}"
            for entry in row:
                if type(entry) is not int or entry not in range(n):
                    return f"{what} table row {i} holds {entry!r}, not an element index below {n}"
    return f"one {one!r} is not an element index below {n}"


def _ternary_laws_hold(
    add: tuple[tuple[int, ...], ...], mul: tuple[tuple[int, ...], ...]
) -> bool:
    """Both associative laws and both distributive laws, each equation
    tested once, for commutative tables with idempotent addition.

    There the triple (c, b, a) of an associative law gives the same
    equation as (a, b, c), and (a, b, a) holds outright, so c > a
    suffices.  Left distributivity at (a, c, b) is the one at (a, b, c),
    and at (a, b, b) it reads ab = ab + ab, so c > b suffices.  Right
    distributivity at (a, b, c) is left distributivity at (a, b, c).
    """
    n = len(add)
    rng = range(n)
    for a in rng:
        add_a, mul_a = add[a], mul[a]
        for b in rng:
            add_b, mul_b = add[b], mul[b]
            sum_ab, prod_ab = add[add_a[b]], mul[mul_a[b]]
            left_ab = add[mul_a[b]]
            for c in range(a + 1, n):
                if sum_ab[c] != add_a[add_b[c]] or prod_ab[c] != mul_a[mul_b[c]]:
                    return False
            for c in range(b + 1, n):
                if mul_a[add_b[c]] != left_ab[mul_a[c]]:
                    return False
    return True


def _label_problem(names: tuple[str, ...]) -> str | None:
    """Why these labels cannot name elements, or None if they can."""
    for name in names:
        if type(name) is not str:
            return f"bad label {name!r}: labels are str, not {type(name).__name__}"
        if not name or any(map(name.__contains__, _FORBIDDEN_IN_LABEL)) or name.split() != [name]:
            return (
                f"bad label {name!r}: labels are non-empty and contain no "
                "whitespace, '#' or ','"
            )
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        return f"duplicate label {dup!r}"
    return None


def build_algebra(
    names: list[str] | tuple[str, ...],
    add: list[list[str]],
    mul: list[list[str]],
    zero: str,
    one: str,
) -> Algebra:
    """Validate label tables and return the algebra they define.

    The zero label must be listed first (bitmask conventions downstream
    rely on it).  Dimension or label problems raise AlgebraError, as do
    labels, a table or a row that is not a tuple or list (a set has no order to
    map); axiom failures raise AxiomError carrying the complete violation report.
    """
    if not _all_sequences((type(names),)):
        raise AlgebraError(f"the labels {names!r} are not a tuple or list")
    names = tuple(map(str, names))
    index = dict(zip(names, range(len(names))))
    if zero not in names:
        raise AlgebraError(f"unknown zero label {zero!r}")
    if one not in names:
        raise AlgebraError(f"unknown one label {one!r}")
    if names[0] != zero:  # the Algebra constructor checks the labels
        raise AlgebraError(f"zero element {zero!r} must be listed first")

    def to_indices(table, what: str):
        # A set has no order to map; the Algebra constructor checks the shape.
        rows = []
        try:
            if not _all_sequences(map(type, chain((table,), table))):
                raise TypeError
            for i, row in enumerate(table, 1):
                rows.append(tuple(map(index.__getitem__, map(str, row))))
        except KeyError as exc:
            raise AlgebraError(f"{what} table row {i}: unknown label {exc.args[0]!r}") from None
        except TypeError:
            raise AlgebraError(f"the {what} table {table!r} is not a sequence of rows") from None
        return rows

    return Algebra(names, to_indices(add, "add"), to_indices(mul, "mul"), index[one])


def direct_product(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product; element (i, j) gets the label 'i.j'.

    A product of more than _BUILTIN_ORDER_BOUND elements is refused before
    any table is built.
    """
    for operand in (a, b):
        if not isinstance(operand, Algebra):
            raise AlgebraError(f"direct_product operand {operand!r} is not an Algebra")
    na, nb = a.order, b.order
    if na * nb > _BUILTIN_ORDER_BOUND:
        raise AlgebraError(f"the product of orders {na} and {nb} exceeds the order bound "
                           f"{_BUILTIN_ORDER_BOUND}")
    names = tuple(f"{a.names[i]}.{b.names[j]}" for i in range(na) for j in range(nb))

    def table(ta, tb):
        return tuple(
            tuple(ta[i][k] * nb + tb[j][l] for k in range(na) for l in range(nb))
            for i in range(na)
            for j in range(nb)
        )

    return Algebra(names, table(a.add, b.add), table(a.mul, b.mul), a.one * nb + b.one)


def chain_algebra(n: int) -> Algebra:
    """Total order 0 < c1 < ... < 1 with add = max and mul = min.

    Every ideal of a chain is a down-set, and every proper ideal is prime;
    chains are the simplest saturated-spectrum test family.  The order n is
    refused, before any table is built, unless an int in 2.._BUILTIN_ORDER_BOUND.
    """
    if type(n) is not int:
        raise AlgebraError(f"chain algebra order {n!r} is not an int")
    if not 2 <= n <= _BUILTIN_ORDER_BOUND:
        raise AlgebraError(f"chain algebra needs order 2..{_BUILTIN_ORDER_BOUND}, got {n}")
    names = ("0",) + tuple(f"c{i}" for i in range(1, n - 1)) + ("1",)
    add = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    mul = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return Algebra(names, add, mul, n - 1)


# The six-element builtin "example-6-2": ordering (0, z, x, y, u, 1) with
# z + x = x, z + y = y, x + y = u, u + 1 = 1, z**2 = 0, x and y orthogonal
# idempotents (xy = 0), u = x + y.  All remaining entries are forced by
# associativity and distributivity; the Algebra constructor re-verifies that
# completion on every construction.  Its zero ideal is not an intersection of
# saturated primary ideals, which makes it the stock counterexample for
# decomposition questions.
_EX62_NAMES = ("0", "z", "x", "y", "u", "1")
_EX62_ADD = (
    (0, 1, 2, 3, 4, 5),
    (1, 1, 2, 3, 4, 5),
    (2, 2, 2, 4, 4, 5),
    (3, 3, 4, 3, 4, 5),
    (4, 4, 4, 4, 4, 5),
    (5, 5, 5, 5, 5, 5),
)
_EX62_MUL = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 2, 0, 2, 2),
    (0, 0, 0, 3, 3, 3),
    (0, 0, 2, 3, 4, 4),
    (0, 1, 2, 3, 4, 5),
)


def _bool_algebra(k: int) -> Algebra:
    if k < 1:
        raise AlgebraError(f"bool algebra needs k >= 1, got {k}")
    out = chain_algebra(2)
    for _ in range(k - 1):
        out = direct_product(out, chain_algebra(2))
    return out


BUILTIN_NAMES = ("b1", "trivial", "example-6-2", "chain-N", "bool-K")
_BUILTIN_ORDER_BOUND = 128  # largest order of chain-N and bool-K (bool-7)


def builtin(name: str) -> Algebra:
    """Return a named builtin algebra.

    Fixed names: b1, trivial, example-6-2.  Parameterized families:
    chain-N (N >= 2) and bool-K (K-fold product of b1, K >= 1), with N or
    K in plain decimal digits and at most _BUILTIN_ORDER_BOUND elements.
    """
    if type(name) is not str:
        raise AlgebraError(f"builtin name {name!r} is not a str")
    if name == "b1":
        return chain_algebra(2)
    if name == "trivial":
        return Algebra(("0",), ((0,),), ((0,),), 0)
    if name == "example-6-2":
        return Algebra(_EX62_NAMES, _EX62_ADD, _EX62_MUL, 5)
    for prefix, make, max_param in (
        ("chain-", chain_algebra, _BUILTIN_ORDER_BOUND),
        ("bool-", _bool_algebra, _BUILTIN_ORDER_BOUND.bit_length() - 1),
    ):
        if name.startswith(prefix):
            digits = name[len(prefix):]
            if not (digits.isascii() and digits.isdigit()):
                raise AlgebraError(f"bad parameter in builtin name {name!r}")
            # Count digits first: int() refuses very long strings.
            if len(digits.lstrip("0")) > len(str(max_param)) or int(digits) > max_param:
                raise AlgebraError(
                    f"builtin {name!r} exceeds the order bound {_BUILTIN_ORDER_BOUND}"
                )
            return make(int(digits))
    raise AlgebraError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )
