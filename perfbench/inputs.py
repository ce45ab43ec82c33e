"""Benchmark inputs, generated without the engine under test.

Every input is a small table algebra ``(names, add, mul, one)`` with
integer Cayley tables, built here in plain Python and written out as .b1a
text in the engine's canonical serialization.  Keeping the generators in
the benchmark means an edit to the engine or to its tests cannot shift the
workload; the recorded digests in ``expected.json`` catch any drift in the
generators themselves.

The random fleet is a copy of the seeded rejection sampler the test suite
uses (subalgebras and Bourne quotients of products of a few seed
algebras, order at most 6), so the fleet workload has the same mix of
shapes and the same share of repeated algebras.
"""

from __future__ import annotations

import random

# (names, add, mul, one); zero is element 0.
Table = tuple


def chain(n: int) -> Table:
    names = ("0",) + tuple(f"c{i}" for i in range(1, n - 1)) + ("1",)
    add = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    mul = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return names, add, mul, n - 1


def b1() -> Table:
    return chain(2)


def example_6_2() -> Table:
    names = ("0", "z", "x", "y", "u", "1")
    add = (
        (0, 1, 2, 3, 4, 5),
        (1, 1, 2, 3, 4, 5),
        (2, 2, 2, 4, 4, 5),
        (3, 3, 4, 3, 4, 5),
        (4, 4, 4, 4, 4, 5),
        (5, 5, 5, 5, 5, 5),
    )
    mul = (
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 2, 0, 2, 2),
        (0, 0, 0, 3, 3, 3),
        (0, 0, 2, 3, 4, 4),
        (0, 1, 2, 3, 4, 5),
    )
    return names, add, mul, 5


def product(a: Table, b: Table) -> Table:
    """Componentwise product; element (i, j) is labelled 'i.j'."""
    an, aadd, amul, aone = a
    bn, badd, bmul, bone = b
    na, nb = len(an), len(bn)
    names = tuple(f"{an[i]}.{bn[j]}" for i in range(na) for j in range(nb))

    def table(ta, tb):
        return tuple(
            tuple(ta[i][k] * nb + tb[j][l] for k in range(na) for l in range(nb))
            for i in range(na)
            for j in range(nb)
        )

    return names, table(aadd, badd), table(amul, bmul), aone * nb + bone


def boolean(k: int) -> Table:
    out = b1()
    for _ in range(k - 1):
        out = product(out, b1())
    return out


def serialize(alg: Table) -> str:
    names, add, mul, one = alg
    lines = ["elements " + " ".join(names), f"zero {names[0]}", f"one {names[one]}"]
    for directive, table in (("add", add), ("mul", mul)):
        lines.append(directive)
        lines.extend(" ".join(names[e] for e in row) for row in table)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI inputs


def _broken_inputs() -> dict[str, str]:
    ex62 = serialize(example_6_2()).splitlines(keepends=True)
    # Last add row loses an entry: a ParseError, exit 2.
    syntax = list(ex62)
    syntax[9] = "1 1 1 1 1\n"
    # mul(x, y) = x while mul(y, x) = 0: breaks commutativity, exit 2.
    names, add, mul, one = example_6_2()
    mul = [list(row) for row in mul]
    mul[2][3] = 2
    mutated = serialize((names, add, tuple(map(tuple, mul)), one))
    return {"syntax-error.b1a": "".join(syntax), "example-6-2-mutated.b1a": mutated}


def cli_small_inputs() -> dict[str, str]:
    files = {
        "b1.b1a": serialize(b1()),
        "chain-4.b1a": serialize(chain(4)),
        "example-6-2.b1a": serialize(example_6_2()),
        "bool-3.b1a": serialize(boolean(3)),
    }
    files.update(_broken_inputs())
    return files


def enum_large_inputs() -> dict[str, str]:
    return {
        "chain-18.b1a": serialize(chain(18)),
        "bool-4.b1a": serialize(boolean(4)),
        "example-6-2xchain-3.b1a": serialize(product(example_6_2(), chain(3))),
        "chain-3xchain-6.b1a": serialize(product(chain(3), chain(6))),
        "chain-20.b1a": serialize(chain(20)),
    }


# ---------------------------------------------------------------------------
# Fleet inputs: a copy of the test suite's seeded generator


def named_base_fleet() -> dict[str, Table]:
    """b1, example-6-2, chains 2..6 and their pairwise products up to order 12."""
    named = {"b1": b1(), "example-6-2": example_6_2()}
    for n in range(2, 7):
        named[f"chain-{n}"] = chain(n)
    items = list(named.items())
    fleet = dict(named)
    for i, (ni, ai) in enumerate(items):
        for nj, aj in items[i:]:
            if len(ai[0]) * len(aj[0]) <= 12:
                fleet[f"{ni}*{nj}"] = product(ai, aj)
    return fleet


def product_pool() -> list[Table]:
    seeds = [b1(), example_6_2(), chain(3), chain(4), chain(5)]
    pool = list(seeds)
    for i in range(len(seeds)):
        for j in range(i, len(seeds)):
            pool.append(product(seeds[i], seeds[j]))
    return pool


def subalgebra(base: Table, gens, max_order: int) -> Table | None:
    """Subalgebra generated by gens, or None once it outgrows max_order."""
    names, add, mul, one = base
    closure = {0, one, *gens}
    changed = True
    while changed and len(closure) <= max_order:
        changed = False
        for x in list(closure):
            for y in list(closure):
                for v in (add[x][y], mul[x][y]):
                    if v not in closure:
                        closure.add(v)
                        changed = True
    if len(closure) > max_order:
        return None
    members = sorted(closure)
    pos = {m: k for k, m in enumerate(members)}
    return (
        tuple(names[m] for m in members),
        tuple(tuple(pos[add[x][y]] for y in members) for x in members),
        tuple(tuple(pos[mul[x][y]] for y in members) for x in members),
        pos[one],
    )


def _generated_ideal(base: Table, gens) -> set[int]:
    _, add, mul, _ = base
    ideal = {0} | {mul[a][s] for s in gens for a in range(len(add))}
    changed = True
    while changed:
        changed = False
        for i in list(ideal):
            for j in list(ideal):
                if add[i][j] not in ideal:
                    ideal.add(add[i][j])
                    changed = True
    return ideal


def bourne_quotient(base: Table, gens) -> Table:
    """Quotient by the Bourne congruence of the ideal generated by gens.

    a ~ b iff a + w = b + w for some w in the ideal; classes are numbered
    by smallest member and labelled '[rep]'.
    """
    names, add, mul, one = base
    ideal = sorted(_generated_ideal(base, gens))
    n = len(names)
    class_of = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if class_of[a] != -1:
            continue
        class_of[a] = len(reps)
        for b in range(a + 1, n):
            if class_of[b] == -1 and any(add[a][w] == add[b][w] for w in ideal):
                class_of[b] = len(reps)
        reps.append(a)
    return (
        tuple(f"[{names[r]}]" for r in reps),
        tuple(tuple(class_of[add[r][s]] for s in reps) for r in reps),
        tuple(tuple(class_of[mul[r][s]] for s in reps) for r in reps),
        class_of[one],
    )


def random_fleet(seed: int, count: int = 200, max_order: int = 6) -> list[Table]:
    """Rejection-sampled random subalgebras and quotients of the pool."""
    rng = random.Random(seed)
    pool = product_pool()
    fleet: list[Table] = []
    while len(fleet) < count:
        base = pool[rng.randrange(len(pool))]
        order = len(base[0])
        if rng.random() < 0.5:
            gens = rng.sample(range(order), k=rng.randint(1, min(3, order)))
            made = subalgebra(base, gens, max_order)
        else:
            gens = rng.sample(range(order), k=rng.randint(0, 2))
            made = bourne_quotient(base, gens)
            if len(made[0]) > max_order:
                made = None
        if made is not None:
            fleet.append(made)
    return fleet


def fleet_inputs(seed: int) -> list[str]:
    """The base fleet followed by the seeded random draw, as .b1a texts."""
    base = [serialize(a) for a in named_base_fleet().values()]
    return base + [serialize(a) for a in random_fleet(seed)]


def possible_fleet_texts() -> set[str]:
    """Every algebra random_fleet can draw, found by trying every choice.

    Used when recording expected results, so that any seed's draw is
    covered by the record.
    """
    from itertools import combinations

    out = {serialize(a) for a in named_base_fleet().values()}
    for base in product_pool():
        order = len(base[0])
        for k in range(1, min(3, order) + 1):
            for gens in combinations(range(order), k):
                made = subalgebra(base, gens, 6)
                if made is not None:
                    out.add(serialize(made))
        for k in range(0, 3):
            for gens in combinations(range(order), k):
                made = bourne_quotient(base, gens)
                if len(made[0]) <= 6:
                    out.add(serialize(made))
    return out
