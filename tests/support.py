"""Shared fixtures-behind-the-fixtures: fleets, random algebras, mask
helpers, and the work counter behind the frame and opcode ceilings.

Run as a script, ``PYTHONPATH=src python tests/support.py`` prints the
engine frames and opcodes of every input a tier-1 ceiling pins; off
Python 3.11 it prints the frames alone (see ``engine_frames``).  It also
prints the engine's size, its lines and code lines (``engine_size``).
"""

from __future__ import annotations

import ast
import random
import re
import sys
from pathlib import Path

import b1alg as b

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
import worker  # noqa: E402  (perfbench/worker.py)

_PACKAGE = str(Path(b.__file__).parent)

# Whether this Python counts opcodes exactly: see ``engine_frames``.
OPCODES_EXACT = sys.version_info[:2] == (3, 11)


def engine_frames(call, *args, opcodes: bool = False):
    """Names of the b1alg frames that call(*args) enters, in order; with
    opcodes=True, the pair (names, count of opcodes executed in b1alg).

    Frames are sys.setprofile "call" events whose code lives in the b1alg
    package; a generator resumed n times counts n times.  Opcodes are
    sys.settrace "opcode" events (``f_trace_opcodes``) in those frames, so
    they see the work inside a loop that frames cannot: ``Algebra(...)``
    enters three frames at any order.  Both counts are the same on every
    host for a given Python version; the ceilings are Python 3.11 counts.
    On 3.12.1 and 3.13.0, where sys.settrace runs on sys.monitoring, some
    traced calls read 0 or too few opcodes, so opcodes=True raises
    RuntimeError on any Python but 3.11 rather than pass a ceiling vacuously.
    """
    if opcodes and not OPCODES_EXACT:
        raise RuntimeError(
            f"opcode counts are exact only on Python 3.11, not {sys.version.split()[0]}"
        )
    names: list[str] = []
    count = 0

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            names.append(frame.f_code.co_name)

    def step(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return step

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return step

    sys.setprofile(profile)
    if opcodes:
        sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return (names, count) if opcodes else names


def engine_size(package: str | Path = _PACKAGE) -> tuple[int, int]:
    """(lines, code lines) of the modules ``*.py`` of a package directory,
    by default the engine's, ``src/b1alg``.

    A code line is non-blank, not a comment, and not inside a module,
    class or function docstring.
    """
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = code = 0
    for path in sorted(Path(package).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, documented) and ast.get_docstring(node) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        rows = text.splitlines()
        lines += len(rows)
        code += sum(
            1 for k, row in enumerate(rows, 1)
            if row.strip() and not row.lstrip().startswith("#") and k not in docstrings
        )
    return lines, code


def fleet_op(algebra: b.Algebra) -> None:
    """The library op of the benchmark's fleet workload, less parsing and
    rendering."""
    b.spectrum(algebra)
    b.laskerian_check(algebra)
    full = b.full_mask(algebra)
    for m in b.enumerate_saturated_ideals(algebra):
        if m != full:
            b.evans_report(algebra, m)
    b.minimalize(b.radical_decomposition(algebra, 1))
    b.audit(algebra)


def _fleet_pass_input(seed: int):
    """(call, args) of one pass of the benchmark's fleet workload: its
    fleet op (``worker.analyse``, parsing and rendering included) on each
    text of the seeded fleet, in order."""
    engine, _ = worker._import_engine(["cli", "ideals", "spectrum", "decompose"])
    texts = inputs.fleet_inputs(seed)
    return lambda: [worker.analyse(engine, text) for text in texts], ()


# Each input whose engine frames or opcodes a tier-1 ceiling pins, by name:
# a function that returns (call, args), every algebra built afresh so that
# no memo is warm.  Traced for opcodes, each but the fleet pass takes well
# under 0.2 s; null-8's audit, at 0.5 s, is left out.
WORK_INPUTS = {
    "fleet pass, seed 111": lambda: _fleet_pass_input(111),
    "fleet op, example-6-2": lambda: (fleet_op, (b.builtin("example-6-2"),)),
    "Algebra, bool-5 tables": lambda: (b.Algebra, inputs.boolean(5)),
    "audit, null-6": lambda: (b.audit, (null_algebra(6),)),
    "enumerate_ideals, chain-32": lambda: (b.enumerate_ideals, (b.chain_algebra(32),)),
}


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
    import pytest  # here, so that the count command runs without pytest

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


def named_base_fleet() -> dict[str, b.Algebra]:
    """The benchmark's named base fleet (``inputs.named_base_fleet``): b1,
    the six-element builtin, chains 2..6, and their pairwise products up
    to order 12, each built from its tables by the ``Algebra`` constructor
    alone."""
    return {name: b.Algebra(*table) for name, table in inputs.named_base_fleet().items()}


def random_fleet(count: int = 200, seed: int = 20120901, max_order: int = 6):
    """The benchmark's seeded draw (``inputs.random_fleet``): random
    generated subalgebras and Bourne quotients of products of the seed
    algebras, rejected over max_order, each built from its tables by the
    ``Algebra`` constructor alone, which checks its axioms."""
    return [b.Algebra(*table) for table in inputs.random_fleet(seed, count, max_order)]


if __name__ == "__main__":
    if not OPCODES_EXACT:
        print(f"Python {sys.version.split()[0]}: frames only.  Opcodes are counted on "
              "Python 3.11 alone, which the ceilings are measured on; sys.settrace "
              "misses some on 3.12 and 3.13.")
    for name, make in WORK_INPUTS.items():
        call, args = make()
        if OPCODES_EXACT:
            frames, count = engine_frames(call, *args, opcodes=True)
            print(f"{name}: {len(frames):,} frames, {count:,} opcodes")
        else:
            print(f"{name}: {len(engine_frames(call, *args)):,} frames")
    lines, code = engine_size()
    print(f"src/b1alg/*.py: {lines:,} lines, {code:,} code lines")
