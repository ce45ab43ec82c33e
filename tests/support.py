"""Shared fixtures-behind-the-fixtures: fleets, random algebras, mask
helpers, the work counter and table behind the frame and opcode
ceilings, and the checkers of the two recorded report tables.

Run as a script, ``PYTHONPATH=src python tests/support.py`` is the one
gate that needs no pytest.  It prints the engine frames and opcodes of
every input in ``WORK_INPUTS``, each beside its ceiling; off Python 3.11
it counts and gates the frames alone (see ``engine_frames``).  It prints
the engine's size, its lines and code lines (``engine_size``), which no
ceiling pins.  Then it checks every report that a table records
(``report_mismatches``): perfbench/expected.json, the benchmark's
digests, and tests/digest_corpus.json, the digest corpus.  It exits 1 if
any count is over its ceiling or any report differs from its table, and
names each.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import b1alg as b
from b1alg import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
import run  # noqa: E402  (perfbench/run.py)
import worker  # noqa: E402  (perfbench/worker.py)

_PACKAGE = str(Path(b.__file__).parent)
REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_PATH = Path(__file__).resolve().parent / "digest_corpus.json"

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


# Every work ceiling, by the name of the input it pins: (make, frames,
# opcodes), where make() returns (call, args) with every algebra built afresh
# so that no memo is warm, and frames and opcodes are the ceilings on the
# engine frames and opcodes of call(*args) (``engine_frames``).  Each ceiling
# is a count measured on Python 3.11; frames are the same on 3.10 and only
# fall from 3.12 on, which inlines comprehensions.  Re-measure with
# `PYTHONPATH=src python tests/support.py`, and lower a ceiling when a change
# cuts its count.  Traced for opcodes, each but the fleet pass takes well
# under 0.2 s; null-8's audit, at 0.5 s, is left out.
WORK_INPUTS = {
    # the fleet op's fixed cost and the work inside its loops, over ~220 algebras
    "fleet pass, seed 111": (lambda: _fleet_pass_input(111), 85_794, 5_216_089),
    "fleet op, example-6-2": (
        lambda: (fleet_op, (b.builtin("example-6-2"),)), 610, 32_113
    ),
    # the axiom gate and the mask tables
    "Algebra, bool-5 tables": (lambda: (b.Algebra, inputs.boolean(5)), 3, 725_415),
    # 72 ideals, and the audit's pair laws over them
    "audit, null-6": (lambda: (b.audit, (null_algebra(6),)), 2_766, 347_329),
    # 32 ideals, found as joins
    "enumerate_ideals, chain-32": (
        lambda: (b.enumerate_ideals, (b.chain_algebra(32),)), 531, 149_056
    ),
}


def ceiling_breaches(name: str, show=None) -> list[str]:
    """Trace the input ``WORK_INPUTS[name]`` once and return each of its
    counts that is over its ceiling, as a line naming the input.

    Frames are gated on every Python, opcodes only where ``OPCODES_EXACT``.
    show, if given, is called with each gated count beside its ceiling.
    """
    make, frame_ceiling, opcode_ceiling = WORK_INPUTS[name]
    call, args = make()
    if OPCODES_EXACT:
        frames, opcodes = engine_frames(call, *args, opcodes=True)
        counts = (("frames", len(frames), frame_ceiling), ("opcodes", opcodes, opcode_ceiling))
    else:
        counts = (("frames", len(engine_frames(call, *args)), frame_ceiling),)
    breaches = []
    for what, count, ceiling in counts:
        if show is not None:
            show(f"{name}: {count:,} {what}, ceiling {ceiling:,}")
        if count > ceiling:
            breaches.append(f"{name}: {count:,} {what}, over the ceiling {ceiling:,}")
    return breaches


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
    negative one, naming the lowest stray bit as ``ideal_violation`` does."""
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


def fleet_mismatches(recorded: dict) -> list[str]:
    """A line for each algebra the benchmark's fleet generator can draw
    whose fleet op (``worker.analyse``, parsing and rendering included)
    fails its audit or does not give its digest in ``recorded["fleet"]``,
    the fleet table of perfbench/expected.json; and one if that table
    holds other algebras than the drawable ones."""
    engine, _ = worker._import_engine(["cli", "ideals", "spectrum", "decompose"])
    texts = sorted(inputs.possible_fleet_texts())
    wrong = []
    if {run.text_key(t) for t in texts} != set(recorded["fleet"]):
        wrong.append("fleet: the recorded algebras are not the drawable ones")
    for text in texts:
        key = run.text_key(text)
        digest, passed = worker.analyse(engine, text)
        if not passed:
            wrong.append(f"fleet {key}: the audit fails")
        elif digest[:24] != recorded["fleet"].get(key):
            wrong.append(f"fleet {key}: report differs from perfbench/expected.json")
    return wrong


def cli_mismatches(workload: str, recorded: dict, where: Path) -> list[str]:
    """A line for each op of the CLI workload whose exit status and report,
    run in process through ``cli.main`` in both formats, differ from its
    entry in ``recorded["cli"]`` (perfbench/expected.json).

    The workload's input files are written afresh to the directory where,
    which must not exist yet, and the ops run from it, as they name their
    files relative to it; a set of files other than the recorded one is
    one line, and no op runs.
    """
    if run.write_inputs(run.CLI_INPUTS[workload](), where) != recorded["inputs"][workload]:
        return [f"{workload}: its input files differ from perfbench/expected.json"]
    wrong, cwd = [], os.getcwd()
    os.chdir(where)
    try:
        for op in run.CLI_OPS[workload]:
            for fmt in run.FORMATS:
                argv = run.op_argv(op, fmt)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if f"{code} {run.sha256(out.getvalue())}" != recorded["cli"][run.op_key(argv)]:
                    wrong.append(f"{workload}: {run.op_key(argv)}: "
                                 "report differs from perfbench/expected.json")
    finally:
        os.chdir(cwd)
    return wrong


# The digest corpus: byte-identity where the engine works hardest.  Each
# input is built once, afresh, and every file command is rendered in
# process through its function in ``cli.COMMANDS`` and ``cli._emit``, in
# both formats, sharing the input's memo.  Each report's SHA-256, with the
# command's exit status, must equal the entry recorded in
# tests/digest_corpus.json; a command that the CLI refuses is recorded as
# its status and error text instead.  The table was recorded once, after
# each input's ideals and primes had been checked by a second route
# (CHANGES.md says which), and changes only with a report that changes on
# purpose.

# Every file command, with the input's zero label for {zero}.
CORPUS_COMMANDS = (
    "validate", "ideals", "ideals --saturated", "spectrum", "nil", "assoc",
    "decompose --ideal {zero} --minimal", "laskerian", "evans", "audit",
)

# The indices into ``seeded_products`` of its five non-laskerian products
# and of its first five laskerian ones.
_SEEDED = (35, 43, 58, 64, 79, 0, 1, 2, 3, 4)


def _seeded(k: int):
    return lambda products: b.direct_product(*products[k][:2])


def _shipped(name: str):
    return lambda products: cli.parse_algebra_file(REPO_ROOT / "algebras" / name)


# Every corpus input by its report label: (make, commands left out).
# make(products) builds the algebra afresh from the factors in products,
# the list ``seeded_products`` returns, or alone.  null-12's audit takes
# about 11 s.
CORPUS_INPUTS = {
    "bool-7": (lambda products: b.builtin("bool-7"), ()),
    "chain-128": (lambda products: b.builtin("chain-128"), ()),
    "null-8": (lambda products: null_algebra(8), ()),
    "null-10": (lambda products: null_algebra(10), ()),
    "null-12": (lambda products: null_algebra(12), ("audit",)),
    "idempotent-chain": (lambda products: idempotent_chain(), ()),
    "monoid-ideals": (lambda products: monoid_ideal_algebra(), ()),
    **{f"seeded-product-{k}": (_seeded(k), ()) for k in _SEEDED},
    "trivial": (lambda products: b.builtin("trivial"), ()),
    **{f"algebras/{path.name}": (_shipped(path.name), ())
       for path in sorted((REPO_ROOT / "algebras").glob("*.b1a"))},
}


def corpus_reports(algebra: b.Algebra, label: str, left_out=()) -> dict[str, str]:
    """Each command line of ``CORPUS_COMMANDS`` and format, bar those left
    out, mapped to '<status> <SHA-256 of the report>' as the CLI would
    print it for a file named label, or to '2 error: <text>' for a command
    the CLI refuses."""
    parser, out = cli.build_parser(), {}
    for template in CORPUS_COMMANDS:
        if template.split()[0] in left_out:
            continue
        line = template.format(zero=algebra.names[0])
        args = parser.parse_args([*line.split(), label])
        try:
            payload, status = args.run(algebra, args)
        except b.AlgebraError as exc:
            for fmt in run.FORMATS:
                out[f"{line} --format {fmt}"] = f"2 error: {exc}"
            continue
        for fmt in run.FORMATS:
            report = io.StringIO()
            cli._emit(args.command, label, payload, fmt, report)
            out[f"{line} --format {fmt}"] = f"{status} {run.sha256(report.getvalue())}"
    return out


def corpus_mismatches(recorded: dict, products, labels=None) -> list[str]:
    """A line for each corpus input of labels, by default all of them,
    whose reports differ from its entry in recorded, the table of
    tests/digest_corpus.json, naming the command lines that differ; with
    every label, also one if the table's inputs are not ``CORPUS_INPUTS``,
    in order."""
    wrong = []
    if labels is None:
        labels = CORPUS_INPUTS
        if list(recorded) != list(CORPUS_INPUTS):
            wrong.append("digest corpus: the recorded inputs are not CORPUS_INPUTS, in order")
    for label in labels:
        make, left_out = CORPUS_INPUTS[label]
        got, want = corpus_reports(make(products), label, left_out), recorded.get(label, {})
        differ = [line for line in {**want, **got} if got.get(line) != want.get(line)]
        if differ:
            wrong.append(f"{label}: reports differ from the digest corpus: {', '.join(differ)}")
    return wrong


def report_mismatches() -> list[str]:
    """A line for each entry of the two recorded report tables that the
    engine does not reproduce: in perfbench/expected.json, the fleet op on
    every drawable algebra and every op of the cli-small and enum-large
    workloads (``fleet_mismatches``, ``cli_mismatches``), and in
    tests/digest_corpus.json, every corpus input (``corpus_mismatches``).

    B1ALG_ENUM_BOUND is removed from the environment first, as the
    benchmark's children run without it.
    """
    os.environ.pop("B1ALG_ENUM_BOUND", None)
    expected = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
    wrong = fleet_mismatches(expected)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in run.CLI_INPUTS:
            wrong += cli_mismatches(workload, expected, Path(tmp) / workload)
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    products = seeded_products([*named_base_fleet().values(), *random_fleet()])
    return wrong + corpus_mismatches(corpus, products)


def main() -> int:
    """Print every gated count beside its ceiling and the engine's size,
    then check every recorded report; 1 if any count is over its ceiling
    or any report differs from its table, each named, else 0."""
    if not OPCODES_EXACT:
        print(f"Python {sys.version.split()[0]}: frames only.  Opcodes are counted on "
              "Python 3.11 alone, which the ceilings are measured on; sys.settrace "
              "misses some on 3.12 and 3.13.")
    breaches = []
    for name in WORK_INPUTS:
        breaches += ceiling_breaches(name, show=print)
    lines, code = engine_size()
    print(f"src/b1alg/*.py: {lines:,} lines, {code:,} code lines")
    mismatches = report_mismatches()
    if not mismatches:
        print("reports: every entry of perfbench/expected.json and "
              "tests/digest_corpus.json matches")
    for breach in breaches:
        print(f"OVER: {breach}")
    for mismatch in mismatches:
        print(f"DIFFERS: {mismatch}")
    return 1 if breaches or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
