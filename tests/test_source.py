"""Checks on the source tree and the README rather than on the engine."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import b1alg as b

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "b1alg"

# Each module of the package, parsed once, by file name.
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE_DIR.glob("*.py"))
}


def functions(module: str) -> dict[str, ast.FunctionDef]:
    """The module-level functions of the package module file, by name."""
    return {node.name: node for node in TREES[module].body if isinstance(node, ast.FunctionDef)}


def called(node: ast.AST) -> set[str]:
    """The names that calls under node call by a bare name."""
    return {
        sub.func.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
    }


def test_each_public_name_is_declared_once_where_it_is_defined():
    # Each engine module's __all__ names exactly the public functions and
    # classes it defines, and the package re-exports the four as they are,
    # so a public name added without an entry fails here instead of escaping
    # `from b1alg import *` and every test that reads b1alg.__all__.
    declared = []
    for name in ("algebra", "ideals", "spectrum", "decompose"):  # dependency order
        defined = [
            node.name for node in TREES[f"{name}.py"].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        exported = importlib.import_module(f"b1alg.{name}").__all__
        assert type(exported) is tuple and sorted(exported) == sorted(defined), name
        declared += exported
    assert len(set(declared)) == len(declared)  # no name in two modules
    assert b.__all__ == ("__version__", *declared)
    assert {
        alias.name for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    } == {"*"}
    namespace: dict = {}
    exec("from b1alg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(b.__all__)
    # The submodule and the function share a name: the package binds the
    # function, and the module stays reachable through importlib.
    module = importlib.import_module("b1alg.spectrum")
    assert inspect.ismodule(module) and b.spectrum is module.spectrum


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants must raise instead.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_level_mutable_containers_in_the_package():
    # The algebra's memo (Algebra._memo, filled through ideals._per_algebra
    # and ideals._per_mask) is the engine's only cache; a module-level dict,
    # list or set would be a second, global one.
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    factories = {"dict", "list", "set", "WeakKeyDictionary", "WeakValueDictionary"}
    found = []
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in factories:
                    found.append(f"{module}:{node.lineno}")
            elif isinstance(value, displays):
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_no_memo_bypasses_in_the_package():
    # Each per-ideal result has one route, the memoized function; reading
    # fn.__wrapped__ would compute it a second way, around the memo.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__wrapped__"
    ]
    assert found == []


def test_only_the_enumeration_reads_the_bound():
    # The bound budgets the one exponential search; every family is read off
    # its result, so a second reader would only re-check a finished search.
    def callers(node, function):
        """Names of the functions under node that call enumeration_bound."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == "enumeration_bound":
                    yield function
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from callers(child, child.name if defines else function)

    found = {
        f"{module}:{name}" for module, tree in TREES.items() for name in callers(tree, "<module>")
    }
    assert found == {"ideals.py:enumerate_ideals"}


def test_only_the_pair_masks_read_the_product_masks():
    # Ann(x) and the zero divisors come from the constructor's own rows
    # (Algebra._annihilators and _zero_divisors), so no function shifts a row
    # out of the n*n-bit mask _products[0] again; only the conductors' pair
    # mask needs the product masks.
    def readers(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "_products":
                yield where
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from readers(child, f"{where}.{child.name}".lstrip(".") if named else where)

    found = {f"{module}:{name}" for module, tree in TREES.items() for name in readers(tree, "")}
    assert found == {"algebra.py:Algebra.__init__", "ideals.py:_pairs_in"}


def test_audit_checks_take_only_the_algebra():
    # Each audit check asks the memoized families itself; a second
    # parameter would carry a per-call copy of what the memo already holds.
    # Of the 21 audit rows, axioms and natural-order are the constructor's
    # certificate, written as constant rows, so 19 rows have a check.
    checks = {
        name: [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        for name, node in functions("decompose.py").items()
        if name.startswith("_audit_")
    }
    assert len(checks) == 19
    assert {name: args for name, args in checks.items() if args != ["algebra"]} == {}


def test_decomposition_precondition_is_checked_once():
    # The public entry points check a decomposition's input; the audit and
    # the radical decomposition hold masks that are ideals by construction,
    # so they call the split and the memoized tests without a re-check.
    calls = {name: called(node) for name, node in functions("decompose.py").items()}
    entry_points = {"weak_decompose", "radical_decomposition", "evans_report"}
    checking = {name for name, called in calls.items() if "_require_saturated_proper" in called}
    assert checking == entry_points
    # an entry point that called another would check the same input twice
    assert {name for name in entry_points if calls[name] & entry_points} == set()
    checked_routes = {"weak_decompose", "is_ideal"}
    audit_checks = [name for name in calls if name.startswith("_audit_")]
    assert len(audit_checks) == 19
    assert [name for name in audit_checks if calls[name] & checked_routes] == []


def test_only_the_split_step_splits_a_node():
    # Each node's witness and arms come from one memoized step, which every
    # split through the node shares; the walk that reads the steps never
    # calls itself, as a split can run deeper than the recursion limit.
    calls = {name: called(node) for name, node in functions("decompose.py").items()}
    splitting = {name for name, called in calls.items() if "_join" in called}
    assert splitting == {"_split_step"}
    assert "_split" not in calls["_split"] and "_split_step" not in calls["_split_step"]
    # The step's verdict and witness both come from the memoized divisor
    # set: j is prime iff D(j) lies in j, and the least element of D(j)
    # outside j starts the first failing pair.
    assert "divisor_set" in calls["_split_step"]
    assert not calls["_split_step"] & {"is_prime", "_pairs_in"}


def test_each_inclusion_is_tested_where_it_is_relied_on():
    # The walk ends because each arm strictly holds its node, so the walk
    # checks both arms on every visit, a step read from the memo included,
    # and the memoized step only computes.  A saturated prime holds the join
    # of Ann(x) exactly when it holds Ann(x), so associated_primes tests
    # Ann(x) itself and never forms the join.
    def arm_checks(node):
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and "split arm failed" in str(sub.value)
        ]

    decompose = functions("decompose.py")
    walk = next(sub for sub in ast.walk(decompose["_split"]) if isinstance(sub, ast.While))
    assert arm_checks(decompose["_split_step"]) == [] and len(arm_checks(walk)) == 1
    tree, spectrum = TREES["spectrum.py"], functions("spectrum.py")
    named = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    named |= {sub.name for sub in ast.walk(tree) if isinstance(sub, ast.alias)}
    assert "_member_sum" not in named
    read = {sub.attr for sub in ast.walk(spectrum["associated_primes"]) if isinstance(sub, ast.Attribute)}
    assert "_annihilators" in read


def test_the_associated_oracle_builds_its_own_quotients():
    # The oracle is the route that does not run the engine's: it builds each
    # A/Ann(x) with the constructor and pulls its primes back itself, so the
    # only engine names it reads are the constructor and the annihilator.
    tree = ast.parse((REPO_ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    oracle = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "associated_oracle"
    )
    read = {
        sub.attr for sub in ast.walk(oracle)
        if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "b"
    }
    assert read == {"Algebra", "annihilator"}


def test_the_prime_and_primary_tests_are_inclusions_in_the_divisor_set():
    # I is prime iff D(I) lies in I, and primary iff D(I) lies in r(I), so
    # both read the memoized divisor set and neither scans P(I) again, nor
    # tests the range that the divisor set refuses first.
    spectrum = functions("spectrum.py")
    tests = {name: spectrum[name] for name in ("is_prime", "is_primary") if name in spectrum}
    assert set(tests) == {"is_prime", "is_primary"}
    for node in tests.values():
        calls = called(node)
        loop = (ast.For, ast.While, ast.comprehension)
        loops = [sub for sub in ast.walk(node) if isinstance(sub, loop)]
        assert "divisor_set" in calls and not calls & {"_pairs_in", "_out_of_range"}
        assert loops == []


def test_no_exponential_subset_loops_in_the_package():
    # Subset scans over range(1 << n) or range(2 ** n), and searches through
    # itertools' combinations, permutations or products, belong to the test
    # oracles (standard_oracle, associated_oracle); the engine enumerates
    # ideals in time that grows with their number, and reads the standard
    # cover and the associated primes off the saturated primes.
    def exponential(node):
        return isinstance(node, ast.BinOp) and (
            isinstance(node.op, ast.LShift)
            or isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 2
        )

    searches = {"combinations", "permutations", "product"}

    def subset_search(node):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            return any(alias.name in searches for alias in node.names)
        return (
            isinstance(node, ast.Attribute)
            and node.attr in searches
            and getattr(node.value, "id", None) == "itertools"
        )

    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if subset_search(node)
        or isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "range"
        and any(exponential(arg) for arg in node.args)
    ]
    assert found == []


def test_element_wise_operations_read_the_mask_tables():
    # These read the masks Algebra builds once; a scan of the add or mul rows
    # here would redo that work on every call.  The whole-ideal questions
    # read the pair-product masks, so a per-element conductor call there
    # would be n calls where a few mask operations do.
    wanted = {
        "ideals.py": {"saturation", "radical", "annihilator", "conductor", "_generated"},
        "spectrum.py": {"is_prime", "is_primary", "divisor_set", "zero_divisors"},
        "decompose.py": {"evans_report"},
    }
    whole_ideal = {"is_prime", "is_primary", "divisor_set", "evans_report"}
    found = []
    for name, reading in wanted.items():
        defined = functions(name)
        assert reading <= set(defined), f"{name} lacks {reading - set(defined)}"
        for node in (defined[function] for function in sorted(reading)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr in ("add", "mul"):
                    found.append(f"{name}:{sub.lineno}")
                elif (
                    node.name in whole_ideal
                    and isinstance(sub, ast.Call)
                    and getattr(sub.func, "id", None) == "conductor"
                ):
                    found.append(f"{name}:{sub.lineno} conductor call")
    assert found == []


def test_readme_library_example_runs(capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the printed components are the ones the example's comment names
    assert capsys.readouterr().out == "[('0', 'z', 'x'), ('0', 'z', 'y')]\n"


def test_cli_import_skips_heavy_standard_modules():
    # Every CLI op pays for what `import b1alg.cli` loads: the records are
    # named tuples, and json is imported only for --format json.  -S keeps
    # the environment's site hooks, which may load anything, out.
    heavy = ("dataclasses", "inspect", "typing", "json")
    probe = f"import b1alg.cli, sys; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
