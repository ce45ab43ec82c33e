"""Span tracing of the engine's public functions, installed from outside.

``Tracer.install`` rebinds each function in ``TRACED`` with a timing
wrapper in every ``b1alg`` module namespace that holds it, so calls made
through ``from .ideals import saturation`` style imports are caught too.
No source file is edited.  Each call records a span (name, start, end,
parent span, op id) in flat in-memory arrays; ``summary`` folds them into
call counts and self times, where self time is a span's duration minus
the time its child spans cover.  Only public names are touched, so
the tracer survives refactors of the engine's private helpers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, function) pairs: the layer boundaries the per-layer metrics use.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_algebra_text"),
    ("algebra", "check_axioms"),
    ("algebra", "build_algebra"),
    ("ideals", "enumerate_ideals"),
    ("ideals", "enumerate_saturated_ideals"),
    ("ideals", "saturation"),
    ("ideals", "radical"),
    ("ideals", "generated_ideal"),
    ("ideals", "bourne_congruence"),
    ("ideals", "quotient"),
    ("spectrum", "is_prime"),
    ("spectrum", "is_primary"),
    ("spectrum", "associated_primes"),
    ("spectrum", "is_standard"),
    ("spectrum", "spectrum"),
    ("decompose", "weak_decompose"),
    ("decompose", "radical_decomposition"),
    ("decompose", "laskerian_check"),
    ("decompose", "evans_report"),
    ("decompose", "audit"),
)

ENUMERATE = "ideals.enumerate_ideals"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = 0
        self._stack: list[int] = []
        # enumerate_ideals extras: ideals returned and distinct algebras.
        self.ideals_returned = 0
        self.enumerated: set = set()

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "b1alg" or k.startswith("b1alg.")]
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"b1alg.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, ops = (
            self.name_id, self.start, self.end, self.parent, self.op)
        stack = self._stack
        clock = time.perf_counter_ns
        counting = name == ENUMERATE

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counting:
                algebra = args[0]
                self.ideals_returned += len(result)
                self.enumerated.add((algebra.names, algebra.add, algebra.mul, algebra.one))
            return result

        return functools.wraps(fn)(traced)

    def summary(self) -> dict:
        """Per function: calls and self_ns; plus enumeration extras."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            s["calls"] += 1
            s["self_ns"] += self.end[i] - self.start[i] - child[i]
        return {
            "functions": stats,
            "ideals_returned": self.ideals_returned,
            "distinct_enumerated": len(self.enumerated),
        }

    def write_spans(self, path: str) -> None:
        """Dump the raw spans: a name table line, then five int64 columns."""
        with open(path, "wb") as fh:
            fh.write((" ".join(self.names) + "\n").encode())
            for column in (self.name_id, self.start, self.end, self.parent, self.op):
                array("q", column).tofile(fh)
