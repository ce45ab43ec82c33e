"""Child process of the benchmark: one traced CLI op, or one fleet pass.

    worker.py cli SPAWN_NS OP_ID STATS SPANS -- CLI_ARGS...
        Time the import of b1alg.cli, install the tracer, call
        b1alg.cli.main(CLI_ARGS) and exit with its code.  stdout is the
        CLI's own output; timings and trace stats go to the STATS file.

    worker.py fleet SPAWN_NS TRACE STATS SPANS < texts.json
        Analyse each .b1a text of the JSON list on stdin, in order, in this
        one process, and write per-op latency and result digests to STATS.

SPAWN_NS is the parent's time.time_ns() just before the spawn, so the gap
to this module's first statement is the interpreter start.
"""

import time

T_ENTER = time.time_ns()

# Only modules the interpreter has loaded at start-up come before the
# engine import, so its timing matches a plain `python -m b1alg.cli`;
# json and hashlib are imported after it.
import importlib  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402


def _import_engine(names):
    t0 = time.perf_counter_ns()
    modules = {n: importlib.import_module(f"b1alg.{n}") for n in names}
    return SimpleNamespace(**modules), time.perf_counter_ns() - t0


def _traced_call(trace: bool, stats_path: str, spans_path: str, stats: dict, call):
    import json

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = call(tracer)
    if tracer is not None:
        stats["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return result


def cli_op(argv: list[str]) -> int:
    spawn_ns, op_id, stats_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: worker.py cli SPAWN_NS OP_ID STATS SPANS -- ARGS...")
    interpreter_ns = T_ENTER - int(spawn_ns)
    b, import_ns = _import_engine(["cli"])
    stats = {"interpreter_ns": interpreter_ns, "import_ns": import_ns}

    def call(tracer):
        tracer.current_op = int(op_id)
        code = b.cli.main(cli_args)
        sys.stdout.flush()
        return code

    return _traced_call(True, stats_path, spans_path, stats, call)


def analyse(b, text: str) -> tuple[str, bool]:
    """The fleet op: parse, then the full analysis of one algebra.

    Returns the SHA-256 of a canonical JSON rendering of every result and
    whether the audit passed.  Engine functions are looked up on their
    modules at call time, so a tracer installed after import sees them.
    """
    import hashlib
    import json

    alg = b.cli.parse_algebra_text(text)

    def lab(mask):
        return ",".join(b.ideals.member_labels(alg, mask))

    def labs(masks):
        return [lab(m) for m in masks]

    sp = b.spectrum.spectrum(alg)
    lask = b.decompose.laskerian_check(alg)
    full = b.ideals.full_mask(alg)
    evans = [
        b.decompose.evans_report(alg, m)
        for m in b.ideals.enumerate_saturated_ideals(alg)
        if m != full
    ]
    dec = None
    if not alg.is_trivial:
        dec = b.decompose.minimalize(b.decompose.radical_decomposition(alg, 1))
    au = b.decompose.audit(alg)
    result = {
        "order": alg.order,
        "spectrum": [
            labs(sp.primes), labs(sp.saturated_primes), labs(sp.min_primes),
            labs(sp.min_saturated_primes), labs(sp.max_saturated),
            [[alg.names[x], lab(p)] for x, p in sp.associated],
            lab(sp.nilradical), lab(sp.zero_divisors), sp.standard,
            labs(sp.standard_cover),
        ],
        "laskerian": [
            lask.laskerian,
            None if lask.witness is None else lab(lask.witness),
            [[lab(i), labs(parts)] for i, parts in lask.table],
            labs(lask.saturated_primaries), labs(lask.primaries),
        ],
        "evans": [
            [lab(r.ideal), [[alg.names[y], lab(c)] for y, c in r.maximal_conductors],
             r.all_prime, r.all_saturated, r.union_equals_divisor_set, r.passed]
            for r in evans
        ],
        "decomposition": None if dec is None else [
            labs(dec.components), dec.irredundant,
            [[lab(node), alg.names[u], alg.names[v]] for node, (u, v) in dec.split_trace],
        ],
        "audit": [[c.name, c.passed, c.detail] for c in au.checks],
    }
    blob = json.dumps(result, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), au.passed


def fleet_pass(argv: list[str]) -> int:
    spawn_ns, trace, stats_path, spans_path = argv
    interpreter_ns = T_ENTER - int(spawn_ns)
    b, import_ns = _import_engine(["cli", "ideals", "spectrum", "decompose"])
    import json

    texts = json.load(sys.stdin)
    stats = {"interpreter_ns": interpreter_ns, "import_ns": import_ns}

    def call(tracer):
        latency, digests, passed = [], [], []
        clock = time.perf_counter_ns
        w0 = clock()
        for i, text in enumerate(texts):
            if tracer is not None:
                tracer.current_op = i
            t0 = clock()
            try:
                digest, ok = analyse(b, text)
            except Exception as exc:  # one bad algebra must not end the pass
                digest, ok = f"error: {type(exc).__name__}: {exc}", False
            latency.append(clock() - t0)
            digests.append(digest)
            passed.append(ok)
        stats.update(window_ns=clock() - w0, latency_ns=latency,
                     digests=digests, audit_passed=passed)
        return 0

    return _traced_call(trace == "1", stats_path, spans_path, stats, call)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(cli_op(rest) if mode == "cli" else fleet_pass(rest))
