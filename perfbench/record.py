"""Record the reference digests in expected.json.  Run once, at the commit
that defines the baseline; rerunning it later would bless whatever the
engine then prints.

    python3 perfbench/record.py

Records the exit code and stdout SHA-256 of every CLI op in both report
formats, the digest of each CLI input set, and the result digest of every
algebra the fleet generator can draw (all choices are tried, so any seed is
covered).  Before anything is written, the ideal and prime lists are
cross-checked against the independent oracles in tests/oracles.py, so the
record does not rest on the engine under test alone.
"""

from __future__ import annotations

import json
import sys

import inputs
import run
import worker

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

import oracles  # noqa: E402  (tests/oracles.py, read only)
from b1alg.cli import parse_algebra_text  # noqa: E402
from b1alg.ideals import enumerate_ideals, member_labels  # noqa: E402
from b1alg.spectrum import primes  # noqa: E402

# Ops that must fail on input errors; every other op must exit 0.
EXIT_2 = {"syntax-error.b1a", "example-6-2-mutated.b1a"}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"record: {what}")


def oracle_lists(text: str) -> tuple[set, set]:
    """Ideals and primes of the algebra, as label strings, from the oracles."""
    alg = parse_algebra_text(text)
    ideals = oracles.ideals_oracle(alg)
    check(set(enumerate_ideals(alg)) == ideals, "engine ideals differ from the oracle")
    oracle_primes = {m for m in ideals if oracles.prime_oracle(alg, m)}
    check(set(primes(alg)) == oracle_primes, "engine primes differ from the oracle")
    return tuple({",".join(member_labels(alg, m)) for m in family}
                 for family in (ideals, oracle_primes))


def record_cli(workload: str, expected: dict, env: dict) -> None:
    files = run.CLI_INPUTS[workload]()
    where = run.WORK / "inputs" / workload
    expected["inputs"][workload] = run.write_inputs(files, where)
    lists = {name: oracle_lists(text) for name, text in files.items() if name not in EXIT_2}
    for op in run.CLI_OPS[workload]:
        for fmt in run.FORMATS:
            argv = run.op_argv(op, fmt)
            _, code, out = run.run_cli(argv, where, env)
            check(code == (2 if op[1] in EXIT_2 else 0), f"{argv} exited {code}")
            if fmt == "json" and op[0] in ("ideals", "spectrum") and "--saturated" not in op:
                ideals, prime_set = lists[op[1]]
                result = json.loads(out)["result"]
                if op[0] == "ideals":
                    check(set(result["ideals"]) == ideals, f"{argv}: ideals differ from the oracle")
                else:
                    check(set(result["primes"]) == prime_set, f"{argv}: primes differ from the oracle")
            expected["cli"][run.op_key(argv)] = f"{code} {run.sha256(out)}"


def record_fleet(expected: dict) -> None:
    engine, _ = worker._import_engine(["cli", "ideals", "spectrum", "decompose"])
    base = [inputs.serialize(a) for a in inputs.named_base_fleet().values()]
    expected["inputs"]["fleet-lib-base"] = run.sha256("".join(base))
    for text in sorted(inputs.possible_fleet_texts()):
        oracle_lists(text)
        digest, passed = worker.analyse(engine, text)
        check(passed, f"audit fails on\n{text}")
        expected["fleet"][run.text_key(text)] = digest[:24]


def main() -> int:
    expected: dict = {"inputs": {}, "cli": {}, "fleet": {}}
    env = run.child_env()
    for workload in run.CLI_OPS:
        record_cli(workload, expected, env)
    record_fleet(expected)
    run.EXPECTED_PATH.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(expected['cli'])} CLI ops and {len(expected['fleet'])} fleet algebras")
    return 0


if __name__ == "__main__":
    sys.exit(main())
