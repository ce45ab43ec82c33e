"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Smoke: a small slice of each workload runs untraced and traced; every
metric BENCHMARK.json names must come back with its unit, and no op may
fail.  Gate: with one recorded digest corrupted, the op that meets it must
count as failed and the run as incorrect, which shows that a changed
report can never pass as a speed-up.
"""

from __future__ import annotations

import json
import sys

import run

SLICE = 4
SECONDS = 0.5


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def smoke() -> None:
    spec = run.load_spec()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _ = run.run(workload, 1, SECONDS, trace, limit=SLICE)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            what = f"{workload} trace={int(trace)}"
            check(units == spec[int(trace)], f"{what}: metrics or units differ from BENCHMARK.json")
            check(result["attempted"] >= 1, f"{what}: no op attempted")
            check(result["correct"] and result["failed"] == 0, f"{what}: {result['failed']} ops failed")
            print(f"ok smoke {what}: {result['attempted']} ops")


def gate() -> None:
    expected = json.loads(run.EXPECTED_PATH.read_text())
    first = run.CLI_OPS["cli-small"][0]
    for fmt in run.FORMATS:
        key = run.op_key(run.op_argv(first, fmt))
        code = expected["cli"][key].split()[0]
        expected["cli"][key] = f"{code} {'0' * 64}"
    base = run.inputs.fleet_inputs(1)[0]
    expected["fleet"][run.text_key(base)] = "0" * 24

    for workload in ("cli-small", "fleet-lib"):
        for trace in (False, True):
            result, _ = run.run(workload, 1, SECONDS, trace, expected=expected, limit=1)
            what = f"{workload} trace={int(trace)}"
            check(result["failed"] >= 1 and not result["correct"],
                  f"{what}: a corrupted digest went unnoticed")
            print(f"ok gate {what}: {result['failed']} of {result['attempted']} ops failed")


if __name__ == "__main__":
    smoke()
    gate()
    print("selftest passed")
    sys.exit(0)
