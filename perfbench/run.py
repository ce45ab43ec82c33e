"""b1alg benchmark: CLI latency on small and large algebras, fleet throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the engine is loaded from its src/.
Workloads (see README.md for why each exists):

    cli-small   CLI commands on algebras of order <= 8, including two
                inputs that must fail with exit 2.
    enum-large  CLI commands on algebras of order 16-20, where the ideal
                subset scan dominates.
    fleet-lib   The library in process: full analysis of ~220 small
                algebras per pass, each pass in a fresh worker process.

One client, closed loop, one op at a time.  Every op's output is checked
against digests recorded at the baseline commit (expected.json); a changed
report counts as a failed op, never as a speed-up.  With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 one pass
runs each op untraced and traced, checks the two agree byte for byte, and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench-out"
WORKER = BENCH / "worker.py"
EXPECTED_PATH = BENCH / "expected.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
# Seconds one pass took at the baseline (Python 3.11, 2 cores): sets how
# many passes a run of --seconds makes.
PASS_SECONDS = {"cli-small": 6.0, "enum-large": 11.0, "fleet-lib": 0.9}
MAX_SLOWDOWN = 2.5
OP_TIMEOUT_S = 120
FORMATS = ("text", "json")

SMALL_ALGEBRAS = ("b1.b1a", "chain-4.b1a", "example-6-2.b1a", "bool-3.b1a")
SMALL_COMMANDS = (
    ("validate",), ("ideals",), ("ideals", "--saturated"), ("spectrum",),
    ("nil",), ("assoc",), ("decompose", "--ideal", "{zero}"), ("laskerian",),
    ("evans",), ("audit",),
)
LARGE_ALGEBRAS = (
    "chain-18.b1a", "bool-4.b1a", "example-6-2xchain-3.b1a", "chain-3xchain-6.b1a",
)
LARGE_COMMANDS = ("validate", "nil", "ideals", "spectrum", "laskerian", "evans", "audit")


CLI_INPUTS = {"cli-small": inputs.cli_small_inputs, "enum-large": inputs.enum_large_inputs}


def _small_ops() -> list[tuple]:
    files = inputs.cli_small_inputs()
    ops = []
    for f in SMALL_ALGEBRAS:
        zero = files[f].split()[1]  # the first label after 'elements'
        ops += [(c[0], f, *(a.format(zero=zero) for a in c[1:])) for c in SMALL_COMMANDS]
    return ops + [("validate", "syntax-error.b1a"), ("validate", "example-6-2-mutated.b1a"),
                  ("builtin", "bool-3")]


# Base op lists; each pass shuffles them and alternates the report format.
CLI_OPS = {
    "cli-small": _small_ops(),
    "enum-large": (
        [(c, f) for f in LARGE_ALGEBRAS for c in LARGE_COMMANDS]
        + [(c, "chain-20.b1a") for c in ("validate", "nil", "ideals")]
    ),
}
WORKLOADS = ("cli-small", "enum-large", "fleet-lib")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def text_key(text: str) -> str:
    return sha256(text)[:24]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("B1ALG_ENUM_BOUND", None)
    return env


def op_argv(op: tuple, fmt: str) -> list[str]:
    return list(op) if op[0] == "builtin" else [*op, "--format", fmt]


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_pass(workload: str, rng: random.Random, pass_index: int, limit: int | None):
    base = CLI_OPS[workload][:limit]
    ops = [op_argv(op, FORMATS[(i + pass_index) % 2]) for i, op in enumerate(base)]
    rng.shuffle(ops)
    return ops


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# Child processes


def run_cli(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "b1alg.cli", *argv], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def run_cli_traced(argv, cwd, env, op_id: int, out: Path):
    stats, spans = out / f"op-{op_id}.json", out / f"op-{op_id}.spans"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "cli", str(time.time_ns()), str(op_id),
         str(stats), str(spans), "--", *argv],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=OP_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    data = json.loads(stats.read_text()) if stats.exists() else None
    return wall, proc.returncode, proc.stdout, data


def run_fleet(texts: list[str], env: dict, trace: bool, out: Path, tag: str) -> dict:
    stats, spans = out / f"fleet-{tag}.json", out / f"fleet-{tag}.spans"
    proc = subprocess.run(
        [sys.executable, str(WORKER), "fleet", str(time.time_ns()),
         "1" if trace else "0", str(stats), str(spans)],
        input=json.dumps(texts).encode(), env=env, cwd=out,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fleet worker failed: {proc.stderr.decode()[-2000:]}")
    return json.loads(stats.read_text())


def bare_interpreter_ms(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# Set-up: write inputs, verify their digests, warm up


class InputError(RuntimeError):
    """The generated inputs differ from the recorded ones: a bench defect."""


def write_inputs(files: dict[str, str], where: Path) -> str:
    """Write files afresh, read them back, return the digest of the set."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")
    listing = "".join(
        f"{name} {sha256((where / name).read_bytes())}\n" for name in sorted(files)
    )
    return sha256(listing)


def setup_cli(workload: str, expected: dict, env: dict) -> tuple[Path, float]:
    where = WORK / "inputs" / workload
    digest = write_inputs(CLI_INPUTS[workload](), where)
    if digest != expected["inputs"][workload]:
        raise InputError(f"{workload}: input set digest {digest} is not the recorded one")
    interp = bare_interpreter_ms(env)
    run_cli(op_argv(CLI_OPS[workload][0], "text"), where, env)
    return where, interp


def setup_fleet(seed: int, expected: dict, env: dict) -> tuple[list[str], float]:
    texts = inputs.fleet_inputs(seed)
    where = WORK / "inputs" / "fleet-lib"
    write_inputs({f"{i:03d}.b1a": t for i, t in enumerate(texts)}, where)
    texts = [(where / f"{i:03d}.b1a").read_text(encoding="utf-8") for i in range(len(texts))]
    base = texts[: len(inputs.named_base_fleet())]
    if sha256("".join(base)) != expected["inputs"]["fleet-lib-base"]:
        raise InputError("fleet-lib: base fleet differs from the recorded one")
    missing = [i for i, t in enumerate(texts) if text_key(t) not in expected["fleet"]]
    if missing:
        raise InputError(f"fleet-lib: inputs {missing[:5]} are not in the record")
    interp = bare_interpreter_ms(env)
    run_fleet(texts[:3], env, False, WORK, "warmup")
    return texts, interp


def setup(workload: str, seed: int, expected: dict, env: dict):
    """Set up SETUP_REPEATS times; return the last state and the timings."""
    times, interps = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload == "fleet-lib":
            state, interp = setup_fleet(seed, expected, env)
        else:
            state, interp = setup_cli(workload, expected, env)
        times.append(time.perf_counter() - t0)
        interps.append(interp)
    return state, statistics.median(times), statistics.median(interps)


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics


def whole_passes(workload: str, seconds: float, one_pass) -> float:
    """Call one_pass(i) for a fixed number of whole passes; return the time.

    The count comes from ``seconds`` and the workload's pass time at the
    baseline, never from the current run's speed, so every run measures
    the same mix of ops and the percentiles do not depend on where a time
    limit cut a pass.  A run that is far slower than the baseline stops
    starting passes after MAX_SLOWDOWN * seconds, to end in bounded time.
    """
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    t_start = time.perf_counter()
    for index in range(passes):
        one_pass(index)
        if time.perf_counter() - t_start > MAX_SLOWDOWN * seconds:
            break
    return time.perf_counter() - t_start


def measure_cli(workload, seed, seconds, where, expected, env, limit):
    rng = random.Random(seed)
    latencies, failed = [], 0

    def one_pass(index):
        nonlocal failed
        for argv in cli_pass(workload, rng, index, limit):
            wall, code, out = run_cli(argv, where, env)
            latencies.append(wall * 1e3)
            failed += f"{code} {sha256(out)}" != expected["cli"][op_key(argv)]

    window = whole_passes(workload, seconds, one_pass)
    return latencies, failed, window


def measure_fleet(seed, seconds, texts, expected, env, limit):
    """Fleet passes; the window is the sum of the workers' analysis loops,
    so the fresh process each pass needs (to empty the engine's cache) is
    not counted as op time."""
    rng = random.Random(seed)
    texts = texts[:limit]
    latencies, failed, window = [], 0, 0.0

    def one_pass(index):
        nonlocal failed, window
        order = list(texts)
        rng.shuffle(order)
        stats = run_fleet(order, env, False, WORK, "pass")
        window += stats["window_ns"] / 1e9
        latencies.extend(ns / 1e6 for ns in stats["latency_ns"])
        for text, digest, ok in zip(order, stats["digests"], stats["audit_passed"]):
            failed += (not ok) or digest[:24] != expected["fleet"][text_key(text)]

    whole_passes("fleet-lib", seconds, one_pass)
    return latencies, failed, window


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics


def measure_traced(workload, seed, state, expected, env, limit):
    """One pass, each op untraced then traced (order alternating per op).

    Returns per-process samples, summed trace stats, the two walls and the
    number of ops whose outputs disagree with each other or the record.
    """
    out = WORK / "trace" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rng = random.Random(seed)
    procs, traces, failed, attempted = [], [], 0, 0
    wall_plain = wall_traced = 0.0
    if workload == "fleet-lib":
        order = list(state[:limit])
        rng.shuffle(order)
        plain = run_fleet(order, env, False, out, "plain")
        traced = run_fleet(order, env, True, out, "traced")
        wall_plain, wall_traced = plain["window_ns"] / 1e9, traced["window_ns"] / 1e9
        procs, traces = [plain, traced], [traced["trace"]]
        attempted = len(order)
        for text, d0, d1, ok0, ok1 in zip(order, plain["digests"], traced["digests"],
                                          plain["audit_passed"], traced["audit_passed"]):
            failed += (d0 != d1 or not (ok0 and ok1)
                       or d0[:24] != expected["fleet"][text_key(text)])
        plain_latency = [ns / 1e6 for ns in plain["latency_ns"]]
    else:
        plain_latency = []
        for i, argv in enumerate(cli_pass(workload, rng, 0, limit)):
            if i % 2 == 0:
                w0, c0, o0 = run_cli(argv, state, env)
                w1, c1, o1, data = run_cli_traced(argv, state, env, i, out)
            else:
                w1, c1, o1, data = run_cli_traced(argv, state, env, i, out)
                w0, c0, o0 = run_cli(argv, state, env)
            wall_plain += w0
            wall_traced += w1
            plain_latency.append(w0 * 1e3)
            attempted += 1
            bad = (c0, o0) != (c1, o1) or f"{c0} {sha256(o0)}" != expected["cli"][op_key(argv)]
            failed += bad or data is None
            if data is not None:
                procs.append(data)
                traces.append(data["trace"])
    return {
        "procs": procs, "traces": traces, "failed": failed, "attempted": attempted,
        "wall_plain": wall_plain, "wall_traced": wall_traced,
        "plain_p50_ms": statistics.median(plain_latency),
    }


def layer_metrics(traced: dict) -> dict[str, float]:
    """Fold the traced pass into the per-layer metric values."""
    funcs: dict[str, dict] = {}
    returned = distinct = 0
    for tr in traced["traces"]:
        returned += tr["ideals_returned"]
        distinct += tr["distinct_enumerated"]
        for name, s in tr["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_ns": 0})
            acc["calls"] += s["calls"]
            acc["self_ns"] += s["self_ns"]
    values: dict[str, float] = {
        "startup.interpreter_ms": statistics.median(p["interpreter_ns"] for p in traced["procs"]) / 1e6,
        "startup.import_ms": statistics.median(p["import_ns"] for p in traced["procs"]) / 1e6,
    }
    for name, s in funcs.items():
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.self_ms"] = s["self_ns"] / 1e6
    enum_calls = funcs["ideals.enumerate_ideals"]["calls"]
    values["ideals.enumerate_ideals.ideals_returned"] = returned
    values["ideals.enumerate_ideals.hit_ratio"] = 1 - distinct / enum_calls if enum_calls else 0.0
    for layer in ("cli", "algebra", "ideals", "spectrum", "decompose"):
        values[f"layer.{layer}.self_ms"] = sum(
            s["self_ns"] for n, s in funcs.items() if n.startswith(layer + ".")) / 1e6
    values["bench.traced_wall_ms"] = traced["wall_traced"] * 1e3
    values["bench.trace_overhead_ratio"] = traced["wall_traced"] / traced["wall_plain"]
    return values


def design_check(workload: str, values: dict, traced: dict) -> str:
    """Plain-text confirmation of why the workload exists (not a gate)."""
    if workload == "cli-small":
        startup = values["startup.interpreter_ms"] + values["startup.import_ms"]
        return (f"start-up share of the untraced p50 op: {startup:.1f} / "
                f"{traced['plain_p50_ms']:.1f} ms = {startup / traced['plain_p50_ms']:.2f}")
    if workload == "enum-large":
        self_times = {k: v for k, v in values.items()
                      if k.endswith(".self_ms") and not k.startswith("layer.")}
        top = max(self_times, key=self_times.get)
        return f"largest self time: {top} = {self_times[top]:.1f} ms"
    share = values["ideals.enumerate_ideals.self_ms"] / values["bench.traced_wall_ms"]
    return f"enumerate_ideals share of the traced wall: {share:.3f}"


# ---------------------------------------------------------------------------


def environment_info(interp_ms: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted((ROOT / "src" / "b1alg").glob("*.py"))
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": sha256("".join(sha256(p.read_bytes()) for p in sources)),
        "startup.interpreter_ms": interp_ms,
    }


def load_spec() -> dict:
    spec = json.loads(SPEC_PATH.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: dict | None = None, limit: int | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines.

    ``expected`` replaces the recorded digests and ``limit`` keeps only the
    first ops (or algebras) of each pass; both serve the self-test.
    """
    if not (ROOT / "src" / "b1alg" / "cli.py").is_file():
        raise SystemExit(f"error: no engine sources under {ROOT / 'src'}")
    if workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}")
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    units = load_spec()[int(trace)]
    env = child_env()
    WORK.mkdir(exist_ok=True)
    state, setup_s, interp_ms = setup(workload, seed, expected, env)
    info = environment_info(interp_ms)
    info.update(workload=workload, seed=seed, trace=int(trace))
    lines: list[str] = []

    if trace:
        traced = measure_traced(workload, seed, state, expected, env, limit)
        values = layer_metrics(traced)
        attempted, failed = traced["attempted"], traced["failed"]
        lines.append("design: " + design_check(workload, values, traced))
    else:
        if workload == "fleet-lib":
            latencies, failed, window = measure_fleet(seed, seconds, state, expected, env, limit)
        else:
            latencies, failed, window = measure_cli(
                workload, seed, seconds, state, expected, env, limit)
        attempted = len(latencies)
        # Largest resident set of any child waited for so far: every CLI
        # process or fleet worker, set-up's warm-up ones included.
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": setup_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 90),
            "ops_per_s": attempted / window,
            "peak_rss_mb": peak_kb / 1024,
        }
        info.update(samples=attempted, failed_ratio=failed / attempted, window_s=window)
        lines.append(f"failed_ratio {failed / attempted:.6f} ratio "
                     f"({failed} of {attempted} ops)")
        lines.append(f"latency_p90_ms over {attempted} samples")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()] + lines
    lines.append(json.dumps({"info": info}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
