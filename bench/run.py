"""figurate benchmark: one closed-loop client per workload, outputs checked.

Usage (from the repository root):
  python3 bench/run.py --workload cli-selfcheck --seed 1 --seconds 30 --trace 0

Workloads (bench/workloads.py): cli-selfcheck and cli-bigexact run a
fresh `python3 -m figurate.cli` process per operation; lib-warm runs one
long-lived process that calls the library directly. Everything runs
against this checkout's src/, which must exist.

--trace 0 measures the end-to-end metrics over as many whole rounds as
take about --seconds here (NOMINAL_ROUND_S). Its times are scaled to the
host speed at which the reference loop of hostspeed.py takes
REFERENCE_MS; the unscaled figures are printed too. --trace 1 runs a fixed
number of rounds once untraced and twice traced and reports the
per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object with correct, attempted, failed and metrics.
The exit code is 0 when the benchmark ran, whatever the checks found,
and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
PY = sys.executable

sys.path.insert(0, str(BENCH))
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: A timed run runs its whole operation sequence TRIALS times, one pass
#: after another (for lib-warm each in a fresh client process), and an
#: operation's latency is its fastest trial: the trials are a pass apart,
#: so a host slowdown of a few seconds rarely hits all of them. lib-warm's
#: tail sample is its slowest operation's typical run, so it gets a third.
TRIALS = {"cli-selfcheck": 2, "cli-bigexact": 2, "lib-warm": 3}
#: Seconds one round of each workload takes, all trials included, on the
#: 2-core machine the benchmark was sized on. A run does round(seconds /
#: NOMINAL_ROUND_S) rounds, so its operations (and their count) depend on
#: --seed and --seconds only, never on how fast the host happens to be.
NOMINAL_ROUND_S = {"cli-selfcheck": 10.0, "cli-bigexact": 10.0, "lib-warm": 0.18}
#: latency_tail_ms is the sample with this many samples beyond it.
TAIL_BEYOND = 10
#: Rounds in each pass of a traced run.
TRACE_ROUNDS = {"cli-selfcheck": 3, "cli-bigexact": 3, "lib-warm": 50}
SETUP_REPEATS = 9
FLOOR_REPEATS = 11
#: A lib-warm client still running after this many seconds is killed.
CLIENT_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed operation)."""


def child_env() -> dict[str, str]:
    """Environment for every child: this checkout's src/ first on the
    path, and no FIGURATE_* settings (FIGURATE_SIZE_GUARD among them)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FIGURATE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


class Spawner:
    """A small `python3 -S` helper that runs each command and reports its
    exit code, stdout digest, wall time and peak RSS (see spawner.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [PY, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], stderr: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": stderr}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_argv(point) -> list[str]:
    return [PY, "-m", "figurate.cli", *point]


def traced_argv(point) -> list[str]:
    return [PY, str(BENCH / "trace_cli.py"), *point]


def compile_sources() -> None:
    """Bytecode for the package and the benchmark, so no timed import
    compiles."""
    for directory in (SRC, BENCH):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise BenchError(f"compiling {directory} failed")


def load_expected() -> dict:
    with open(EXPECTED) as f:
        return json.load(f)["outputs"]


def check_reply(expected: dict, point, reply: dict) -> str | None:
    """None when the reply matches the recorded exit code and stdout."""
    want = expected.get(workloads.key(point))
    if want is None:
        raise BenchError(f"no expected output recorded for {workloads.key(point)!r}")
    rc, digest, size = want
    if (reply["rc"], reply["sha256"], reply["bytes"]) == (rc, digest, size):
        return None
    detail = reply.get("stderr", "").strip().splitlines()[-1:] or [reply["head"][:80]]
    return (
        f"{workloads.key(point)}: exit {reply['rc']} (want {rc}), "
        f"{reply['bytes']} bytes (want {size}): {detail[0]}"
    )


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of ROOT/.git read from its files, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def time_ms(spawner: Spawner, argv: list[str]) -> float:
    reply = spawner.run(argv)
    if reply["rc"] != 0:
        raise BenchError(f"{argv} exited {reply['rc']}: {reply.get('stderr', '')}")
    return reply["ms"]


def median_ms(spawner: Spawner, argv: list[str]) -> float:
    return statistics.median(time_ms(spawner, argv) for _ in range(FLOOR_REPEATS))


def environment(spawner: Spawner) -> dict:
    reply = spawner.run([PY, "-c", "import figurate; print(figurate.__file__)"])
    figurate_file = reply["head"].strip()
    if reply["rc"] != 0 or not Path(figurate_file).is_relative_to(SRC):
        raise BenchError(f"figurate resolves to {figurate_file!r}, not under {SRC}")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "figurate_file": str(Path(figurate_file).relative_to(ROOT)),
        "python_c_pass_ms": median_ms(spawner, [PY, "-c", "pass"]),
        "python_S_c_pass_ms": median_ms(spawner, [PY, "-S", "-c", "pass"]),
    }


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def setup_cli(workload: str, seed: int, spawner: Spawner):
    start = time.perf_counter()
    compile_sources()
    expected = load_expected()
    rounds = workloads.rounds(workload, seed)
    reply = spawner.run(cli_argv(["--version"]))
    if reply["rc"] != 0:
        raise BenchError(f"figurate --version exited {reply['rc']}: {reply.get('stderr')}")
    return time.perf_counter() - start, expected, rounds


def run_cli(ops, expected, spawner: Spawner, traced: bool = False):
    """Run each operation; returns the spawner replies and the failures."""
    replies, failures = [], []
    for point in ops:
        reply = spawner.run(traced_argv(point) if traced else cli_argv(point), stderr=traced)
        replies.append(reply)
        problem = check_reply(expected, point, reply)
        if problem:
            failures.append(problem)
    return replies, failures


def overlimit_probes(expected, spawner: Spawner) -> list[str]:
    """Run the over-limit probes; return the ones that failed."""
    return run_cli(workloads.OVERLIMIT_PROBES, expected, spawner)[1]


def parse_trace(reply: dict) -> dict:
    lines = reply.get("stderr", "").splitlines()
    for line in reversed(lines):
        if line.startswith(tracer.MARKER):
            return json.loads(line[len(tracer.MARKER):])
    raise BenchError(f"no trace summary from a traced run: {lines[-3:]}")


# ---------------------------------------------------------------------------
# lib-warm
# ---------------------------------------------------------------------------

def run_libwarm(seed: int, *extra: str) -> dict:
    """Run the lib-warm client; returns its JSON result plus its peak RSS.
    Set-up time is bytecode compilation plus the client's own import
    and warm-up."""
    start = time.perf_counter()
    compile_sources()
    compiled = time.perf_counter() - start
    proc = subprocess.Popen(
        [PY, str(BENCH / "libwarm.py"), "--seed", str(seed), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=child_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(CLIENT_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"lib-warm client exited {proc.returncode}: {out[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["rss_kb"] = usage.ru_maxrss
    result["setup_s"] += compiled
    figurate_file = Path(result["figurate_file"])
    if not figurate_file.is_relative_to(SRC):
        raise BenchError(f"figurate resolves to {figurate_file}, not under {SRC}")
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_metrics(values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
    )


def report_failures(failures: list[str]) -> None:
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if len(failures) > 10:
        print(f"  ... and {len(failures) - 10} more")


def report_probes(probe_failures: list[str]) -> None:
    print(
        f"  over-limit probe: {len(probe_failures)}/{len(workloads.OVERLIMIT_PROBES)} "
        f"requests not answered exactly (not counted in failed)"
    )
    report_failures(probe_failures)


def cli_import_ms(spawner: Spawner) -> float:
    """Median fresh-interpreter `import figurate.cli` minus the median
    bare start, sampled alternately so drift hits both alike."""
    imports, bare = [], []
    for _ in range(FLOOR_REPEATS):
        imports.append(time_ms(spawner, [PY, "-c", "import figurate.cli"]))
        bare.append(time_ms(spawner, [PY, "-c", "pass"]))
    return statistics.median(imports) - statistics.median(bare)


def count_mismatches(first: dict, second: dict) -> list[str]:
    """Count metrics that differ between the two traced passes."""
    return [
        f"count {name} differs between traced passes: {first[name]} vs {second[name]}"
        for name in tracer.COUNT_METRICS
        if name in first and first[name] != second[name]
    ]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def scaled(latencies: list[float], references: list[float]) -> list[float]:
    """Latencies at the reference host speed. references[i] was taken
    before the i-th of len(references) equal slices of latencies."""
    per = len(latencies) // len(references)
    factors = hostspeed.scales(references)
    return [ms * factors[i // per] for i, ms in enumerate(latencies)]


def run_timed(workload: str, seed: int, seconds: float, spawner: Spawner) -> None:
    n_rounds = round_count(workload, seconds)
    if workload in workloads.CLI_WORKLOADS:
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            scale = hostspeed.setup_scale()
            elapsed, expected, rounds = setup_cli(workload, seed, spawner)
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * scale)
        ops = [point for _ in range(n_rounds) for _, point in next(rounds)]
        trials = [run_cli(ops, expected, spawner) for _ in range(TRIALS[workload])]
        raw = [[r["ms"] for r in replies] for replies, _ in trials]
        references = [[r["ref_ms"] for r in replies] for replies, _ in trials]
        peak_kb = max(r["rss_kb"] for replies, _ in trials for r in replies)
        failures = [f for _, trial_failures in trials for f in trial_failures]
        failed = len(failures)
    else:
        trials = [run_libwarm(seed, "--rounds", str(n_rounds)) for _ in range(TRIALS[workload])]
        raw = [t["latencies_ms"] for t in trials]
        references = [t["reference_ms"] for t in trials]
        setup_times = [t["setup_s"] for t in trials]
        setup_scaled = [t["setup_s"] * t["setup_scale"] for t in trials]
        peak_kb = max(t["rss_kb"] for t in trials)
        failures = [f for t in trials for f in t["failures"]]
        failed = sum(t["failed"] for t in trials)

    operations = len(raw[0])
    attempted = TRIALS[workload] * operations
    tail_index = max(0, operations - 1 - TAIL_BEYOND)

    def end_to_end(trial_latencies: list[list[float]], setups: list[float]) -> dict:
        latencies = [min(times) for times in zip(*trial_latencies)]
        return {
            "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": sorted(latencies)[tail_index],
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setups),
        }

    values = end_to_end([scaled(t, r) for t, r in zip(raw, references)], setup_scaled)
    unscaled = end_to_end(raw, setup_times)
    all_references = sum(references, [])
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  rounds {n_rounds}")
    print(
        f"  {operations} operations, each run {TRIALS[workload]} times; "
        f"{failed} of {attempted} runs failed"
    )
    print_metrics(values, END_TO_END_UNITS)
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(
        f"  latency_tail_ms is sample {tail_index + 1} of {operations} "
        f"(p{100.0 * (tail_index + 1) / operations:.4g}, {operations - tail_index - 1} beyond)"
    )
    print(
        f"  times above are at the reference host speed: hostspeed reference "
        f"median {statistics.median(all_references):.4g} ms over {len(all_references)} samples "
        f"(range {min(all_references):.4g}-{max(all_references):.4g}), "
        f"scaled to {hostspeed.REFERENCE_MS:g} ms"
    )
    print("  unscaled: " + ", ".join(
        f"{name}={value:.6g}" for name, value in unscaled.items() if name != "peak_rss_mb"
    ))
    if workload == "cli-bigexact":
        report_probes(overlimit_probes(expected, spawner))
    report_failures(failures)
    print("env " + json.dumps(environment(spawner), sort_keys=True))
    print(result_line(failed == 0, attempted, failed, values, END_TO_END_UNITS))


def run_traced(workload: str, seed: int, spawner: Spawner) -> None:
    n_rounds = TRACE_ROUNDS[workload]
    if workload in workloads.CLI_WORKLOADS:
        _, expected, rounds = setup_cli(workload, seed, spawner)
        ops = [point for _ in range(n_rounds) for _, point in next(rounds)]
        n_ops = len(ops)
        untraced, failures = run_cli(ops, expected, spawner)
        passes = [run_cli(ops, expected, spawner, traced=True) for _ in range(2)]
        for replies, pass_failures in passes:
            failures += pass_failures
            for point, reply, plain in zip(ops, replies, untraced):
                if (reply["rc"], reply["sha256"]) != (plain["rc"], plain["sha256"]):
                    failures.append(f"{workloads.key(point)}: traced stdout differs")
        summaries = [[parse_trace(r) for r in replies] for replies, _ in passes]
        totals = [tracer.combine(s) for s in summaries]
        grew = [sum(1 for x in s if x["grew"]) for s in summaries]
        untraced_ms = sum(r["ms"] for r in untraced)
        traced_ms = [sum(r["ms"] for r in replies) for replies, _ in passes]
        stdout_bytes = sum(r["bytes"] for r in untraced)
        failed = len(failures)
        probe_failures = overlimit_probes(expected, spawner) if workload == "cli-bigexact" else []
    else:
        rounds_arg = ("--rounds", str(n_rounds))
        plain = run_libwarm(seed, *rounds_arg)
        traced = [run_libwarm(seed, *rounds_arg, "--trace") for _ in range(2)]
        failures = plain["failures"] + [f for t in traced for f in t["failures"]]
        failed = plain["failed"] + sum(t["failed"] for t in traced)
        totals = [tracer.combine([t["trace"]]) for t in traced]
        grew = [t["trace"]["grew_ops"] for t in traced]
        n_ops = len(plain["latencies_ms"])
        untraced_ms = sum(plain["latencies_ms"])
        traced_ms = [sum(t["latencies_ms"]) for t in traced]
        stdout_bytes = 0
        probe_failures = []

    first, second = (tracer.layer_values(total, n_ops, g) for total, g in zip(totals, grew))
    mismatches = count_mismatches(first, second)
    values = {
        name: first[name] if name in tracer.COUNT_METRICS else (first[name] + second[name]) / 2
        for name in first
    }
    values["cli.import_ms"] = cli_import_ms(spawner)
    values["cli.stdout_bytes"] = stdout_bytes
    values["cli.overlimit_failed"] = len(probe_failures)
    values["trace.overhead"] = 2 * untraced_ms / sum(traced_ms)
    values = {name: values[name] for name in tracer.PER_LAYER}
    units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}

    print(f"workload {workload}  seed {seed}  traced, {n_rounds} rounds per pass")
    print(f"  {n_ops} operations per pass, 1 untraced and 2 traced passes, {failed} failed")
    print_metrics(values, units)
    if workload == "cli-bigexact":
        report_probes(probe_failures)
    report_failures(failures + mismatches)
    print(result_line(failed == 0 and not mismatches, 3 * n_ops, failed, values, units))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "figurate" / "__init__.py").is_file():
        print(f"error: no figurate sources under {SRC}", file=sys.stderr)
        return 2
    if not EXPECTED.is_file():
        print(f"error: missing {EXPECTED}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)

    spawner = Spawner()
    try:
        if args.trace:
            run_traced(args.workload, args.seed, spawner)
        else:
            run_timed(args.workload, args.seed, args.seconds, spawner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
