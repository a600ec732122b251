"""Record the expected CLI outputs the benchmark compares against.

Usage (from the repository root): python3 bench/record.py

Runs every point of every CLI band (workloads.cli_points) through the
CLI of this checkout and stores its exit code, stdout sha256 and stdout
length in bench/expected.json. Outputs with an independent oracle
(single coeff values, certify reports, tuple counts, brute power sums)
must match it before they are recorded; verify runs must pass. The over-limit probes
are recorded from the oracle alone, as exit 0 with the exact value.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import oracles
import run
import tracer
import workloads


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_stdout(point) -> str | None:
    """The exact stdout for points an oracle can produce, else None."""
    args = dict(zip(point[1::2], point[2::2]))
    if point[0] == "coeff" and "--format" not in args:
        return f"{oracles.coefficient(int(args['--p']), int(args['--ell']))}\n"
    if point[0] == "certify":
        p, ell = int(args["--p"]), int(args["--ell"])
        value = oracles.coefficient(p, ell)
        lines = [f"p={p} ell={ell}"] + [f"{r:<11} {value}" for r in tracer.ROUTES] + ["agree: yes"]
        return "\n".join(lines) + "\n"
    if point[0] == "tuples" and "--count-only" in point:
        p, ell = int(args["--p"]), int(args["--ell"])
        return f"{math.comb(p - 1, p - ell - 1)}\n"
    if point[0] == "powersum" and "--n" in args and args.get("--formula", "brute") == "brute":
        return f"{oracles.power_sum(int(args['--n']), int(args['--p']))}\n"
    return None


def main() -> int:
    sys.set_int_max_str_digits(0)
    run.compile_sources()
    outputs = {}
    problems = []
    spawner = run.Spawner()
    try:
        points = [p for w in workloads.CLI_WORKLOADS for p in workloads.cli_points(w)]
        for i, point in enumerate(points):
            reply = spawner.run(run.cli_argv(point))
            want = oracle_stdout(point)
            if want is not None and (reply["rc"], reply["sha256"]) != (0, _sha(want)):
                problems.append(f"{workloads.key(point)}: differs from the oracle")
            if point[0] == "verify" and reply["rc"] != 0:
                problems.append(f"{workloads.key(point)}: verify exited {reply['rc']}")
            outputs[workloads.key(point)] = [reply["rc"], reply["sha256"], reply["bytes"]]
            if i % 50 == 0:
                print(f"{i}/{len(points)} {workloads.key(point)}", file=sys.stderr)
    finally:
        spawner.close()
    for point in workloads.OVERLIMIT_PROBES:
        text = oracle_stdout(point)
        outputs[workloads.key(point)] = [0, _sha(text), len(text.encode())]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.EXPECTED, "w") as f:
        json.dump({"outputs": outputs}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(outputs)} outputs to {run.EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
