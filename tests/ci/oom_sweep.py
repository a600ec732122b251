"""Out-of-memory sweep: the CLI exits 3 with exactly one stderr line.

Runs each of ARGVS in a fresh `python -m figurate.cli` under every
RLIMIT_AS limit of LIMITS_MB, the limit set in the child only, and fails
unless every run exits 3 with stderr exactly `internal error: out of
memory`. Each run prints one line: its limit, exit code, stderr line
count and argv. Standard library only; RLIMIT_AS is Linux's:

    PYTHONPATH=src python tests/ci/oom_sweep.py
"""

import resource
import subprocess
import sys

ARGVS = (
    "triangle --family stirling2 --pmax 3000 --format csv",
    "fermat --p 1500 --format csv",
)
LIMITS_MB = range(250, 327, 4)
EXPECTED = b"internal error: out of memory\n"


def run(argv: str, limit_mb: int) -> tuple[int, bytes]:
    """Exit code and stderr of argv under a limit_mb MB address space."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    done = subprocess.run(
        [sys.executable, "-m", "figurate.cli", *argv.split()],
        capture_output=True,
        timeout=60,
        preexec_fn=limit,
    )
    return done.returncode, done.stderr


def main() -> int:
    runs = bad = 0
    for argv in ARGVS:
        for limit_mb in LIMITS_MB:
            code, err = run(argv, limit_mb)
            ok = code == 3 and err == EXPECTED
            runs += 1
            bad += not ok
            print(
                f"{'ok' if ok else 'FAIL':<4} {limit_mb} MB  exit {code}  "
                f"{len(err.splitlines())} stderr lines  {argv}",
                flush=True,
            )
    print(f"{runs - bad}/{runs} runs exited 3 with one stderr line")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
