"""Traced stand-in for `python3 -m figurate.cli`.

Usage: python3 bench/trace_cli.py <figurate arguments>

Installs the tracer, runs figurate.cli.main on the arguments and exits
with its code, so stdout and the exit code are those of the plain CLI.
The span summary goes to stderr as the last line, after tracer.MARKER.
"""

import json
import sys

import tracer


def main() -> int:
    t = tracer.Tracer()
    t.install()
    rows_before = t.rows()
    cli = t.modules["cli"]
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    summary = t.summary()
    summary["grew"] = t.rows() != rows_before
    sys.stderr.write("\n" + tracer.MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
