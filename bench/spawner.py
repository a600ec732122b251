"""Run one command per request and report how it went.

Started as `python3 -S bench/spawner.py` so that it stays small: on Linux
a child's peak RSS (ru_maxrss from wait4) starts from the RSS of the
process that spawned it, and this process stays below any Python child.

Protocol: one JSON request per line on stdin, {"argv": [...],
"stderr": bool}; one JSON reply per line on stdout with the exit code,
sha256 and length of stdout, the first bytes of stdout, wall time from
spawn to exit in ms, peak RSS in KiB, and the time in ms of a host-speed
reference sample taken just before the spawn (hostspeed.py). stderr is returned when asked
for, or when the exit code is not 0. The child inherits this process's
environment and gets /dev/null as stdin. A child still running after
TIMEOUT_S seconds is killed (exit code -9).
"""

import hashlib
import json
import os
import select
import signal
import sys
import time

import hostspeed

HEAD_BYTES = 200
STDERR_CAP = 1 << 20
TIMEOUT_S = 120


def run(argv, want_stderr):
    reference_ms = hostspeed.sample_ms()
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    devnull = os.open(os.devnull, os.O_RDONLY)
    actions = [
        (os.POSIX_SPAWN_DUP2, devnull, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
        os.close(devnull)
    digest = hashlib.sha256()
    size = 0
    head = b""
    err = bytearray()
    open_fds = [out_r, err_r]
    deadline = start + TIMEOUT_S
    while open_fds:
        timeout = None if deadline is None else max(0.0, deadline - time.perf_counter())
        ready, _, _ = select.select(open_fds, [], [], timeout)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            deadline = None
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                os.close(fd)
                open_fds.remove(fd)
            elif fd == out_r:
                digest.update(chunk)
                if size < HEAD_BYTES:
                    head += chunk[: HEAD_BYTES - size]
                size += len(chunk)
            elif len(err) < STDERR_CAP:
                err += chunk
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    reply = {
        "rc": rc,
        "sha256": digest.hexdigest(),
        "bytes": size,
        "head": head.decode("utf-8", "replace"),
        "ms": elapsed * 1000.0,
        "rss_kb": usage.ru_maxrss,
        "ref_ms": reference_ms,
    }
    if want_stderr or rc != 0:
        reply["stderr"] = err.decode("utf-8", "replace")
    return reply


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request.get("stderr", False))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
