"""Starts the benchmark's CLI processes from a process that imports almost
nothing. Run it as ``python3 -S spawner.py``.

Linux counts, in a process's peak RSS, the memory of the process it was
forked from up to its exec. The benchmark's own process is larger than a
bare CLI start, so it would set a floor under every CLI's peak; this one is
smaller. One JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "env": {...}, "stdout": path, "stderr": path,
     "kill_after_s": 30.0}

and one JSON answer per line on stdout:

    {"code": exit code or -1 when killed, "wall_s": spawn to exit,
     "peak_rss_kb": largest RSS of the process and the children it reaped}

The child leads its own session; when it is killed, its whole process
group goes with it.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    os.chdir(request["cwd"])
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o600),
    ]
    killed = []
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                         file_actions=actions, setsid=True)

    def kill(signum, frame) -> None:
        killed.append(True)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["kill_after_s"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    code = -1 if killed else os.waitstatus_to_exitcode(status)
    return {"code": code, "wall_s": wall, "peak_rss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
