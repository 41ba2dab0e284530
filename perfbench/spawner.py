"""Start the CLI requests of the ``cli`` workload and report their usage.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin, ``{"cmd", "stdout", "stderr"}``,
runs the command with stdout and stderr sent to those files, and answers
one JSON line ``{"exit", "wall", "cpu", "rss_kb"}``.  It exists so that
the children are started from a small process: Linux carries the memory
high-water mark of the process that forks into the child's
``ru_maxrss``, so children started by the harness itself would report the
harness's peak memory instead of their own.  Stops at end of input.
"""

import json
import os
import signal
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 150


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run(cmd, stdout, stderr):
    with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe)
        signal.alarm(TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss}


def main():
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["cmd"], request["stdout"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
