"""Run one command and record its wall time and its own peak RSS.

    python3 perfbench/launch.py RESULT_JSON TIMEOUT_S COMMAND...

The command inherits stdin, stdout and stderr.  On exit this writes
{"exit": code or null on timeout, "wall_s": ..., "cpu_s": ..., "maxrss_kb": ...}
to RESULT_JSON.

A process's peak RSS on Linux starts from the RSS of the process that
spawned it (the high-water mark survives exec), so commands are spawned
from this small launcher rather than from run.py, which holds numpy and
the generated inputs.  The peak is read from os.wait4 for this one child,
not from RUSAGE_CHILDREN, which is a running maximum.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    result_path, timeout = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as fh:
        json.dump({"exit": None if wall >= timeout else proc.returncode,
                   "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
