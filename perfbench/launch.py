"""Runs one command and prints its wall time, CPU time and peak RSS as JSON.

Usage: python3 -S perfbench/launch.py STDOUT_FILE STDERR_FILE COMMAND...

A process's ru_maxrss starts from the high-water mark of the process that
started it (exec carries the old memory's peak over), so a command started
straight from the harness, which holds the reference's matrices, would
report the harness's memory. The harness starts every timed command through
this small process instead. Times come from ``wait4`` on the command, which
includes the children it reaped (the sweep's pool workers).
"""

import json
import os
import subprocess
import sys
import time


def main(argv):
    out_path, err_path, args = argv[0], argv[1], argv[2:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps(dict(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        returncode=proc.returncode,
    )))


if __name__ == "__main__":
    main(sys.argv[1:])
