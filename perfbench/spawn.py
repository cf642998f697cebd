"""Run one command; print its wall time, exit code and peak memory.

    python3 perfbench/spawn.py LOG ARGV...

Prints one JSON object, {"seconds": s, "exit": code, "maxrss_kb": kb}.
The command's stderr is appended to LOG and its stdout is discarded.

On Linux a child's ru_maxrss also counts the resident memory of the
process that started it, which the kernel carries across exec. The
benchmark's own process holds numpy and the outputs it has checked, so it
starts each command through this small process, which imports nothing
more than the standard library needs.
"""

import json
import os
import subprocess
import sys
import time


def main(log: str, argv: list) -> int:
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds,
                      "exit": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
