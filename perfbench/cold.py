"""Cold `bipush` command that reports its own peak resident set.

    python perfbench/cold.py HWM_FILE ARGS...

Runs `bipush.cli` as `python -m bipush.cli ARGS...` would and, at exit,
writes the process's peak resident bytes (VmHWM) to HWM_FILE. A parent's
rusage cannot give this number: Linux carries the parent's resident set at
fork into the child's ru_maxrss.
"""

import atexit
import runpy
import sys


def peak_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM not in /proc/self/status")


def main():
    out = sys.argv[1]
    atexit.register(lambda: open(out, "w").write(str(peak_bytes())))
    sys.argv = ["bipush", *sys.argv[2:]]
    runpy.run_module("bipush.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
