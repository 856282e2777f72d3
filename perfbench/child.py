"""Runs ``python -m softvote.cli`` and records the process's own peak RSS.

    python perfbench/child.py <peak file> <softvote arguments...>

The peak RSS that wait4 reports for a child is of no use here: Linux
carries the resident high-water mark of the image that exec replaces into
the new one, so every child the benchmark starts would report at least the
benchmark's own size. ``VmHWM`` in /proc/self/status covers the image after
exec alone. It is written, in kB, when the interpreter exits.
"""

import atexit
import os
import runpy
import sys


def record_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(peak + "\n")


if __name__ == "__main__":
    atexit.register(record_peak, sys.argv[1])
    # Match `python -m`: the working directory leads the import path, and
    # runpy sets argv[0] to the module's file.
    sys.path[0] = os.getcwd()
    sys.argv = sys.argv[1:]
    runpy.run_module("softvote.cli", run_name="__main__", alter_sys=True)
