"""Machine speed probe shared by the benchmark and the processes it starts.

The build box's vCPUs swing between speed states about 30% apart every few
seconds (README.md, "Noise").  ``slowdown`` times a fixed kernel close to
the package's own instruction mix; dividing a wall time by the slowdown read
just before and just after it gives reference seconds, in which those swings
largely cancel.
"""
from __future__ import annotations

import statistics
import time

REPS = 3
# Kernel time that defines one reference second.
REF_S = 0.005
# Last stderr line of a probed child: tag, probe seconds, slowdown before
# and after its work.
TAG = "perfbench-speed"


def _kernel() -> int:
    acc: dict = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 3
    return len(acc)


def slowdown() -> float:
    """Median of REPS kernel times over REF_S: above 1 when this CPU runs
    slower than the reference right now."""
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / REF_S


def probed(tail: str) -> str:
    """Python source that reads the slowdown, runs ``tail`` (which must set
    ``code``), reads it again, and reports on stderr before exiting."""
    return ("import sys, time, speed\n"
            "t0 = time.perf_counter(); before = speed.slowdown()\n"
            "probe = time.perf_counter() - t0\n"
            f"{tail}\n"
            "t0 = time.perf_counter(); after = speed.slowdown()\n"
            "probe += time.perf_counter() - t0\n"
            f"print({TAG!r}, probe, before, after, file=sys.stderr)\n"
            "sys.exit(code)\n")


def split_report(stderr: bytes) -> tuple[bytes, float, float | None]:
    """(the child's own stderr, seconds it spent probing, its mean slowdown);
    the slowdown is None when the child ended before reporting."""
    head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
    fields = last.split()
    if len(fields) != 4 or fields[0] != TAG.encode():
        return stderr, 0.0, None
    return head + b"\n" if head else b"", float(fields[1]), \
        (float(fields[2]) + float(fields[3])) / 2
