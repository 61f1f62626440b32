"""Sample the speed of the CPU that the benchmark steps run on.

Usage: python3 perfbench/calibrator.py   (started and stopped by run.py)

The process inherits the driver's single-CPU affinity, lowers its own
priority to nice 19 and then, until SIGTERM, runs a fixed pure-Python kernel
(sets, dicts, bit counts; no boolminor code) every 50 ms.  It records the
kernel's thread CPU time, which grows when a neighbour on the host slows the
CPU down and does not count the time the step holds the CPU.  The duty cycle
takes about 2% of the CPU away from a step.  It prints ``ready`` after the
first sample and, on SIGTERM, one JSON list of
``[perf_counter at the end of the sample, kernel CPU seconds]`` pairs.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

INTERVAL_S = 0.05


def kernel() -> int:
    counts: dict = {}
    acc = 0
    for i in range(600):
        m = (i * 2654435761) & 0xFFFFF
        key = frozenset((m & 0x1F, m >> 5 & 0x1F, m >> 10 & 0x1F))
        counts[key] = counts.get(key, 0) + 1
        acc ^= bin(m).count("1") << (m & 7)
        acc += len(sorted(key))
    return acc + len(counts)


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    os.nice(19)
    samples = []
    while not stopped:
        start = time.thread_time()
        kernel()
        samples.append((time.perf_counter(), time.thread_time() - start))
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(INTERVAL_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
