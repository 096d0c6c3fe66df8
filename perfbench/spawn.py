"""Starts the benchmark's commands and reports their time and resource use.

It runs as a separate, small process because the peak resident set that
wait4 reports for a child includes the peak of the address space the child
was spawned from: the kernel carries that high-water mark across exec.
Spawned from here, a command's peak is its own, not the benchmark's.

Protocol: one JSON request per line on standard input,
    {"argv": [...], "cwd": DIR, "env": {...}, "out": FILE, "timeout": S,
     "cpus": [CPU, ...] or null}
and one JSON reply per line on standard output,
    {"exit": CODE, "timed_out": BOOL, "wall_s": S, "cpu_s": S, "rss_kb": KB}.
A request {"probe": [CPU, ...]} instead times the speed probe on each of
those CPUs and replies {"probe_s": S} (see probe).
The command's standard output goes to FILE and its standard error to
FILE.err. A command given "cpus" runs only on those CPUs. Each command runs
in its own process group; on timeout the whole group is killed, and any
process the command leaves behind is killed too.
It exits when its standard input closes.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time


def kill_group(pgid: int, flag: threading.Event | None = None) -> bool:
    """SIGKILL a process group; return False when it has no process left."""
    if flag is not None:
        flag.set()
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


PROBE_TRIALS = 9


def probe_work() -> int:
    """A fixed piece of work like the program's: interpreter loops, dict
    stores and big-integer multiply and divide (rows of binomials)."""
    total = 0
    for _ in range(25):
        for N in (120, 160, 200):
            binom = 1
            cache = {}
            for l in range(N + 1):
                total += binom * (l * l + 2 * N + 1)
                binom = binom * (N - l) // (l + 1)
                cache[l] = binom & 0xFFFF
            total ^= sum(cache.values())
    return len(str(total))


def probe(cpus: list[int]) -> float:
    """How long probe_work takes now at the CPUs' mean speed: the median of a
    few trials on each CPU, combined as the harmonic mean, because a pool
    spread over several CPUs does work at the sum of their speeds.

    The shared host's speed drifts by tens of percent over seconds to
    minutes; timing this fixed work right before and after a command tells
    the benchmark how fast the CPU was while the command ran.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, [cpu])
            trials = []
            for _ in range(PROBE_TRIALS):
                start = time.perf_counter()
                probe_work()
                trials.append(time.perf_counter() - start)
            times.append(statistics.median(trials))
    finally:
        os.sched_setaffinity(0, allowed)
    return len(times) / sum(1 / t for t in times)


def run(request: dict) -> dict:
    allowed = os.sched_getaffinity(0)
    with open(request["out"], "wb") as out, open(request["out"] + ".err", "wb") as err:
        if request["cpus"]:
            os.sched_setaffinity(0, request["cpus"])  # the child inherits it
        start = time.perf_counter()
        try:
            child = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                     stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                     start_new_session=True)
        finally:
            os.sched_setaffinity(0, allowed)
        timed_out = threading.Event()
        timer = threading.Timer(max(request["timeout"], 0.0), kill_group, (child.pid, timed_out))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            kill_group(child.pid)
            child.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    for _ in range(50):
        if not kill_group(child.pid):
            break
        time.sleep(0.1)
    return {"exit": child.returncode, "timed_out": timed_out.is_set(), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"probe_s": probe(request["probe"])} if "probe" in request else run(request)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
