"""The task runner behind a sweep: ``run_tasks`` gives task(j) for each j,
in order, from this process or from forked workers.

It forks only where os.fork exists and while this process runs one
thread: a fork while another thread runs could copy a lock that thread
holds (a table's, say) into a worker, locked for good. It never forks more
workers than there are js or CPUs this process may run on. Worker w of W
runs js[w::W] and sends each result over its own pipe as one marshal
value, blocking while the pipe is full, so the i-th result is the next
value on pipe i % W. A str value names the exception that ended the
worker, and a pipe that ends before a whole value means it died; either
is a RuntimeError naming its j. A task that raises here is reported as a
worker's is. Both ends are this interpreter, forked, so marshal's
caveats about untrusted data and other Python versions do not apply. No
pool module is imported, and signal only by a pooled run.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import BinaryIO, Callable, Iterator, NoReturn


def run_tasks(task: Callable[[int], object], js: range, workers: int) -> Iterator[object]:
    """task(j) for each j in js, in order, from up to workers forked
    workers, or here. Either way a generator, so that closing it ends every
    worker, whichever way its reader's loop ends, and a task that raises an
    Exception ends it with one RuntimeError, "worker for j=J failed: TYPE:
    MESSAGE"."""
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = min(workers, len(js), _cpus())
        if workers > 1:
            return _forked(task, js, workers)
    return _serial(task, js)


def _serial(task: Callable[[int], object], js: range) -> Iterator[object]:
    """task(j) for each j in js, here."""
    for j in js:
        try:
            result = task(j)
        except Exception as exc:
            raise RuntimeError(f"worker for j={j} failed: {type(exc).__name__}: {exc}") from exc
        yield result


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(task: Callable[[int], object], js: range, workers: int) -> Iterator[object]:
    """task(j) for each j in js from workers forked children. However the
    generator ends, it closes every pipe, kills every worker (one that has
    sent its last result is exiting anyway) and waits on each one."""
    import signal

    readers: list[BinaryIO] = []
    pids: list[int] = []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as pipe:
                pid = os.fork()
                if pid == 0:
                    _work(task, js[w::workers], pipe, readers)
                pids.append(pid)
        for i, j in enumerate(js):
            yield _read_frame(readers[i % workers], j)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(task: Callable[[int], object], js: range, pipe: BinaryIO,
          readers: list[BinaryIO]) -> NoReturn:
    """A forked worker's whole life: task(j) for each j in js on pipe, then
    os._exit, so it never runs the parent's finally blocks or flushes the
    parent's buffers. Ctrl-C is left to the parent."""
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for reader in readers:
            reader.close()
        for j in js:
            try:
                marshal.dump(task(j), pipe)
            except Exception as exc:
                marshal.dump(f"{type(exc).__name__}: {exc}", pipe)
                break
            finally:
                pipe.flush()
    finally:
        os._exit(0)


def _read_frame(reader: BinaryIO, j: int) -> object:
    """The worker's result for j, the next value on reader."""
    try:
        result = marshal.load(reader)
    except EOFError:
        raise RuntimeError(f"worker for j={j} died") from None
    if isinstance(result, str):
        raise RuntimeError(f"worker for j={j} failed: {result}")
    return result
