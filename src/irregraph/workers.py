"""Run the shards of one computation in forked worker processes.

forked_map(work, k) calls work(i) for every shard i < k: shard 0 in the
calling process and every other shard in a child forked from it, so a child
starts with everything the caller has built and nothing is sent on the way
in.  A child sends its result back through a pipe, pickled, and leaves by
os._exit: nothing the caller buffered is flushed twice, and none of the
caller's clean-up runs in the child.  Every child is reaped before
forked_map returns or raises.  An exception in a child is raised again in
the caller, with the same type, args and attributes, from a WorkerTraceback
that holds the child's traceback; one that pickle cannot carry or rebuild
comes back as a RuntimeError naming its type and args.

pickle is safe here because a pipe only ever links the caller to a child it
forked itself, running the same code; nothing read from a file or from
another process is unpickled.

The standard library's multiprocessing Pool does not serve here: with the
fork context, importing it and starting and stopping a one-worker pool took
31-42 ms on a 2-vCPU Xeon (Python 3.11), a quarter to a third of what two
shards save at order 7, and its workers flush the inherited stdout and
stderr on exit.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, NoReturn


def usable_workers(cap: int) -> int:
    """One worker per CPU this process may run on, at most cap; 1 where
    os.fork is missing or another thread runs, since a forked child of a
    threaded process can block forever on a lock that a thread held."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (
        threading is not None and threading.active_count() > 1
    ):
        return 1
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, cap)


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker; the
    caller raises that exception again from this one."""


def forked_map(work: Callable[[int], object], k: int) -> list:
    """[work(i) for i in range(k)], shard 0 here and the others each in a
    forked child."""
    pipes = {}  # pid -> read end, for every child not yet reaped
    try:
        for i in range(1, k):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(fd)
                os.close(out)
                raise
            if pid == 0:
                os.close(fd)
                _child(work, i, out)
            os.close(out)
            pipes[pid] = fd
        results = [work(0)]
        for pid, fd in list(pipes.items()):  # in shard order
            sent, status = _received(pid, fd)
            del pipes[pid]
            if not sent:
                raise RuntimeError(
                    f"worker {pid} ended without a result (wait status {status})"
                )
            trace, value = pickle.loads(sent)
            if trace is not None:
                raise value from WorkerTraceback(trace)
            results.append(value)
        return results
    finally:
        if pipes:  # an error, or an interrupt, came first: stop the rest
            import signal  # here only: the import alone takes about 2 ms

            for pid, fd in pipes.items():
                try:
                    os.close(fd)
                except OSError:  # _received closed it already
                    pass
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == 0:  # still running
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                except ChildProcessError:  # _received reaped it already
                    pass


def _child(work: Callable[[int], object], i: int, out: int) -> NoReturn:
    """Send (None, work(i)), or (the traceback, the exception) if it raised
    one, pickled through the pipe end out, and leave the process."""
    code = 1
    try:
        try:
            sent = pickle.dumps((None, work(i)))
        except BaseException as exc:  # every error goes back to the caller
            import traceback

            trace = "".join(traceback.format_exception(exc))
            try:
                sent = pickle.dumps((trace, exc))
                pickle.loads(sent)  # the caller must be able to rebuild it
            except Exception:
                cls = type(exc)
                named = RuntimeError(f"{cls.__module__}.{cls.__qualname__}{exc.args!r}")
                sent = pickle.dumps((trace, named))
        with open(out, "wb") as pipe:
            pipe.write(sent)
        code = 0
    finally:
        os._exit(code)


def _received(pid: int, fd: int) -> tuple[bytes, int]:
    """What the child pid sent through the read end fd, which is closed
    after, and its wait status, once the child is reaped."""
    with open(fd, "rb") as pipe:
        sent = pipe.read()
    return sent, os.waitpid(pid, 0)[1]
