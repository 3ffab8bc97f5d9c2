"""Forked worker shards: results in shard order, errors raised again in the
caller, and no child process left behind."""

import errno
import os
import signal
import threading
import time

import pytest

from irregraph.workers import WorkerTraceback, forked_map, usable_workers


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_shard_order():
    caller = os.getpid()
    got = forked_map(lambda i: (i, os.getpid() == caller, {"i": [i] * i}), 4)
    assert got == [(0, True, {"i": []})] + [
        (i, False, {"i": [i] * i}) for i in range(1, 4)
    ]
    assert forked_map(lambda i: i, 1) == [0]
    _no_child_left()


def test_a_result_the_pipe_cannot_carry_is_an_error():
    with pytest.raises(ValueError, match="unmarshallable object"):
        forked_map(lambda i: object() if i else None, 2)
    _no_child_left()


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


def test_an_interrupt_while_waiting_for_a_worker_stops_it():
    # the caller is interrupted while it reads a result that would take a
    # minute: the worker is killed and reaped, and the interrupt goes on
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Interrupted):
            forked_map(lambda i: time.sleep(60) if i else None, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_failed_fork_closes_its_pipe_and_stops_the_workers(monkeypatch):
    real = os.fork

    def fail():
        raise BlockingIOError(errno.EAGAIN, "no process left")

    def fork_once():
        monkeypatch.setattr(os, "fork", fail)
        return real()

    monkeypatch.setattr(os, "fork", fork_once)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        forked_map(lambda i: time.sleep(60), 3)
    assert sorted(os.listdir("/proc/self/fd")) == before
    _no_child_left()


class _TwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_cannot_be_rebuilt_names_its_type():
    def work(i):
        if i:
            raise _TwoArgs(1, 2)

    with pytest.raises(RuntimeError, match=r"_TwoArgs\('1 and 2',\)") as raised:
        forked_map(work, 2)
    assert isinstance(raised.value.__cause__, WorkerTraceback)
    assert "_TwoArgs(1, 2)" in str(raised.value.__cause__)
    _no_child_left()


def test_usable_workers():
    usable = len(os.sched_getaffinity(0))
    assert usable_workers(64) == min(usable, 64)
    assert usable_workers(1) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:  # no fork while another thread runs
        assert usable_workers(64) == 1
    finally:
        stop.set()
        thread.join()
