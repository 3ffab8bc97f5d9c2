"""Forked worker shards: results in shard order, errors raised again in the
caller, and no child process left behind."""

import errno
import os
import pickle
import signal
import threading
import time
import traceback

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
    # a local function does not pickle; the worker's pickling error is
    # raised again in the caller
    with pytest.raises(
        (AttributeError, pickle.PicklingError), match="[Cc]an't pickle"
    ) as raised:
        forked_map(lambda i: (lambda: 0) if i else None, 2)
    assert isinstance(raised.value.__cause__, WorkerTraceback)
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


@pytest.mark.parametrize(
    "exc, expected, match, attributes",
    [
        # crosses whole: type, args and the extra attribute filename
        (
            OSError(errno.ENOENT, "gone", "x.g6"),
            FileNotFoundError,
            "gone",
            {"args": (errno.ENOENT, "gone"), "filename": "x.g6"},
        ),
        # args that pickle cannot carry
        (ValueError(lambda: 0), RuntimeError, r"builtins\.ValueError\(<function", {}),
        # args that the type's __init__ does not take
        (_TwoArgs(1, 2), RuntimeError, r"_TwoArgs\('1 and 2',\)", {}),
    ],
    ids=["whole", "unpicklable_args", "two_args"],
)
def test_an_exception_that_cannot_be_rebuilt_names_its_type(
    exc, expected, match, attributes
):
    def work(i):
        if i:
            raise exc

    with pytest.raises(expected, match=match) as raised:
        forked_map(work, 2)
    assert type(raised.value) is expected
    for name, value in attributes.items():
        assert getattr(raised.value, name) == value
    cause = raised.value.__cause__
    assert isinstance(cause, WorkerTraceback)
    # the worker's own traceback, down to the exception it raised
    assert "in work\n    raise exc\n" in str(cause)
    assert str(cause).endswith("".join(traceback.format_exception_only(exc)))
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
