"""Helpers for tests of the code that runs on every CPU: util.fan_out and its callers, and the
threaded moment passes of pipeline.mlds_fit. A patched CPU count, a fork counter, a reap check,
and guards that fail a test on any fork or thread start."""

import os
import threading

import pytest


def set_cpus(monkeypatch, count):
    """Make util.cpu_count() read `count` CPUs in the affinity mask.

    util.fan_out then forks up to count - 1 workers, and each moment pass of
    mlds_fit that has several blocks sums its second half of the blocks on one
    pool thread when count is 2 or more.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch):
    """The list of pids that call os.fork from now on, one entry per call."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def forbid_forks(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)


def forbid_threads(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("threading.Thread called")

    monkeypatch.setattr(threading, "Thread", no_thread)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
