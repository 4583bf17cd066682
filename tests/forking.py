"""Helpers for tests of util.fan_out and its callers: a patched CPU count, a fork counter, a reap check."""

import os

import pytest


def set_cpus(monkeypatch, count):
    """Make util.fan_out see `count` CPUs in the affinity mask, so it forks up to count - 1 workers."""
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


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
