"""A wall-clock limit per test, on the standard library alone.

A test that runs past ``TEST_TIME_LIMIT_S`` fails with ``TimeoutError`` and
the session goes on to the next test, so an edit that makes a loop run
without end fails Tier-1 instead of hanging it.  The limit is a
``signal.setitimer`` alarm, armed only where POSIX signals reach the main
thread; elsewhere tests run unlimited.  The alarm lands between Python
bytecodes, so it cannot stop one long call into C.
"""

import signal
import threading

import pytest

# About 100 times the slowest test, and above the 30 s gate of the c3 sweep.
TEST_TIME_LIMIT_S = 120.0


def _expire(signum, frame):
    raise TimeoutError(f"test ran past its {TEST_TIME_LIMIT_S:g} s limit")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    armed = hasattr(signal, "setitimer") and threading.current_thread() is threading.main_thread()
    if not armed:
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
