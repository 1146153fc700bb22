import contextlib
import signal

import pytest


class TimeLimitExceeded(Exception):
    """Raised inside a block that outlived its `time_limit`."""


@pytest.fixture(scope="session")
def time_limit():
    """`with time_limit(seconds):` fails the block once it has run that long,
    so a hang fails its test instead of stalling the suite."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeLimitExceeded(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return limit


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
