"""A time limit on every test: a test still running after TEST_LIMIT_S
seconds fails with its node id, so a loop that never closes (an oracle whose
span a fault keeps from closing, say) fails the suite instead of hanging it.
The slowest test takes a few seconds; the limit is far above that."""

import signal

import pytest

TEST_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):  # no alarm on this platform
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} still running after {TEST_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
