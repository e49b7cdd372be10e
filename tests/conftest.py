import contextlib
import signal

import pytest


def index_perm(G, alpha) -> list[int]:
    """The map ``alpha`` on the elements of G as the list of the index of
    alpha(g) for each index g: the form `burnside_action_check` takes."""
    idx = G.index_map()
    return [idx[alpha[g]] for g in G.elements()]


@contextlib.contextmanager
def within(seconds: float, case: str):
    """Fail ``case`` by an alarm if it runs for more than ``seconds``,
    instead of stalling the suite."""

    def hang(signum, frame):
        pytest.fail(f"{case}: still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
