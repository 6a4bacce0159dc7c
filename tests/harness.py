"""What the in-process tests share: two small graphs, a peak-memory probe
and a call spy."""

import tracemalloc

from qmaxcut import Graph

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
EDGE = Graph(2, ((0, 1),))


def traced_peak(fn, *args, **kwargs):
    """``(peak, result)``: the peak bytes that ``tracemalloc`` traces while
    ``fn(*args, **kwargs)`` runs, read before the call's result is freed,
    and that result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def spy(monkeypatch, owner, name, log=None, record=lambda *args, **kwargs: args):
    """Patch ``owner.name`` for the test with a wrapper that calls it through
    and, as each call ends, appends ``record`` of the call's arguments (by
    default the positional ones) to ``log``.  ``log`` is a new list unless
    one is given, so that several spies can write one log in call order.
    Returns ``log``."""
    original = getattr(owner, name)
    log = [] if log is None else log

    def spying(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            log.append(record(*args, **kwargs))

    monkeypatch.setattr(owner, name, spying)
    return log
