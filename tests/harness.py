"""What the in-process tests share: two small graphs, a peak-memory probe,
a call spy, and the bounds of the canonical circuit rule."""

import tracemalloc

import numpy as np

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


def every_half(params):
    """Every half-layer of ``params``, zero angles included, in order: the
    uncanonicalized circuit, for ``kernel_oracle.flip_symmetric_state``."""
    return tuple(h for gb in zip(params.gammas, params.betas) for h in enumerate(gb))


# The canonical form (``simulator._circuit``) against the every-kernel run
# where they differ in rounding: a merged angle, a stripped half-layer or a
# value in closed form.  Over 40,000 seeded random circuits (n <= 14, p of
# 2-4, about a third of the angles zero, canceling pairs at half the layer
# boundaries) and 46,000 draws of test_qaoa.canceling_angles() on graphs of
# up to 14 vertices, the worst expectation differed by 2.75 eps * m * n
# (n=2, m=1) and the worst probability by 7.0 eps (n=7, m=21); the bounds
# leave 2.9x and 2.3x those.
VALUE_EPS, PROBABILITY_EPS = 8, 16


def assert_within_the_canonical_bounds(g, value, probs, want_value, want_probs):
    """``value`` within ``VALUE_EPS * eps * m * n`` of ``want_value``, and
    each of ``probs`` within ``PROBABILITY_EPS * eps`` of ``want_probs``."""
    eps = np.finfo(float).eps
    assert abs(value - want_value) <= VALUE_EPS * eps * g.m * g.n
    assert np.max(np.abs(probs - want_probs)) <= PROBABILITY_EPS * eps
