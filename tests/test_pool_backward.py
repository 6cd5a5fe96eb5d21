"""Byte oracle for the max-pool backward: ``nn._pool_backward`` (each window's
first-maximum mask formed once, dx written view by view) against
``_pool_backward_before``, the masked strided copies it replaced, kept here
verbatim. dx must be the same bytes and C-contiguous on pools of k = 1 to 3
with non-square outputs, inputs where many windows hold several equal
maxima, and a dy holding exact zeros and -0.0."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgepool import nn

pytestmark = pytest.mark.byte_identity


def _pool_backward_before(dy, hits, k):
    """dx of a k x k max-pool, C-order NCHW: each window's dy goes to its
    first maximum in (i, j) order. ``hits`` holds, for each (i, j) in that
    order, where the strided view ``x[..., i::k, j::k]`` equals the output."""
    dx = np.zeros((*dy.shape[:2], dy.shape[2] * k, dy.shape[3] * k))
    free = np.ones(dy.shape, dtype=bool)  # windows whose dy is not yet placed
    for (i, j), hit in zip(np.ndindex(k, k), hits):
        first = hit & free
        np.copyto(dx[:, :, i::k, j::k], dy, where=first)
        free ^= first
    return dx


def pool_case(n, c, h2, w2, k, seed, zeros):
    """(dy, hits) of a pool over an NHWC input drawn from five values, so that
    many windows tie; ``hits`` as the forward records them, NCHW views of the
    NHWC comparisons. A share ``zeros`` of dy is exact zeros, half of them -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], (n, h2 * k, w2 * k, c))
    y = nn._pool_nhwc(x, k)
    hits = [nn._nchw(x[:, i::k, j::k] == y) for i, j in np.ndindex(k, k)]
    dy = rng.normal(size=(n, c, h2, w2))
    zero = rng.random(dy.shape) < zeros
    dy[zero] = np.where(rng.random(dy.shape) < 0.5, 0.0, -0.0)[zero]
    return dy, hits


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 33), c=st.integers(1, 6), h2=st.integers(1, 9), w2=st.integers(1, 9),
       k=st.integers(1, 3), seed=st.integers(0, 2**16), zeros=st.sampled_from([0.0, 0.3, 0.9]))
@example(n=32, c=6, h2=12, w2=12, k=2, seed=0, zeros=0.3)  # LeNet's first pool, one tile
@example(n=32, c=16, h2=4, w2=4, k=2, seed=1, zeros=0.3)   # and its second
@example(n=5, c=2, h2=3, w2=7, k=3, seed=2, zeros=0.9)
def test_pool_backward_matches_on_its_own(n, c, h2, w2, k, seed, zeros):
    dy, hits = pool_case(n, c, h2, w2, k, seed, zeros)
    dx = nn._pool_backward(dy, hits, k)
    ref = _pool_backward_before(dy, hits, k)
    assert dx.shape == ref.shape and dx.flags.c_contiguous
    assert dx.tobytes() == ref.tobytes()


def test_the_cases_tie_and_hold_signed_zeros():
    """The fixed LeNet case has windows with several maxima and a dy with
    exact zeros of both signs, so the property can tell the first maximum
    from any other and +0.0 from -0.0."""
    dy, hits = pool_case(32, 6, 12, 12, 2, 0, 0.3)
    assert (np.sum(hits, axis=0) > 1).mean() > 0.2
    assert ((dy == 0) & np.signbit(dy)).any() and ((dy == 0) & ~np.signbit(dy)).any()
