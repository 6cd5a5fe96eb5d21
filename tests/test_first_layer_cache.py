"""The first-layer im2col cache is filled by the first forward that reads
it. ``EvalSet`` makes the buffer on first use; the tiles of the first
forward over its rows write their windows there as they compute them, and
the cache counts as filled once every tile has finished. Later forwards
read it and build no first-layer im2col; a forward that starts while
another fills it, or after a filling forward failed, gets the same bytes."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgepool import nn
from mgepool.nn import Dataset
from test_inference import random_features, random_params, specs

pytestmark = pytest.mark.byte_identity


def first_layer_builds(monkeypatch, x):
    """Wrap nn._im2col_nhwc; returns the ``out`` of each call whose input
    is a view of the rows ``x``, i.e. each first-layer im2col built."""
    seen = []
    build = nn._im2col_nhwc

    def spy(a, k, out=None):
        if np.shares_memory(a, x):
            seen.append(out)
        return build(a, k, out)

    monkeypatch.setattr(nn, "_im2col_nhwc", spy)
    return seen


def first_layer_im2col(spec, x):
    return nn._im2col_nhwc(x.transpose(0, 2, 3, 1), spec.layers[0].k)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


LENET = nn.lenet_like(10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=specs(conv_first=True), rows=st.integers(1, 80), seed=st.integers(0, 2**16),
       tape=st.booleans())
@example(spec=LENET, rows=100, seed=0, tape=False)
@example(spec=LENET, rows=nn.EVAL_BATCH, seed=1, tape=True)
def test_the_first_forward_fills_the_cache(spec, rows, seed, tape):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    expected = nn.forward(spec, params, x)  # no cache
    ev = nn.EvalSet(Dataset(x, np.zeros(rows, dtype=int), spec.classes))
    cache = ev.first_cols(spec)
    with pytest.MonkeyPatch.context() as mp:
        builds = first_layer_builds(mp, x)
        first = nn.forward(spec, params, ev, tape=tape)
        # every tile built its windows into its rows of the cache
        assert builds and all(out is not None and np.shares_memory(out, cache) for out in builds)
        assert sum(len(out) for out in builds) == rows
        builds.clear()
        second = nn.forward(spec, params, ev)
        assert builds == []  # read from the cache
    assert same_bytes(cache, first_layer_im2col(spec, x))
    assert same_bytes(first[0] if tape else first, expected)
    assert same_bytes(second, expected)


def test_a_set_of_more_than_one_batch_has_no_cache(monkeypatch):
    spec = LENET
    params = random_params(spec, 0)
    x = random_features(spec, nn.EVAL_BATCH + 1, 0)
    ev = nn.EvalSet(Dataset(x, np.zeros(len(x), dtype=int), 10))
    assert ev.first_cols(spec) is None
    builds = first_layer_builds(monkeypatch, x)
    logits = nn.forward(spec, params, ev)
    assert builds and all(out is None for out in builds)
    monkeypatch.undo()
    assert same_bytes(logits, nn.forward(spec, params, x))


@pytest.mark.parametrize("rows", [40, nn.EVAL_BATCH])
def test_two_threads_that_run_the_first_forward_at_once(rows):
    """Each gets the uncached forward's bytes, whichever fills the cache;
    the other builds its own windows, and the cache is filled after."""
    spec = LENET
    params = random_params(spec, 0)
    x = random_features(spec, rows, 0)
    expected = nn.forward(spec, params, x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ev = nn.EvalSet(Dataset(x, np.zeros(rows, dtype=int), 10))
            start, results = threading.Barrier(2), [None, None]

            def run(i):
                start.wait()
                results[i] = nn.forward(spec, params, ev)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for got in results:
                assert same_bytes(got, expected)
            assert same_bytes(ev.first_cols(spec), first_layer_im2col(spec, x))
    finally:
        sys.setswitchinterval(interval)


def test_a_forward_that_starts_while_another_fills_builds_its_own(monkeypatch):
    """The filling forward is held inside its one tile (a batch of one tile
    runs on its calling thread) while another forward runs."""
    spec = LENET
    params = random_params(spec, 0)
    x = random_features(spec, nn.TILE_ROWS - 3, 0)
    expected = nn.forward(spec, params, x)
    ev = nn.EvalSet(Dataset(x, np.zeros(len(x), dtype=int), 10))
    build, filling, release = nn._im2col_nhwc, threading.Event(), threading.Event()
    builds = []  # (built on the main thread, out) of each first-layer im2col

    def held(a, k, out=None):
        if np.shares_memory(a, x):
            builds.append((threading.current_thread() is threading.main_thread(), out))
        if out is not None:
            filling.set()
            release.wait(60)
        return build(a, k, out)

    monkeypatch.setattr(nn, "_im2col_nhwc", held)
    results = []
    filler = threading.Thread(target=lambda: results.append(nn.forward(spec, params, ev)))
    filler.start()
    try:
        assert filling.wait(60)
        assert same_bytes(nn.forward(spec, params, ev), expected)
    finally:
        release.set()
        filler.join()
    assert same_bytes(results[0], expected)
    assert [(main, out is None) for main, out in builds] == [(False, False), (True, True)]
    builds.clear()
    assert same_bytes(nn.forward(spec, params, ev), expected)
    assert builds == []  # filled by the held forward


def test_a_failed_fill_leaves_the_cache_to_the_next_forward(monkeypatch):
    spec = LENET
    params = random_params(spec, 0)
    x = random_features(spec, 100, 0)
    expected = nn.forward(spec, params, x)
    ev = nn.EvalSet(Dataset(x, np.zeros(100, dtype=int), 10))
    build = nn._im2col_nhwc
    fills = []

    def failing(a, k, out=None):  # the second tile's fill fails
        if out is not None:
            fills.append(out)
            if len(fills) == 2:
                raise MemoryError("no room")
        return build(a, k, out)

    monkeypatch.setattr(nn, "_im2col_nhwc", failing)
    with pytest.raises(MemoryError):
        nn.forward(spec, params, ev)
    monkeypatch.undo()
    builds = first_layer_builds(monkeypatch, x)
    assert same_bytes(nn.forward(spec, params, ev), expected)
    assert builds and all(out is not None for out in builds)  # filled again
    builds.clear()
    assert same_bytes(nn.forward(spec, params, ev), expected)
    assert builds == []


def test_a_cache_serves_one_spec_at_a_time():
    """An EvalSet scored under another spec makes that spec's cache anew."""
    a, b = LENET, nn.NetworkSpec((nn.Conv(1, 2, 3), nn.Activation("relu"), nn.MaxPool(2),
                                  nn.Flatten(), nn.Dense(338, 10)), (1, 28, 28), 10)
    x = random_features(a, 50, 0)
    ev = nn.EvalSet(Dataset(x, np.zeros(50, dtype=int), 10))
    for spec in (a, b, a):
        params = random_params(spec, 1)
        assert same_bytes(nn.forward(spec, params, ev), nn.forward(spec, params, x))
        assert same_bytes(ev.first_cols(spec), first_layer_im2col(spec, x))
