"""Byte oracle for the conv im2col: ``nn._im2col_nhwc``, one gather at
offsets made once per input shape, against ``_im2col_before``, the copy of
the sliding windows it replaced, whose body is kept here verbatim. The
columns must be the same bytes on C-contiguous NHWC batches, on the NHWC
view of an NCHW batch (not contiguous when c > 1), on a tile's rows, and
written into a row slice of a larger buffer, whose other rows keep their
bytes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mgepool import adversarial, nn
from mgepool.nn import Dataset
from test_inference import random_features, random_params

pytestmark = pytest.mark.byte_identity


def _im2col_before(x, k, out=None):
    """(n, h2, w2, c*k*k) windows of an NHWC batch, columns in the (c, k, k)
    order of a conv weight's rows; written into ``out`` if it is given."""
    win = sliding_window_view(x, (k, k), axis=(1, 2))  # (n, h2, w2, c, k, k)
    if out is None:
        return np.ascontiguousarray(win).reshape(*win.shape[:3], -1)
    out.reshape(win.shape)[...] = win
    return out


def _batch(n, c, h, w, nchw, seed):
    """An NHWC batch: C-contiguous, or the NHWC view of a C-contiguous NCHW one."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, c, h, w)).transpose(0, 2, 3, 1) if nchw \
        else rng.normal(size=(n, h, w, c))


@st.composite
def batches(draw):
    """(x, k): an NHWC batch of 1..40 images, 1..4 channels, and a kernel size."""
    n, c = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(1, min(h, w)))
    return _batch(n, c, h, w, draw(st.booleans()), draw(st.integers(0, 2**16))), k


CONV1 = (_batch(40, 1, 28, 28, True, 0), 5)  # LeNet's first conv, on the NCHW input
CONV2 = (_batch(40, 6, 12, 12, False, 1), 5)  # its second, on the pooled NHWC output
NCHW_VIEW = (_batch(40, 3, 9, 7, True, 2), 3)  # not contiguous: c > 1


def as_bytes(a):
    return a.shape, a.dtype, a.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch=batches())
@example(batch=CONV1)
@example(batch=CONV2)
@example(batch=NCHW_VIEW)
def test_matches_the_copy_before(batch):
    x, k = batch
    assert as_bytes(nn._im2col_nhwc(x, k)) == as_bytes(_im2col_before(x, k))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(batch=batches(), start=st.integers(0, 39))
@example(batch=CONV1, start=32)
@example(batch=CONV2, start=0)
@example(batch=NCHW_VIEW, start=8)
def test_a_tile_matches(batch, start):
    """A tile's rows, ``x[s:s + TILE_ROWS]``, as the forward hands them."""
    x, k = batch
    tile = x[min(start, len(x) - 1):][:nn.TILE_ROWS]
    assert as_bytes(nn._im2col_nhwc(tile, k)) == as_bytes(_im2col_before(tile, k))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(batch=batches(), before=st.integers(0, 40), after=st.integers(0, 40))
@example(batch=CONV1, before=32, after=0)
@example(batch=NCHW_VIEW, before=3, after=5)
def test_out_rows_of_a_larger_buffer(batch, before, after):
    """Written into a row slice, as a tile fills the first-layer cache: the
    slice gets the windows and the buffer's other rows keep their bytes."""
    x, k = batch
    n, h, w, c = x.shape
    buf = np.random.default_rng(n).normal(size=(before + n + after, h - k + 1, w - k + 1,
                                                 c * k * k))
    expected = buf.copy()
    rows = slice(before, before + n)
    _im2col_before(x, k, expected[rows])
    assert nn._im2col_nhwc(x, k, buf[rows]).base is buf
    assert as_bytes(buf) == as_bytes(expected)


def test_offsets_made_once_per_shape(monkeypatch):
    """A training step, an accuracy over an EvalSet and a robust accuracy
    make LeNet's two convs' offsets once; a second round reuses them."""
    monkeypatch.setattr(nn, "_IM2COL_OFFSETS", {})
    spec = nn.lenet_like(10)
    params = random_params(spec, 0)
    x = random_features(spec, 40, 0)
    y = np.arange(40) % spec.classes

    def one_round():
        nn.loss_and_grads(spec, params, x[:32], y[:32])
        ev = nn.EvalSet(Dataset(x, y, spec.classes))
        nn.evaluate_accuracy(spec, params, ev)
        adversarial.robust_accuracy(spec, params, ev, 0.1)

    one_round()
    made = dict(nn._IM2COL_OFFSETS)
    assert set(made) == {(28, 28, 1, 5), (12, 12, 6, 5)}
    assert all(a.dtype == np.intp for a in made.values())
    one_round()
    assert nn._IM2COL_OFFSETS.keys() == made.keys()
    assert all(nn._IM2COL_OFFSETS[shape] is a for shape, a in made.items())
