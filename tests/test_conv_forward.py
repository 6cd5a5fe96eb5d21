"""Byte oracle for the conv forward: ``nn._layers_forward`` (the conv product
through ``nn._conv_product``, which takes a contiguous copy of the
transposed weight where a per-shape probe finds that it keeps the bytes,
and a conv's bias added after the max-pool it feeds) against
``_layers_forward_before``, the forward it replaced, whose body is kept
here verbatim: the product with the transposed weight view and the bias
added before the pool.
Logits over an EvalSet (the forward that fills its cache and one that reads
it), ``fgsm_batch``, ``robust_accuracy`` and training's loss, parameter
gradients and dx must be the same bytes, on random conv nets and LeNet."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgepool import adversarial, nn
from mgepool.nn import Activation, Conv, Dataset, Dense, Flatten, MaxPool
from test_inference import random_features, random_params, specs

pytestmark = pytest.mark.byte_identity


def _layers_forward_before(layers, params, pidx, out, first_cols, tape, param_grads,
                           fill=False):
    keep = tape is not None
    for i, layer in enumerate(layers):
        if isinstance(layer, Dense):
            w = params.entries[pidx].reshaped()
            if keep:
                tape.append(partial(nn._dense_backward, out if param_grads else None, w, pidx))
            out = out @ w + params.entries[pidx + 1].values
            pidx += 2
        elif isinstance(layer, Conv):
            w = params.entries[pidx].reshaped()
            into = first_cols if i == 0 else None
            cols = into if into is not None and not fill else nn._im2col_nhwc(out, layer.k, into)
            n, h2, w2, _ = cols.shape
            cols = cols.reshape(n, h2 * w2, -1)
            y = cols @ w.reshape(layer.out_ch, -1).T
            y += params.entries[pidx + 1].values
            if keep:
                tape.append(partial(nn._conv_backward, nn._nchw(out).shape,
                                    cols if param_grads else None, w, pidx))
            out = y.reshape(n, h2, w2, layer.out_ch)
            pidx += 2
        elif isinstance(layer, MaxPool):
            y = nn._pool_nhwc(out, layer.k)
            if keep:  # where each strided view holds its window's maximum
                k = layer.k
                hits = [nn._nchw(out[:, i::k, j::k] == y) for i, j in np.ndindex(k, k)]
                tape.append(lambda d, grads, hits=hits, k=k: nn._pool_backward(d, hits, k))
            out = y
        elif isinstance(layer, Activation):
            if keep and layer.kind == "relu":  # subgradient 0 at the kink
                tape.append(lambda d, grads, x=nn._nchw(out): d * (x > 0))
            out = np.maximum(out, 0.0) if layer.kind == "relu" else np.tanh(out)
            if keep and layer.kind == "tanh":  # tanh's gradient needs its output
                tape.append(lambda d, grads, y=nn._nchw(out): d * (1.0 - y * y))
        elif isinstance(layer, Flatten):
            if keep:
                tape.append(lambda d, grads, shape=nn._nchw(out).shape: d.reshape(shape))
            out = nn._nchw(out).reshape(out.shape[0], -1)
    return out


LENET = nn.lenet_like(10)


def outputs(spec, params, x, y):
    """Every output the conv forward reaches, as bytes."""
    ev = nn.EvalSet(Dataset(x, y, spec.classes))
    filling = nn.forward(spec, params, ev)
    filled = nn.forward(spec, params, ev)
    fgsm = adversarial.fgsm_batch(spec, params, ev, y, 0.1)
    robust = np.float64(adversarial.robust_accuracy(spec, params, ev, 0.1))
    loss, grads, dx = nn.loss_and_grads(spec, params, x, y)
    out = [filling, filled, fgsm, robust, np.float64(loss), dx, *grads]
    return [(a.shape, a.tobytes()) for a in out]


def check_against_before(spec, rows, seed):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    # labels from the logits, so that the robust accuracy is not 0 throughout
    y = nn.forward(spec, params, x).argmax(axis=1)
    got = outputs(spec, params, x, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_layers_forward", _layers_forward_before)
        expected = outputs(spec, params, x, y)
    assert got == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(conv_first=True), st.just(LENET)), rows=st.integers(1, 70),
       seed=st.integers(0, 2**16))
@example(spec=LENET, rows=70, seed=0)
@example(spec=LENET, rows=1, seed=1)
def test_outputs_match_the_forward_before(spec, rows, seed):
    check_against_before(spec, rows, seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), p=st.integers(1, 600), k=st.integers(1, 160),
       oc=st.integers(1, 20), seed=st.integers(0, 2**16))
@example(n=32, p=576, k=25, oc=6, seed=0)
@example(n=32, p=64, k=150, oc=16, seed=0)
def test_conv_product_matches_the_view(n, p, k, oc, seed):
    """The helper gives the bytes of ``cols @ wmat.T`` whichever layout it
    picks for the shape, on stacks of other sizes than the probe's two."""
    rng = np.random.default_rng(seed)
    cols, wmat = rng.normal(size=(n, p, k)), rng.normal(size=(oc, k))
    got = nn._conv_product(cols, wmat)
    assert (p, k, oc) in nn._CONTIGUOUS_WEIGHT
    assert got.tobytes() == (cols @ wmat.T).tobytes()


def test_lenet_layouts_on_the_pinned_build():
    """Where LeNet's gain comes from, on the numpy and OpenBLAS build CI pins:
    its first conv's product (576 positions, 25 = 1*5*5, 6 channels) takes
    the contiguous weight, and its second's (64, 150 = 6*5*5, 16) keeps the
    view, whose bytes the contiguous one does not give."""
    assert nn._contiguous_agrees(576, 25, 6)
    assert not nn._contiguous_agrees(64, 150, 16)
