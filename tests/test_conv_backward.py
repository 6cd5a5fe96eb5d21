"""Byte oracle for the conv backward's col2im: ``nn._conv_backward`` (a
padded weight-left product and k*k contiguous slab adds) against
``_conv_backward_before``, the per-window product and strided col2im it
replaced, kept here verbatim. Loss, every parameter gradient, dx,
FGSM's input gradient and ``fgsm_batch`` must be the same bytes, with and
without parameter gradients, on random nets and on the shapes the slab
layout treats apart: a 1 x 1 conv output (a gemv in the old product), a conv
feeding a conv, k = 1 with one input channel, and a dy holding exact zeros
and -0.0."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import input_gradient
from mgepool import adversarial, nn
from mgepool.nn import Activation, Conv, Dataset, Dense, Flatten, MaxPool, NetworkSpec
from test_inference import random_features, random_params, specs

pytestmark = pytest.mark.byte_identity


def _conv_backward_before(xshape, cols, w, pidx, dy, grads):
    """dx (C-order NCHW, shape ``xshape``) of a conv with weight ``w``, entry
    ``pidx``; writes dW and db into ``grads`` unless it is None. Only dW reads
    ``cols``, the forward's (n, h2*w2, ic*k*k) im2col."""
    n, oc, h2, w2 = dy.shape
    k = w.shape[-1]
    wmat = w.reshape(oc, -1)
    dy_mat = dy.reshape(n, oc, h2 * w2).transpose(0, 2, 1)  # (n, hw, oc)
    if grads is not None:
        grads[pidx + 1] = dy_mat.sum(axis=(0, 1))
        grads[pidx] = np.einsum("npo,npc->oc", dy_mat, cols).ravel()
    dcols = dy_mat @ wmat  # (n, hw, ic*k*k)
    ic = xshape[1]
    d6 = dcols.reshape(n, h2, w2, ic, k, k).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(xshape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + h2, j:j + w2] += d6[:, :, :, :, i, j]
    return dx


# nets with the shapes the slab layout treats apart
ONE_BY_ONE = NetworkSpec((Conv(2, 3, 3), Activation("relu"), Flatten(), Dense(3, 2)),
                         (2, 3, 3), 2)
LAST_CONV_ONE_BY_ONE = NetworkSpec(
    (Conv(1, 4, 3), Activation("relu"), MaxPool(2), Conv(4, 5, 2), Activation("tanh"),
     Flatten(), Dense(5, 3)), (1, 6, 6), 3)
CONV_INTO_CONV = NetworkSpec(
    (Conv(2, 4, 3), Conv(4, 3, 2), Activation("relu"), Flatten(), Dense(72, 3)),
    (2, 7, 9), 3)
K1_IC1 = NetworkSpec((Conv(1, 3, 1), Conv(3, 1, 1), Activation("relu"), Conv(1, 2, 1),
                      Flatten(), Dense(2 * 4 * 5, 2)), (1, 4, 5), 2)
FIXED = [ONE_BY_ONE, LAST_CONV_ONE_BY_ONE, CONV_INTO_CONV, K1_IC1]


def outputs(spec, params, x, y, param_grads):
    """Every output the conv backward reaches, as bytes."""
    ev = nn.EvalSet(Dataset(x, y, spec.classes))
    taped = None if param_grads else nn.forward(spec, params, x, tape=True)
    loss, grads, dx = nn.loss_and_grads(spec, params, x, y, taped=taped)
    out = [np.float64(loss), dx, *(grads or []),
           input_gradient(spec, params, x, y), input_gradient(spec, params, ev, y),
           adversarial.fgsm_batch(spec, params, ev, y, 0.1)]
    return [(a.shape, a.tobytes()) for a in out]


def check_against_before(spec, rows, seed, param_grads):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    got = outputs(spec, params, x, y, param_grads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_conv_backward", _conv_backward_before)
        expected = outputs(spec, params, x, y, param_grads)
    assert got == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(), specs(conv_first=True)), rows=st.integers(1, 40),
       seed=st.integers(0, 2**16), param_grads=st.booleans())
@example(spec=ONE_BY_ONE, rows=5, seed=0, param_grads=False)
@example(spec=ONE_BY_ONE, rows=5, seed=0, param_grads=True)
@example(spec=LAST_CONV_ONE_BY_ONE, rows=37, seed=1, param_grads=False)
@example(spec=LAST_CONV_ONE_BY_ONE, rows=37, seed=1, param_grads=True)
@example(spec=CONV_INTO_CONV, rows=33, seed=2, param_grads=False)
@example(spec=CONV_INTO_CONV, rows=33, seed=2, param_grads=True)
@example(spec=K1_IC1, rows=40, seed=3, param_grads=False)
@example(spec=K1_IC1, rows=40, seed=3, param_grads=True)
def test_outputs_match_the_strided_col2im(spec, rows, seed, param_grads):
    check_against_before(spec, rows, seed, param_grads)


@pytest.mark.parametrize("spec", FIXED, ids=["1x1", "last-conv-1x1", "conv-into-conv", "k1-ic1"])
def test_fixed_nets_reach_their_case(spec):
    """Each fixed net runs the conv shape it is named for, and a dy with exact
    zeros and -0.0 (a ReLU's backward writes -0.0 where a negative dy meets
    a non-positive input)."""
    seen = []  # (input shape, weight shape, dy) of each conv backward
    original = nn._conv_backward

    def spy(xshape, cols, w, pidx, dy, grads):
        seen.append((xshape, w.shape, dy.copy()))
        return original(xshape, cols, w, pidx, dy, grads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_conv_backward", spy)
        check_against_before(spec, 40, 2, False)
    if spec in (ONE_BY_ONE, LAST_CONV_ONE_BY_ONE):
        assert any(dy.shape[2:] == (1, 1) for *_, dy in seen)
    if spec is K1_IC1:
        assert any(w[1:] == (1, 1, 1) and dy.shape[2:] == (4, 5) for _, w, dy in seen)
    if spec is CONV_INTO_CONV:
        assert len({xshape[1:] for xshape, *_ in seen}) == 2
    assert any((dy == 0).any() for *_, dy in seen)
    assert any(((dy == 0) & np.signbit(dy)).any() for *_, dy in seen)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 33), ic=st.integers(1, 5), oc=st.integers(1, 20), k=st.integers(1, 5),
       h2=st.integers(1, 12), w2=st.integers(1, 12), seed=st.integers(0, 2**16),
       zeros=st.sampled_from([0.0, 0.3, 0.9]), param_grads=st.booleans())
@example(n=3, ic=2, oc=4, k=3, h2=1, w2=1, seed=0, zeros=0.3, param_grads=False)
@example(n=3, ic=1, oc=4, k=1, h2=5, w2=4, seed=0, zeros=0.3, param_grads=True)
# LeNet's two convs over one 32-row tile: conv1's one input channel and conv2
@example(n=32, ic=1, oc=6, k=5, h2=24, w2=24, seed=1, zeros=0.3, param_grads=False)
@example(n=32, ic=1, oc=6, k=5, h2=24, w2=24, seed=1, zeros=0.3, param_grads=True)
@example(n=32, ic=6, oc=16, k=5, h2=8, w2=8, seed=2, zeros=0.3, param_grads=False)
@example(n=32, ic=6, oc=16, k=5, h2=8, w2=8, seed=2, zeros=0.3, param_grads=True)
def test_conv_backward_matches_on_its_own(n, ic, oc, k, h2, w2, seed, zeros, param_grads):
    """The function alone, on a C-order dy (as every recorded backward passes
    it) with a share ``zeros`` of exact zeros, half of them -0.0."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(oc, ic, k, k))
    dy = rng.normal(size=(n, oc, h2, w2))
    zero = rng.random(dy.shape) < zeros
    dy[zero] = np.where(rng.random(dy.shape) < 0.5, 0.0, -0.0)[zero]
    xshape = (n, ic, h2 + k - 1, w2 + k - 1)
    cols = rng.normal(size=(n, h2 * w2, ic * k * k)) if param_grads else None
    got, expected = [None, None], [None, None]
    dx = nn._conv_backward(xshape, cols, w, 0, dy, got if param_grads else None)
    ref = _conv_backward_before(xshape, cols, w, 0, dy, expected if param_grads else None)
    assert dx.shape == ref.shape and dx.flags.c_contiguous
    assert dx.tobytes() == ref.tobytes()
    assert [None if g is None else g.tobytes() for g in got] == \
        [None if g is None else g.tobytes() for g in expected]
