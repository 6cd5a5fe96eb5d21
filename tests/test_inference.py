"""Property tests: the inference forward (nothing recorded, shared
first-layer im2col) gives logits bit-identical to the recording forward that
training uses; both max-pool with a maximum of strided views and move each ReLU that
feeds a max-pool after it. The max-pool backward routes each window's
gradient to its first maximum in (i, j) order, as a per-window argmax does,
tied windows included. FGSM (gradient-only backward, shared first-layer
im2col) gives adversarial examples bit-identical to the full training
backward's, and ``loss_and_grads`` on a taped forward gives the training
mode's loss and dx bytes without a forward of its own. Every output is the
same, bit for bit, whatever the image stage's tile size and however many
threads run the tiles. The recorded backward's parameter gradients and dx
match central differences."""

import gc
import multiprocessing
import os
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import input_gradient
from mgepool import adversarial, evolution, generator, nn
from mgepool.evolution import EvolutionConfig
from mgepool.fitness import Criterion, FitnessConfig
from mgepool.generator import GeneratorConfig
from mgepool.nn import Activation, Conv, Dataset, Dense, Flatten, MaxPool, NetworkSpec

pytestmark = pytest.mark.byte_identity


@st.composite
def specs(draw, conv_first=False):
    """Small random nets: an image stage of conv, pool and activation layers
    (optional unless `conv_first`, which also makes a conv its first layer),
    then dense layers down to the classes."""
    classes = draw(st.integers(2, 4))
    layers = []
    if conv_first or draw(st.booleans()):
        shape = (draw(st.integers(1, 3)), draw(st.integers(4, 9)), draw(st.integers(4, 9)))
        input_shape = shape
        for i in range(draw(st.integers(1, 5))):
            c, h, w = shape
            options = ["conv", "act"] + [f"pool{k}" for k in (2, 3) if h % k == 0 and w % k == 0]
            kind = "conv" if conv_first and i == 0 else draw(st.sampled_from(options))
            if kind == "conv":
                k = draw(st.integers(1, min(3, h, w)))
                layer = Conv(c, draw(st.integers(1, 4)), k)
                shape = (layer.out_ch, h - k + 1, w - k + 1)
            elif kind == "act":
                layer = Activation(draw(st.sampled_from(["relu", "tanh"])))
            else:
                k = int(kind[-1])
                layer = MaxPool(k)
                shape = (c, h // k, w // k)
            layers.append(layer)
        layers.append(Flatten())
        width = int(np.prod(shape))
    else:
        width = draw(st.integers(1, 6))
        input_shape = (width,)
    if draw(st.booleans()):
        hidden = draw(st.integers(1, 6))
        layers += [Dense(width, hidden), Activation(draw(st.sampled_from(["relu", "tanh"])))]
        width = hidden
    layers.append(Dense(width, classes))
    return NetworkSpec(tuple(layers), input_shape, classes)


def random_params(spec, seed):
    params = nn.init_params(spec, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for e in params.entries:
        e.values += rng.normal(0.0, 0.3, e.values.size)
    return params


def random_features(spec, rows, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (rows, *spec.input_shape))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=specs(), rows=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_forward_matches_training_forward(spec, rows, seed):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    expected = nn._forward(spec, params, x, None, tape=True)[0]
    assert np.array_equal(nn.forward(spec, params, x), expected)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=specs(conv_first=True), rows=st.sampled_from([1, 37, 512, 513, 1100]),
       seed=st.integers(0, 2**16))
def test_first_layer_cache_changes_nothing(spec, rows, seed):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    expected = nn._forward(spec, params, x, None, tape=True)[0]
    # labels are the reference predictions, so any wrong batch row shows as accuracy < 1
    data = Dataset(x, expected.argmax(axis=1), spec.classes)
    ev = nn.EvalSet(data)
    assert (ev.first_cols(spec) is None) == (rows > nn.EVAL_BATCH)
    if rows <= nn.EVAL_BATCH:
        assert np.array_equal(nn.forward(spec, params, ev), expected)
    assert nn.evaluate_accuracy(spec, params, ev) == 1.0
    assert nn.evaluate_accuracy(spec, params, data) == 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=specs(), rows=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_gradient_only_backward_matches_full_backward(spec, rows, seed):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    _, grads, dx = nn.loss_and_grads(spec, params, x, y)
    assert len(grads) == len(params.entries)
    assert np.array_equal(input_gradient(spec, params, x, y), dx)
    ev = nn.EvalSet(Dataset(x, y, spec.classes))
    assert np.array_equal(input_gradient(spec, params, ev, y), dx)
    one = nn.loss_and_grads(spec, params, x[:1], y[:1])[2]
    assert np.array_equal(input_gradient(spec, params, x[:1], y[:1]), one)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=specs(), rows=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_taped_mode_matches_training_mode(spec, rows, seed):
    """``loss_and_grads`` handed a ``forward(..., tape=True)``, of an array or
    of an EvalSet, runs no forward of its own and forms no parameter gradient;
    its loss and dx are the training mode's bytes."""
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    loss, grads, dx = nn.loss_and_grads(spec, params, x, y)
    assert len(grads) == len(params.entries)
    for features in (x, nn.EvalSet(Dataset(x, y, spec.classes))):
        taped = nn.forward(spec, params, features, tape=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_forward", None)  # a forward here would fail
            t_loss, t_grads, t_dx = nn.loss_and_grads(spec, params, features, y, taped=taped)
        assert t_grads is None
        assert np.float64(t_loss).tobytes() == np.float64(loss).tobytes()
        assert (t_dx.shape, t_dx.tobytes()) == (dx.shape, dx.tobytes())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=specs(conv_first=True), rows=st.sampled_from([1, 37, 512, 513]),
       seed=st.integers(0, 2**16), eps=st.sampled_from([0.01, 0.1, 0.3]))
def test_fgsm_with_the_cache_matches_fgsm_without(spec, rows, seed, eps):
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    # labels are the clean predictions, so every example the attack flips counts
    y = nn.forward(spec, params, x).argmax(axis=1)
    ev = nn.EvalSet(Dataset(x, y, spec.classes))
    # without the cache: the full training backward on plain array batches
    correct, advs = 0, []
    for s in range(0, rows, nn.EVAL_BATCH):
        xb, yb = x[s:s + nn.EVAL_BATCH], y[s:s + nn.EVAL_BATCH]
        advs.append(np.clip(xb + eps * np.sign(nn.loss_and_grads(spec, params, xb, yb)[2]),
                            0.0, 1.0))
        correct += int((nn.forward(spec, params, advs[-1]).argmax(axis=1) == yb).sum())
    assert adversarial.robust_accuracy(spec, params, ev, eps) == correct / rows
    if rows <= nn.EVAL_BATCH:
        assert ev.first_cols(spec) is not None
        assert np.array_equal(adversarial.fgsm_batch(spec, params, ev, y, eps), advs[0])


def tied_features(spec, rows, seed):
    """Features drawn from {0, 0.5, 1} in blocks of 2 x 2 pixels, each image
    with one constant patch: equal input windows give equal conv outputs, so
    many pool windows hold several equal maxima."""
    rng = np.random.default_rng(seed)
    c, h, w = spec.input_shape
    blocks = rng.choice([0.0, 0.5, 1.0], (rows, c, (h + 1) // 2, (w + 1) // 2))
    x = blocks.repeat(2, axis=2).repeat(2, axis=3)[:, :, :h, :w]
    for img in x:
        top, left = rng.integers(0, h - 1), rng.integers(0, w - 1)
        img[:, top:top + rng.integers(2, h + 1), left:left + rng.integers(2, w + 1)] = \
            rng.choice([0.0, 0.5, 1.0])
    return x


def first_max_pool_backward(inputs):
    """A max-pool backward for ``nn._pool_backward``'s place: a loop over the
    windows of the pool input that ``inputs`` recorded last (NHWC), giving
    each window's dy to its first maximum in (i, j) order."""
    def backward(dy, _cache, k):
        x = inputs.pop().transpose(0, 3, 1, 2)
        dx = np.zeros(x.shape)
        for n, c, r, s in np.ndindex(dy.shape):
            i, j = divmod(int(np.argmax(x[n, c, r * k:r * k + k, s * k:s * k + k])), k)
            dx[n, c, r * k + i, s * k + j] = dy[n, c, r, s]
        return dx
    return backward


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=specs(conv_first=True), rows=st.integers(1, 6), seed=st.integers(0, 2**16))
@example(spec=NetworkSpec((Conv(1, 2, 3), Activation("relu"), MaxPool(2), Conv(2, 3, 1),
                           Activation("tanh"), MaxPool(3), Flatten(), Dense(12, 2)),
                          (1, 14, 14), 2), rows=4, seed=0)
def test_pool_backward_routes_to_the_first_maximum(spec, rows, seed):
    """Against a per-window loop, on features with many tied windows; the
    one fixed example has a 2 x 2 and a 3 x 3 pool."""
    params = random_params(spec, seed)
    x = tied_features(spec, rows, seed)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    _, grads, dx = nn.loss_and_grads(spec, params, x, y)
    inputs, pool = [], nn._pool_nhwc

    def recording_pool(a, k):
        inputs.append(a)
        return pool(a, k)

    # training's image stage is one tile on the calling thread: pools run in
    # order in the forward and in reverse in the backward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_pool_nhwc", recording_pool)
        mp.setattr(nn, "_pool_backward", first_max_pool_backward(inputs))
        _, ref_grads, ref_dx = nn.loss_and_grads(spec, params, x, y)
    assert not inputs
    assert np.array_equal(dx, ref_dx)
    for got, expected in zip(grads, ref_grads, strict=True):
        assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(), specs(conv_first=True)), rows=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@example(spec=NetworkSpec((Conv(1, 2, 3), Activation("relu"), MaxPool(2), Conv(2, 3, 1),
                           Activation("tanh"), MaxPool(3), Flatten(), Dense(12, 2)),
                          (1, 14, 14), 2), rows=2, seed=0)
def test_recorded_backward_matches_central_differences(spec, rows, seed):
    """Parameter gradients and dx against central differences of the
    inference forward's loss, at a few sampled coordinates of every entry and
    of the input. Comparing one mode with another cannot catch a recorded
    backward bound to the wrong layer's values, since training and FGSM
    would share it; the fixed example has two pools and a tanh."""
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    _, grads, dx = nn.loss_and_grads(spec, params, x, y)
    rng = np.random.default_rng(seed + 3)
    h = 1e-6

    def central_difference(values, i):
        orig = values[i]
        losses = []
        for step in (h, -h):
            values[i] = orig + step
            losses.append(nn.cross_entropy(nn.forward(spec, params, x), y))
        values[i] = orig
        return (losses[0] - losses[1]) / (2 * h)

    for values, grad in [(e.values, g) for e, g in zip(params.entries, grads)] + \
            [(x.reshape(-1), dx.reshape(-1))]:
        for i in rng.choice(values.size, min(3, values.size), replace=False):
            assert np.isclose(grad[i], central_difference(values, i), rtol=1e-4, atol=1e-7)


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the tasks handed to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


def with_tile_rows(tile, fn):
    """fn() with the image stage run on tiles of ``tile`` rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "TILE_ROWS", tile)
        return fn()


def on_private_pool(workers, fn):
    """fn() with the image stage's tiles run on a private pool of ``workers``
    threads, switching threads as often as the interpreter allows; returns
    fn()'s result and the pool."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingPool(workers) as pool, pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn._tile_pool, "executor", pool)
            return fn(), pool
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("conv_first", [False, True])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.integers(1, 80), seed=st.integers(0, 2**16))
def test_outputs_do_not_depend_on_the_tile_size(conv_first, data, rows, seed):
    """... nor on how many threads run the tiles: one, or more than the
    host's CPUs, with many tiles in flight at once."""
    spec = data.draw(specs(conv_first=conv_first))
    params = random_params(spec, seed)
    x = random_features(spec, rows, seed)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    ev = nn.EvalSet(Dataset(x, y, spec.classes))

    def outputs():
        loss, grads, dx = nn.loss_and_grads(spec, params, x, y)
        return [nn.forward(spec, params, x), nn.forward(spec, params, ev),
                input_gradient(spec, params, x, y), input_gradient(spec, params, ev, y),
                adversarial.fgsm_batch(spec, params, ev, y, 0.1), loss, dx, *grads]

    whole = with_tile_rows(rows, outputs)
    assert np.array_equal(whole[2], whole[6])  # FGSM's dx is training's dx
    for tile in (1, 2, 3, 7, rows + 5):
        for got, expected in zip(with_tile_rows(tile, outputs), whole, strict=True):
            assert np.array_equal(got, expected)
    for workers in (1, 4):
        outs, pool = with_tile_rows(2, lambda: on_private_pool(workers, outputs))
        for got, expected in zip(outs, whole, strict=True):
            assert np.array_equal(got, expected)
        # several tiles go to the pool; a single tile runs on the calling thread
        assert (pool.tasks > 0) == (nn._image_stage_len(spec) > 0 and rows > 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_the_image_stage_on_its_own_threads():
    spec = nn.lenet_like(10)
    params = random_params(spec, 0)
    x = random_features(spec, 4 * nn.TILE_ROWS + 5, 0)
    # labels are the parent's predictions, so any wrong row in the child shows
    data = Dataset(x, nn.forward(spec, params, x).argmax(axis=1), spec.classes)
    assert nn.evaluate_accuracy(spec, params, data) == 1.0  # the parent's pool has threads
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=lambda: results.put(nn.evaluate_accuracy(spec, params, data)))
    child.start()
    try:
        assert results.get(timeout=60) == 1.0
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        child.kill()


def test_first_layer_cols_only_for_a_leading_conv():
    spec = nn.mlp([3, 4, 2])
    assert nn.first_layer_cols(spec, np.zeros((5, 3))) is None


def small_conv():
    return NetworkSpec((Conv(1, 2, 3), Activation("relu"), MaxPool(2), Flatten(), Dense(8, 2)),
                       (1, 6, 6), 2)


def record_first_layer_cols(monkeypatch):
    """Wrap nn.first_layer_cols; returns weak references to every im2col it builds."""
    refs = []
    original = nn.first_layer_cols

    def recording(spec, features):
        cols = original(spec, features)
        if cols is not None:
            refs.append(weakref.ref(cols))
        return cols

    monkeypatch.setattr(nn, "first_layer_cols", recording)
    return refs


@pytest.mark.parametrize("rows, built", [(512, True), (513, False)])
def test_generate_pool_cache_is_bounded_and_freed(rows, built, monkeypatch):
    spec = small_conv()
    params = random_params(spec, 0)
    data = Dataset(random_features(spec, rows, 1), np.arange(rows) % 2, 2)
    refs = record_first_layer_cols(monkeypatch)
    pool = generator.generate_pool(params, spec, GeneratorConfig(t=1.0, attempts=1), data, 2)
    assert len(pool.candidates) == 2
    assert len(refs) == int(built)
    gc.collect()
    assert all(r() is None for r in refs)


def test_evolve_builds_one_first_layer_cache_and_frees_it(monkeypatch):
    spec = small_conv()
    params = random_params(spec, 0)
    data = Dataset(random_features(spec, 40, 1), np.arange(40) % 2, 2)
    refs = record_first_layer_cols(monkeypatch)
    fit = FitnessConfig(Criterion("accuracy", data),
                        Criterion("robust_accuracy", data, attack_eps=0.1))
    ecfg = EvolutionConfig(generations=2, parents=2, mutations=2, fusions=2)
    best, history = evolution.evolve(params, spec, GeneratorConfig(t=1.0, attempts=1), ecfg,
                                     fit, data)
    assert len(history) == 3 and best.f_d is not None
    assert len(refs) == 1
    gc.collect()
    assert refs[0]() is None
