"""Byte oracle for the attack inside the tiles. ``fgsm_batch`` steps each
image-stage tile's rows on that tile's worker, and ``robust_accuracy`` also
runs the stepped rows' image stage there and the vector stage once. Both
are checked, byte for byte, against the two-pass composition they replaced:
the joined input gradient, then the step on the whole batch, then
``nn.forward`` of the stepped batch. The logits ``robust_accuracy`` counts
are caught where it counts them, so a vector stage run per tile, which BLAS
rounds by its row count, shows even where no prediction changes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgepool import adversarial, nn
from mgepool.errors import InvalidInputError
from mgepool.nn import Dataset
from test_inference import random_params, specs, tied_features
from test_recording import mlps, same_bytes

pytestmark = pytest.mark.byte_identity

EPS = [0.0, 0.01, 0.1, 0.3]


def reference_fgsm(spec, params, x, labels, eps, targets=None):
    """The two-pass attack's step: training's joined input gradient of the
    array ``x``, then the signed step on the whole batch, clipped."""
    g = nn.loss_and_grads(spec, params, x, labels if targets is None else targets)[2]
    perturbed = x + eps * np.sign(g) if targets is None else x - eps * np.sign(g)
    return np.clip(perturbed, 0.0, 1.0)


def reference_robust(spec, params, x, y, eps):
    """The two-pass robust accuracy of the rows ``x`` and the logits it
    counts, one array per ``EVAL_BATCH`` rows: each batch stepped by
    ``reference_fgsm``, then ``nn.forward`` of the stepped batch."""
    correct, logits = 0, []
    for s in range(0, len(x), nn.EVAL_BATCH):
        xb, yb = x[s:s + nn.EVAL_BATCH], y[s:s + nn.EVAL_BATCH]
        logits.append(nn.forward(spec, params, reference_fgsm(spec, params, xb, yb, eps)))
        correct += nn.n_correct(logits[-1], yb)
    return correct / len(x), logits


def counted_logits(monkeypatch):
    """Wrap the ``n_correct`` that ``robust_accuracy`` counts with; returns
    the list of logits it is handed."""
    seen = []
    count = adversarial.n_correct
    monkeypatch.setattr(adversarial, "n_correct", lambda logits, y: seen.append(logits)
                        or count(logits, y))
    return seen


def features(spec, rows, seed, tied):
    rng = np.random.default_rng(seed)
    if tied and len(spec.input_shape) == 3:
        return tied_features(spec, rows, seed)
    if tied:  # on and off the clip's edges
        return rng.choice([0.0, 0.02, 0.5, 0.99, 1.0], (rows, *spec.input_shape))
    return rng.uniform(0.0, 1.0, (rows, *spec.input_shape))


def check_attack(spec, params, x, y, eps):
    """fgsm_batch (untargeted and targeted) on the array, on a bare
    Dataset's rows and on an EvalSet, and robust_accuracy on a Dataset and
    on an EvalSet, against the two-pass reference."""
    targets = (y + 1) % spec.classes
    data = Dataset(x, y, spec.classes)
    for t in (None, targets):
        want = reference_fgsm(spec, params, x, y, eps, t)
        for batch in (x, data.features, nn.EvalSet(data)):
            assert same_bytes(adversarial.fgsm_batch(spec, params, batch, y, eps, t), want)
    accuracy, want_logits = reference_robust(spec, params, x, y, eps)
    for given_set in (data, nn.EvalSet(data)):
        with pytest.MonkeyPatch.context() as mp:
            seen = counted_logits(mp)
            assert adversarial.robust_accuracy(spec, params, given_set, eps) == accuracy
        assert len(seen) == len(want_logits)
        for got, want in zip(seen, want_logits):
            assert same_bytes(got, want)


LENET = nn.lenet_like(10)


@pytest.mark.parametrize("tile", [nn.TILE_ROWS, 7])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(), specs(conv_first=True), mlps()), rows=st.integers(1, 80),
       seed=st.integers(0, 2**16), tied=st.booleans(), eps=st.sampled_from(EPS))
@example(spec=LENET, rows=100, seed=0, tied=True, eps=0.1)
@example(spec=LENET, rows=33, seed=1, tied=False, eps=0.3)
def test_the_attack_in_the_tiles_is_the_two_pass_attack(tile, spec, rows, seed, tied, eps):
    """On the default tiles and on tiles of 7 rows. BLAS blocks a dense
    product's rows in 16s, so 32-row tiles share its blocks and only a
    1-row tile (33 rows) rounds apart; 7-row tiles round apart at once."""
    params = random_params(spec, seed)
    x = features(spec, rows, seed, tied)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "TILE_ROWS", tile)
        check_attack(spec, params, x, y, eps)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(conv_first=True), mlps()), extra=st.integers(1, 100),
       seed=st.integers(0, 2**16), eps=st.sampled_from(EPS[1:]))
def test_a_set_of_more_than_one_batch(spec, extra, seed, eps):
    rows = nn.EVAL_BATCH + extra
    params = random_params(spec, seed)
    x = features(spec, rows, seed, False)
    y = np.random.default_rng(seed + 2).integers(0, spec.classes, rows)
    check_attack(spec, params, x, y, eps)


def test_the_fixed_examples_step_from_exact_zeros():
    """The LeNet examples above hold exact zeros in dx (windows that are
    not a pool's maximum, units a ReLU shuts), where the step is 0, and
    row counts that are not a multiple of the tile; the tied one also steps
    onto both edges of the clip."""
    params = random_params(LENET, 0)
    x = features(LENET, 100, 0, True)
    y = np.random.default_rng(2).integers(0, 10, 100)
    g = nn.loss_and_grads(LENET, params, x, y)[2]
    assert (g == 0).any() and (g != 0).any()
    adv = adversarial.fgsm_batch(LENET, params, x, y, 0.1)
    assert (adv == 0.0).any() and (adv == 1.0).any()


def test_a_non_finite_step_is_refused_as_forward_refuses_it(monkeypatch):
    """The stepped rows enter the image stage checked as ``forward`` checks
    a batch: a gradient with a NaN gives the same error it gave there."""
    spec = LENET
    params = random_params(spec, 0)
    x = features(spec, 40, 0, False)
    y = np.arange(40) % 10
    step = adversarial._step
    monkeypatch.setattr(adversarial, "_step",
                        lambda x, g, out, **kw: step(x, g * np.nan, out, **kw))
    with pytest.raises(InvalidInputError, match="non-finite feature"):
        adversarial.robust_accuracy(spec, params, Dataset(x, y, 10), 0.1)
