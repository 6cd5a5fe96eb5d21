"""Property tests: a Recording, one parameter set's recording forward over an
EvalSet, changes no number. Admission's accuracy and the fitness that
``generator.score`` assigns from it equal ``criterion_score`` on the float32
parameters; FGSM from its recorded backward gives the same adversarial
examples, byte for byte, as on the plain EvalSet and on a bare array; it
serves only parameters equal to the recorded ones by value, and gives any
other parameters their own result; a set of more than ``EVAL_BATCH`` rows is
not recorded and scores as it always did."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgepool import adversarial, generator, nn
from mgepool.fitness import Criterion, FitnessConfig, criterion_score
from mgepool.generator import GeneratorConfig
from mgepool.nn import Dataset
from test_inference import random_features, random_params, specs


@st.composite
def mlps(draw):
    """Dense nets of one to three layers, 2 to 4 classes."""
    dims = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    return nn.mlp([*dims, draw(st.integers(2, 4))])


any_spec = st.one_of(specs(), specs(conv_first=True), mlps())

# (base, extra) criterion kinds; the last runs FGSM twice, so the second
# attack finds the recorded backward taken and runs its own
FITS = [("accuracy", "robust_accuracy"), ("robust_accuracy", None),
        ("robust_accuracy", "accuracy"), ("robust_accuracy", "robust_accuracy")]


def fitness(kinds, data, eps):
    crits = [None if k is None else Criterion(k, data, eps if k == "robust_accuracy" else None)
             for k in kinds]
    # a second attack runs at another strength, so it is not the same criterion
    if crits[1] is not None and crits[1] == crits[0]:
        crits[1] = Criterion(kinds[1], data, 2 * eps)
    return FitnessConfig(*crits, gamma=1.5)


def labelled(spec, rows, seed):
    x = random_features(spec, rows, seed)
    return x, np.random.default_rng(seed + 2).integers(0, spec.classes, rows)


def clean_passes(monkeypatch, features):
    """Wrap nn._forward; returns the list of ``tape`` flags of its calls on
    ``features`` itself (an EvalSet's rows reach it as that very array)."""
    seen = []
    original = nn._forward

    def spy(spec, params, x, *args, **kwargs):
        if x is features:
            seen.append(kwargs.get("tape", args[1] if len(args) > 1 else False))
        return original(spec, params, x, *args, **kwargs)

    monkeypatch.setattr(nn, "_forward", spy)
    return seen


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=any_spec, rows=st.integers(1, 40), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]), kinds=st.sampled_from(FITS))
def test_fitness_from_a_recording_is_criterion_score(spec, rows, seed, eps, kinds):
    params = random_params(spec, seed)
    x, y = labelled(spec, rows, seed)
    data = Dataset(x, y, spec.classes)
    fit = fitness(kinds, data, eps)
    with pytest.MonkeyPatch.context() as mp:
        passes = clean_passes(mp, data.features)
        cand = generator.score(params, spec, nn.EvalSet(data), -1.0, GeneratorConfig(), fit=fit)
    assert cand.accepted
    # one recording forward; only a second attack runs a forward of its own
    assert passes == [True] * (1 + (kinds == FITS[-1]))
    p = params.as_float32()
    assert cand.accuracy == nn.evaluate_accuracy(spec, p, data)
    f_q = criterion_score(spec, p, fit.base)
    f_d = 0.0 if fit.extra is None else criterion_score(spec, p, fit.extra)
    assert (cand.f_q, cand.f_d, cand.f) == (f_q, f_d, f_q + fit.gamma * f_d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=any_spec, rows=st.integers(1, 40), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]))
def test_fgsm_from_a_recording_is_fgsm(spec, rows, seed, eps):
    params = random_params(spec, seed)
    x, y = labelled(spec, rows, seed)
    ev = nn.EvalSet(Dataset(x, y, spec.classes))
    targets = (y + 1) % spec.classes
    expected = [adversarial.fgsm_batch(spec, params, x, y, eps),
                adversarial.fgsm_batch(spec, params, x, y, eps, targets=targets)]
    assert same_bytes(adversarial.fgsm_batch(spec, params, ev, y, eps), expected[0])
    for i, t in enumerate((None, targets)):
        rec = nn.Recording(spec, params, ev)
        assert same_bytes(nn.forward(spec, params, rec), nn.forward(spec, params, x))
        with pytest.MonkeyPatch.context() as mp:
            passes = clean_passes(mp, ev.dataset.features)
            assert same_bytes(adversarial.fgsm_batch(spec, params, rec, y, eps, targets=t),
                              expected[i])
        assert passes == []  # the recorded backward, no forward of its own
        # taken once; a second attack runs its own forward and agrees
        assert rec.take(spec, params) is None
        assert same_bytes(adversarial.fgsm_batch(spec, params, rec, y, eps, targets=t),
                          expected[i])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=any_spec, rows=st.integers(1, 40), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]))
def test_a_recording_serves_only_its_own_parameters(spec, rows, seed, eps):
    a, b = random_params(spec, seed), random_params(spec, seed + 7)
    x, y = labelled(spec, rows, seed)
    data = Dataset(x, y, spec.classes)
    rec = nn.Recording(spec, a, nn.EvalSet(data))
    assert same_bytes(nn.forward(spec, b, rec), nn.forward(spec, b, x))
    assert nn.evaluate_accuracy(spec, b, rec) == nn.evaluate_accuracy(spec, b, data)
    assert adversarial.robust_accuracy(spec, b, rec, eps) == \
        adversarial.robust_accuracy(spec, b, data, eps)
    assert same_bytes(adversarial.fgsm_batch(spec, b, rec, y, eps),
                      adversarial.fgsm_batch(spec, b, x, y, eps))
    # equal by value, not by identity: a copy is served, a changed set is not
    off = a.copy()
    off.flat[-1] = np.nextafter(off.flat[-1], np.inf)
    assert rec.of(spec, a.copy()) and not rec.of(spec, off)
    a.flat[0] += 1.0
    assert not rec.of(spec, a)
    assert same_bytes(nn.forward(spec, a, rec), nn.forward(spec, a, x))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(conv_first=True), mlps()), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]), kinds=st.sampled_from(FITS))
def test_a_set_of_more_than_one_batch_is_not_recorded(spec, seed, eps, kinds):
    rows = nn.EVAL_BATCH + 1
    params = random_params(spec, seed)
    x, y = labelled(spec, rows, seed)
    data = Dataset(x, y, spec.classes)
    ev = nn.EvalSet(data)
    p = params.as_float32()
    assert nn.record(spec, p, ev) is ev
    fit = fitness(kinds, data, eps)
    cand = generator.score(params, spec, ev, -1.0, GeneratorConfig(), fit=fit)
    assert cand.accuracy == nn.evaluate_accuracy(spec, p, data)
    f_q = criterion_score(spec, p, fit.base)
    f_d = 0.0 if fit.extra is None else criterion_score(spec, p, fit.extra)
    assert (cand.f_q, cand.f_d, cand.f) == (f_q, f_d, f_q + fit.gamma * f_d)
