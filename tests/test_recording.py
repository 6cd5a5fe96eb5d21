"""Property tests: the taped admission pass changes no number.
``generator.score`` tapes the float32 copy's forward over the validation
rows (``nn.forward(..., tape=True)``) when a fitness criterion runs FGSM on
them, and hands the ``(logits, back)`` to that criterion. Admission's
accuracy and the fitness it assigns equal ``criterion_score`` on the float32
parameters; FGSM from a handed-over pass gives the same adversarial examples,
byte for byte, as on the plain EvalSet and on a bare array; each candidate is
scored on its own pass; a set of more than ``EVAL_BATCH`` rows is not taped
and scores as it always did; and ``evolve`` gives the same run, bit for bit,
whether its criteria reuse the admission pass or run their own."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgepool import adversarial, evolution, generator, nn
from mgepool.evolution import EvolutionConfig, evolve
from mgepool.fitness import Criterion, FitnessConfig, criterion_score
from mgepool.generator import GeneratorConfig
from mgepool.nn import Dataset
from test_inference import random_features, random_params, specs

pytestmark = pytest.mark.byte_identity


@st.composite
def mlps(draw):
    """Dense nets of one to three layers, 2 to 4 classes."""
    dims = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    return nn.mlp([*dims, draw(st.integers(2, 4))])


any_spec = st.one_of(specs(), specs(conv_first=True), mlps())

# (base, extra) criterion kinds; the last runs FGSM twice, both from one pass
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


def assert_scored_as_criterion_score(cand, spec, params, data, fit):
    p = params.as_float32()
    assert cand.accuracy == nn.evaluate_accuracy(spec, p, data)
    f_q = criterion_score(spec, p, fit.base)
    f_d = 0.0 if fit.extra is None else criterion_score(spec, p, fit.extra)
    assert (cand.f_q, cand.f_d, cand.f) == (f_q, f_d, f_q + fit.gamma * f_d)


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
    # one taped pass, which every FGSM criterion on the rows reuses
    assert passes == [True]
    assert_scored_as_criterion_score(cand, spec, params, data, fit)
    # a bare Dataset is taped on its one batch, with the same numbers
    bare = generator.score(params, spec, data, -1.0, GeneratorConfig(), fit=fit)
    assert (bare.accuracy, bare.f_q, bare.f_d, bare.f) == \
        (cand.accuracy, cand.f_q, cand.f_d, cand.f)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=any_spec, rows=st.integers(1, 40), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]), kind=st.sampled_from(FITS[0] + FITS[1][:1]))
def test_a_criterion_on_other_rows_runs_its_own_pass(spec, rows, seed, eps, kind):
    """With FGSM on the validation rows, a criterion on other rows of the
    same shape still scores those rows, with its own pass."""
    params = random_params(spec, seed)
    data = Dataset(*labelled(spec, rows, seed), spec.classes)
    other = Dataset(*labelled(spec, rows, seed + 1), spec.classes)
    fit = FitnessConfig(Criterion("robust_accuracy", data, eps),
                        Criterion(kind, nn.EvalSet(other),
                                  eps if kind == "robust_accuracy" else None))
    with pytest.MonkeyPatch.context() as mp:
        passes = clean_passes(mp, other.features)
        cand = generator.score(params, spec, nn.EvalSet(data), -1.0, GeneratorConfig(), fit=fit)
    assert passes == [kind == "robust_accuracy"]  # FGSM's is taped, accuracy's is not
    assert_scored_as_criterion_score(cand, spec, params, data, fit)


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
    logits, back = nn.forward(spec, params, ev, tape=True)
    assert same_bytes(logits, nn.forward(spec, params, x))
    for _ in range(2):  # ``back`` changes nothing it reads, so it serves again
        for t, want in zip((None, targets), expected):
            with pytest.MonkeyPatch.context() as mp:
                passes = clean_passes(mp, ev.dataset.features)
                got = adversarial.fgsm_batch(spec, params, ev, y, eps, targets=t,
                                             taped=(logits, back))
            assert passes == []  # the handed-over backward, no forward of its own
            assert same_bytes(got, want)
    assert same_bytes(adversarial.fgsm_batch(spec, params, x, y, eps, taped=(logits, back)),
                      expected[0])
    assert adversarial.robust_accuracy(spec, params, ev, eps, taped=(logits, back)) == \
        adversarial.robust_accuracy(spec, params, ev.dataset, eps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=any_spec, rows=st.integers(1, 40), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]), kinds=st.sampled_from(FITS))
def test_a_recording_serves_only_its_own_parameters(spec, rows, seed, eps, kinds):
    """Candidates scored one after another on one EvalSet each get their own
    numbers, down to a change of one ulp in the last parameter."""
    a = random_params(spec, seed)
    off = a.copy()
    off.flat[-1] = np.nextafter(np.float32(off.flat[-1]), np.float32(np.inf))
    x, y = labelled(spec, rows, seed)
    data = Dataset(x, y, spec.classes)
    ev, fit = nn.EvalSet(data), fitness(kinds, data, eps)
    for params in (a, random_params(spec, seed + 7), off, a.copy()):
        cand = generator.score(params, spec, ev, -1.0, GeneratorConfig(), fit=fit)
        assert_scored_as_criterion_score(cand, spec, params, data, fit)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(spec=st.one_of(specs(conv_first=True), mlps()), seed=st.integers(0, 2**16),
       eps=st.sampled_from([0.01, 0.1, 0.3]), kinds=st.sampled_from(FITS))
def test_a_set_of_more_than_one_batch_is_not_recorded(spec, seed, eps, kinds):
    rows = nn.EVAL_BATCH + 1
    params = random_params(spec, seed)
    x, y = labelled(spec, rows, seed)
    data = Dataset(x, y, spec.classes)
    fit = fitness(kinds, data, eps)
    taped = []
    with pytest.MonkeyPatch.context() as mp:
        forward = generator.forward
        mp.setattr(generator, "forward", lambda *a, **k: taped.append(k) or forward(*a, **k))
        cand = generator.score(params, spec, nn.EvalSet(data), -1.0, GeneratorConfig(), fit=fit)
    assert taped == []
    assert_scored_as_criterion_score(cand, spec, params, data, fit)


def test_accuracy_is_scored_once_per_admitted_model(desk, monkeypatch):
    """An accuracy criterion on the validation set itself reuses the
    accuracy ``score`` measured, and an FGSM criterion on it the taped
    admission pass; on an equal copy of that set each runs a pass of its
    own over the rows. Every output is the same, bit for bit."""
    val = desk.splits["val"]
    copy = Dataset(val.features, val.labels, val.classes)
    passes, admitted = [], []
    forward, score = nn._forward, generator.score

    def counting_forward(spec, params, x, *args, **kwargs):
        if x.shape == val.features.shape and np.array_equal(x, val.features):
            passes.append(1)
        return forward(spec, params, x, *args, **kwargs)

    def counting_score(*args, **kwargs):
        cand = score(*args, **kwargs)
        admitted.extend([cand] if cand.accepted else [])
        return cand

    monkeypatch.setattr(nn, "_forward", counting_forward)
    monkeypatch.setattr(generator, "score", counting_score)  # generate_pool's
    monkeypatch.setattr(evolution, "score", counting_score)
    ecfg = EvolutionConfig(generations=5, parents=4, mutations=4, fusions=6, seed=12)
    runs = []
    for data in (val, copy):
        passes.clear()
        admitted.clear()
        fit = FitnessConfig(Criterion("accuracy", data),
                            Criterion("robust_accuracy", data, attack_eps=0.1))
        best, history = evolve(desk.base, desk.spec, GeneratorConfig(seed=63), ecfg, fit, val)
        runs.append((best, [asdict(h) for h in history], len(passes), len(admitted)))
    (best, history, calls, n), (best2, history2, calls2, n2) = runs
    assert history == history2
    assert (best.cand_id, best.accuracy, best.f_q, best.f_d, best.f) == \
        (best2.cand_id, best2.accuracy, best2.f_q, best2.f_d, best2.f)
    f32 = [b.params.flat.astype("<f4").tobytes() for b in (best, best2)]
    assert f32[0] == f32[1]
    assert n == n2 > ecfg.parents
    # on the copy, each admitted model's accuracy and FGSM forward run again
    assert calls2 - calls == 2 * n
