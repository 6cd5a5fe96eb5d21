"""Sequential oracle for ``generate_pool``, which draws the attempts certain
to follow attempt i on the tile pool while attempt i is scored, at most two
per pool worker: the pool it returns must be the one a plain loop of
``score(spectrum.sample(...))`` over the streams ``root.child(i)`` gives, in
accept decisions, accuracies, attempt count, fitness and float32 bytes, and
no draw may outlive the call. One net is an MLP (no image stage), the other
a small conv net, whose tiles share the pool with the draws."""

import time

import numpy as np
import pytest

from mgepool import generator, nn
from mgepool.errors import GenerationFailedError
from mgepool.fitness import Criterion, FitnessConfig
from mgepool.generator import GeneratorConfig, Spectrum, generate_pool
from mgepool.nn import Activation, Conv, Dataset, Dense, Flatten, MaxPool, NetworkSpec
from mgepool.transforms import RngStream

pytestmark = pytest.mark.byte_identity


def sequential_pool(base, spec, cfg, valset, count, fit=None):
    """(every candidate in attempt order, attempts) of ``generate_pool``'s
    loop run one attempt after another: ``spectrum.sample``, then ``score``."""
    spectrum = Spectrum(base, cfg.t)
    base_acc = nn.evaluate_accuracy(spec, base.as_float32(), valset)
    root = RngStream(cfg.seed)
    cands, accepted, consecutive, z = [], 0, 0, cfg.z
    while accepted < count and len(cands) < cfg.attempts * count:
        attempt = len(cands)
        cand = generator.score(spectrum.sample(root.child(attempt).generator(), z),
                               spec, valset, base_acc, cfg, fit=fit, seed=attempt)
        cands.append(cand)
        if cand.accepted:
            accepted += 1
            consecutive = 0
        else:
            consecutive += 1
            if cfg.adaptive_z and consecutive % 10 == 0:
                z = max(z / 2.0, 1e-6)
    return cands, len(cands)


def f32_bytes(params):
    return params.flat.astype("<f4").tobytes()


def record(cand):
    return (cand.seed, cand.accuracy, cand.accepted, cand.f_q, cand.f_d, cand.f,
            f32_bytes(cand.params))


def window():
    """The most draws ``generate_pool`` holds ahead: one running and one
    queued per pool worker."""
    return 2 * nn._tile_pool.workers()


def drawn_ahead(decisions, count, budget, adaptive_z=False):
    """How many draws ``generate_pool`` submits to the pool over the first
    len(decisions) attempts, the i-th deciding ``decisions[i]``: its window
    rule, replayed. Attempt a + d is drawn while attempt a is scored if it
    is certain to run with a z known now."""
    drawn, held, accepted, consecutive = 0, 0, 0, 0
    for a, decision in enumerate(decisions):
        held = max(held - 1, 0)  # attempt a takes its draw, if it was drawn ahead
        while (held < window() and accepted + held + 1 < count and a + held + 1 < budget
               and not (adaptive_z and (consecutive + held + 1) % 10 == 0)):
            held, drawn = held + 1, drawn + 1
        accepted, consecutive = accepted + bool(decision), 0 if decision else consecutive + 1
    return drawn


def both(net, cfg, count, monkeypatch, fit=None, decisions=None, held=None):
    """(generate_pool's outcome, the oracle's): each is (attempts, the
    accepted candidates' records) or ("failed", attempts). ``decisions``
    forces the i-th accept decision of each run. ``generate_pool`` must
    draw once per attempt: no draw ahead is thrown away. At each draw it
    submits, it may hold no more than ``window()`` draws not yet taken;
    ``held``, a list, gets that count at each submit."""
    draws, sample, submit = [], Spectrum.sample, nn._tile_pool.submit
    held = [] if held is None else held
    pending = set()

    def counted(self, *args, **kwargs):
        draws.append(1)
        return sample(self, *args, **kwargs)

    def spy(fn, *args, **kwargs):
        future = submit(fn, *args, **kwargs)
        if isinstance(getattr(fn, "__self__", None), Spectrum):  # a draw, not a tile
            pending.add(future)
            held.append(len(pending))
            result = future.result

            def taken(*args, **kwargs):
                pending.discard(future)
                return result(*args, **kwargs)

            future.result = taken
        return future

    def run(fn):
        if decisions is not None:
            decide = iter(decisions)
            monkeypatch.setattr(generator, "accept", lambda *args: next(decide))
        try:
            return fn()
        except GenerationFailedError as exc:
            assert fn is oracle or len(draws) == exc.attempts
            return ("failed", exc.attempts)

    def pooled():
        monkeypatch.setattr(Spectrum, "sample", counted)
        monkeypatch.setattr(nn._tile_pool, "submit", spy)
        pool = generate_pool(net.base, net.spec, cfg, net.val, count, fit=fit)
        assert [c.cand_id for c in pool.candidates] == list(range(len(pool.candidates)))
        assert len(draws) == pool.attempts
        assert max(held, default=0) <= window() and not pending
        return pool.attempts, [record(c) for c in pool.candidates]

    def oracle():
        cands, attempts = sequential_pool(net.base, net.spec, cfg, nn.eval_set(net.val),
                                          count, fit)
        if not any(c.accepted for c in cands):
            raise GenerationFailedError("none", attempts)
        return attempts, [record(c) for c in cands if c.accepted]

    outcome = run(pooled)
    monkeypatch.setattr(Spectrum, "sample", sample)
    monkeypatch.setattr(nn._tile_pool, "submit", submit)
    return outcome, run(oracle)


class Net:
    """A trained base, its validation set, and GeneratorConfig settings
    (``mixed``) under which its attempts are both accepted and rejected."""

    def __init__(self, spec, val, epochs, mixed):
        self.spec, self.val, self.mixed = spec, val, mixed
        self.base, _ = nn.train(spec, val, nn.TrainConfig(epochs=epochs, learning_rate=0.01,
                                                           seed=3))


@pytest.fixture(scope="module", params=["mlp", "conv"])
def net(request):
    if request.param == "mlp":
        val = nn.make_synthetic("blobs", 90, 3, seed=1, noise=0.12)
        return Net(nn.mlp([2, 48, 3]), val, 30, {"t": 0.9, "z": 0.05, "epsilon": 0.075})
    # 70 rows: three image-stage tiles of 32 rows run on the pool
    rng = np.random.default_rng(2)
    labels = np.arange(70) % 3
    images = rng.uniform(0.0, 0.3, (70, 1, 8, 8))
    for c in range(3):
        images[labels == c, 0, 2 * c:2 * c + 3, :] += 0.6
    spec = NetworkSpec((Conv(1, 4, 3), Activation("relu"), MaxPool(2), Flatten(),
                        Dense(36, 3)), (1, 8, 8), 3)
    return Net(spec, Dataset(images, labels, 3), 20, {"t": 0.1, "z": 0.2, "epsilon": 0.6})


def fitness(net):
    return FitnessConfig(Criterion("accuracy", net.val),
                         Criterion("robust_accuracy", net.val, 0.05), 1.0)


class TestSequentialOracle:
    @pytest.mark.parametrize("count", [1, 3])
    def test_pool_equals_a_plain_loop(self, net, count, monkeypatch):
        cfg = GeneratorConfig(attempts=4, seed=11, **net.mixed)
        pooled, oracle = both(net, cfg, count, monkeypatch)
        assert pooled == oracle

    def test_some_attempts_are_rejected(self, net, monkeypatch):
        """The decisions above are not all one way."""
        cfg = GeneratorConfig(attempts=4, seed=11, **net.mixed)
        attempts, accepted = both(net, cfg, 3, monkeypatch)[0]
        assert 3 == len(accepted) < attempts

    def test_with_fitness(self, net, monkeypatch):
        cfg = GeneratorConfig(attempts=4, seed=12, **net.mixed)
        pooled, oracle = both(net, cfg, 3, monkeypatch, fit=fitness(net))
        assert pooled == oracle
        assert all(r[5] is not None for r in pooled[1])

    def test_adaptive_z_with_forced_rejections(self, net, monkeypatch):
        decisions = [False] * 19 + [True] + [False] * 9 + [True] + [False] * 30 + [True]
        cfg = GeneratorConfig(t=0.9, z=0.2, attempts=30, adaptive_z=True, seed=13)
        pooled, oracle = both(net, cfg, 3, monkeypatch, decisions=decisions)
        assert pooled == oracle and pooled[0] == len(decisions)

    def test_the_whole_window_opens(self, net, monkeypatch):
        """With 8 wanted and a wide budget, the first attempt draws
        min(window(), 7) attempts ahead, and the pool is still the loop's."""
        decisions = [True, False, True, True, False, False, True, True, False, True, True, True]
        cfg = GeneratorConfig(attempts=4, seed=16, **net.mixed)
        held = []
        pooled, oracle = both(net, cfg, 8, monkeypatch, decisions=decisions, held=held)
        assert pooled == oracle and pooled[0] == len(decisions)
        assert max(held) == min(window(), 7)
        assert len(held) == drawn_ahead(decisions, 8, 32)

    def test_adaptive_z_stops_the_window_short_of_each_halving(self, net, monkeypatch):
        """Runs of 8, 9, 10 and 11 rejections: the window stops before each
        attempt that a run of 10 would give a halved z, so the accepted
        candidate after the runs of 10 and 11 is drawn with z / 2 and z / 4."""
        decisions = []
        for run in (8, 9, 10, 11):
            decisions += [False] * run + [True]
        cfg = GeneratorConfig(t=0.9, z=0.2, attempts=30, adaptive_z=True, seed=17)
        held = []
        pooled, oracle = both(net, cfg, 4, monkeypatch, decisions=decisions, held=held)
        assert pooled == oracle and pooled[0] == len(decisions)
        assert len(held) == drawn_ahead(decisions, 4, 120, adaptive_z=True)

    def test_budget_exhaustion(self, net, monkeypatch):
        cfg = GeneratorConfig(t=0.9, z=0.2, attempts=7, adaptive_z=True, seed=14)
        pooled, oracle = both(net, cfg, 2, monkeypatch, decisions=[False] * 14)
        assert pooled == oracle == ("failed", 14)


def test_an_error_in_scoring_leaves_no_draw_running(net, monkeypatch):
    futures, submit, sample = [], nn._tile_pool.submit, Spectrum.sample

    def spy(fn, *args, **kwargs):
        futures.append(submit(fn, *args, **kwargs))
        return futures[-1]

    def slow_sample(self, *args, **kwargs):
        time.sleep(0.05)  # the draws ahead are still running when scoring raises
        return sample(self, *args, **kwargs)

    cands, score = [], generator.score

    def failing(*args, **kwargs):
        if len(cands) == 2:
            raise RuntimeError("scoring failed")
        cands.append(score(*args, **kwargs))
        return cands[-1]

    monkeypatch.setattr(nn._tile_pool, "submit", spy)
    monkeypatch.setattr(Spectrum, "sample", slow_sample)
    monkeypatch.setattr(generator, "score", failing)
    cfg = GeneratorConfig(t=0.9, z=0.1, epsilon=0.5, attempts=5, seed=15)
    with pytest.raises(RuntimeError, match="scoring failed"):
        generate_pool(net.base, net.spec, cfg, net.val, 5)
    assert [f for f in futures if not f.done()] == []
    # attempts 0 and 1 were scored and attempt 2 began: the draws ahead are
    # those the window rule allows for them (the others are image-stage tiles)
    ahead = drawn_ahead([c.accepted for c in cands] + [None], 5, 25)
    assert sum(isinstance(f.result(), nn.ParamSet) for f in futures) == ahead >= 3
