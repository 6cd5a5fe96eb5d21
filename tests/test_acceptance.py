"""Acceptance gate: one test per headline guarantee, one printed line each.

Heavy MNIST-scale checks are skipped unless the IDX files are present
(see conftest.mnist_dir); everything else runs on the desk fixture.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mnist_dir
from mgepool import (
    Criterion,
    EvolutionConfig,
    FitnessConfig,
    GeneratorConfig,
    TrainConfig,
    dct2,
    evaluate_accuracy,
    evolve,
    fgsm_batch,
    generate_pool,
    idct2,
    load_model,
    robust_accuracy,
    save_model,
    train,
    transfer_matrix,
    zero_fill_decay,
)
from mgepool import cli, evolution
from mgepool.errors import CorruptModelError
from mgepool.nn import Dataset, ParamEntry, ParamSet, lenet_like, load_idx_dataset
from test_transforms import ks_statistic, naive_dct2, naive_idct2


@pytest.fixture
def passline(capsys):
    def emit(number, text):
        with capsys.disabled():
            print(f"PASS criterion {number:2d}: {text}")
    return emit


@pytest.fixture(scope="module")
def evo(desk):
    """One 50-generation evolution run shared by the evolution criteria.

    evolution.select is wrapped for the duration so we can observe the
    post-selection population size of every generation.
    """
    sizes = []
    original = evolution.select

    def recording_select(members, n):
        chosen = original(members, n)
        sizes.append(len(chosen))
        return chosen

    fit = FitnessConfig(
        base=Criterion("accuracy", desk.splits["val"]),
        extra=Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1),
        gamma=4.0,
    )
    gcfg = GeneratorConfig(seed=41)
    ecfg = EvolutionConfig(generations=50, parents=10, mutations=10,
                           fusions=20, seed=42)
    evolution.select = recording_select
    try:
        best, history = evolve(desk.base, desk.spec, gcfg, ecfg, fit,
                               desk.splits["val"])
    finally:
        evolution.select = original
    return SimpleNamespace(best=best, history=history, sizes=sizes,
                           gcfg=gcfg, ecfg=ecfg, fit=fit)


@pytest.fixture(scope="module")
def mnist_run(tmp_path_factory):
    """Heavy fixture: LeNet-style base trained on MNIST plus 10 generated models."""
    root = mnist_dir()
    if root is None:
        pytest.skip("MNIST IDX files not present (set MGE_MNIST_DIR)")
    import os
    trainset = load_idx_dataset(os.path.join(root, "train-images-idx3-ubyte"),
                                os.path.join(root, "train-labels-idx1-ubyte"))
    testset = load_idx_dataset(os.path.join(root, "t10k-images-idx3-ubyte"),
                               os.path.join(root, "t10k-labels-idx1-ubyte"))
    valset = Dataset(testset.features[:2000], testset.labels[:2000], testset.classes)
    spec = lenet_like()
    base, train_seconds = train(spec, trainset,
                                TrainConfig(epochs=3, learning_rate=0.001, seed=0))
    base_acc = evaluate_accuracy(spec, base.as_float32(), testset)
    pool = generate_pool(base, spec, GeneratorConfig(seed=1), valset, 10)
    accs = [evaluate_accuracy(spec, c.params.as_float32(), testset)
            for c in pool.candidates]
    return SimpleNamespace(base_accuracy=base_acc, pool=pool,
                           member_accuracies=accs,
                           train_seconds=train_seconds)


class TestAcceptance:
    def test_criterion_01_transform_correctness(self, passline):
        rng = np.random.default_rng(0)
        worst_rt, worst_naive, worst_parseval = 0.0, 0.0, 0.0
        for n in range(1, 257):
            x = rng.normal(size=n)
            c = dct2(x)
            scale = np.max(np.abs(x))
            worst_rt = max(worst_rt, np.max(np.abs(idct2(c) - x)) / scale)
            worst_naive = max(worst_naive,
                              np.max(np.abs(c - naive_dct2(x))),
                              np.max(np.abs(idct2(c) - naive_idct2(c))))
            energy = np.sum(x * x)
            worst_parseval = max(worst_parseval,
                                 abs(np.sum(c * c) - energy) / energy)
        assert worst_rt <= 1e-9
        assert worst_naive <= 1e-12
        assert worst_parseval <= 1e-9
        passline(1, f"round trip {worst_rt:.1e}, vs naive {worst_naive:.1e}, "
                    f"Parseval {worst_parseval:.1e} over lengths 1-256")

    def test_criterion_02_identity_closure(self, desk, passline):
        gcfg = GeneratorConfig(t=1.0, seed=7)
        pool = generate_pool(desk.base, desk.spec, gcfg, desk.splits["val"], 20)
        assert pool.attempts == 20  # every attempt accepted
        worst = 0.0
        for cand in pool.candidates:
            for ge, be in zip(cand.params.entries, desk.base.entries):
                worst = max(worst, np.max(np.abs(ge.values - be.values)))
        assert worst <= 1e-9
        passline(2, f"t=1 pool of 20: acceptance 20/20, max |delta| {worst:.1e}")

    def test_criterion_03_acceptance_soundness(self, desk, tmp_path, passline):
        eps = desk.gcfg.epsilon
        for cand in desk.pool.candidates:
            path = tmp_path / f"cand_{cand.cand_id}.mgem"
            save_model(cand.params, path)
            acc = evaluate_accuracy(desk.spec, load_model(path),
                                    desk.splits["val"])
            assert acc > desk.base_accuracy or \
                abs(acc - desk.base_accuracy) < eps
        passline(3, f"all {len(desk.pool.candidates)} persisted members "
                    f"re-satisfy the acceptance predicate (eps={eps})")

    def test_criterion_04_mnist_accuracy_parity(self, mnist_run, passline):
        assert mnist_run.base_accuracy >= 0.97
        mean_acc = float(np.mean(mnist_run.member_accuracies))
        assert abs(mean_acc - 0.9825) <= 0.01
        passline(4, f"MNIST base {mnist_run.base_accuracy:.4f}, "
                    f"mean generated {mean_acc:.4f}")

    def test_criterion_05_time_ratio(self, desk, request, passline):
        per_model_generated = desk.pool.seconds / len(desk.pool.candidates)
        assert per_model_generated < desk.train_seconds
        note = ""
        if mnist_dir() is not None:
            run = request.getfixturevalue("mnist_run")
            ratio = run.pool.seconds / (run.train_seconds * 10)
            assert ratio < 0.25
            note = f"; MNIST ratio {ratio:.2%}"
        passline(5, f"per-model generation {per_model_generated:.3f}s < "
                    f"training {desk.train_seconds:.3f}s{note}")

    def test_criterion_06_zero_fill_decay(self, desk, passline):
        fractions = [round(0.05 * i, 2) for i in range(11)]
        curve = zero_fill_decay(desk.base, [dct2(e.values) for e in desk.base.entries],
                                desk.spec, desk.splits["test"], fractions)
        assert curve[0][1] == desk.test_accuracy
        for (_, prev), (_, nxt) in zip(curve, curve[1:]):
            assert nxt <= prev + 0.02
        passline(6, f"decay {curve[0][1]:.4f} -> {curve[-1][1]:.4f} over "
                    f"fractions 0-0.5, non-increasing within 2pp")

    def test_criterion_07_distribution_preserved(self, desk, passline):
        base_pooled = desk.base.flat
        worst = max(ks_statistic(base_pooled, c.params.flat)
                    for c in desk.pool.candidates)
        assert worst < 0.1
        passline(7, f"max pooled-weight KS statistic {worst:.4f} < 0.1")

    def test_criterion_08_evolution_monotonic(self, evo, passline):
        assert len(evo.history) == 51
        maxes = [h.max_f for h in evo.history]
        assert all(b >= a for a, b in zip(maxes, maxes[1:]))
        assert evo.sizes == [evo.ecfg.parents] * len(evo.sizes)
        passline(8, f"max F non-decreasing over 50 generations "
                    f"({maxes[0]:.4f} -> {maxes[-1]:.4f}), population 10 after "
                    f"every selection")

    def test_criterion_09_robustness_direction(self, desk, evo, passline):
        seed_pool = generate_pool(desk.base, desk.spec, evo.gcfg,
                                  desk.splits["val"], evo.ecfg.parents)
        seed_best = max(robust_accuracy(desk.spec, c.params,
                                        desk.splits["val"], 0.1)
                        for c in seed_pool.candidates)
        evolved = robust_accuracy(desk.spec, evo.best.params,
                                  desk.splits["val"], 0.1)
        assert evolved > seed_best
        passline(9, f"robust accuracy at eps=0.1: seed-pool best "
                    f"{seed_best:.4f} -> evolved best {evolved:.4f}")

    def test_criterion_10_attack_exactness(self, desk, passline):
        val = desk.splits["val"]
        for eps in (0.02, 0.1, 0.3):
            adv = fgsm_batch(desk.spec, desk.base, val.features, val.labels, eps)
            assert np.max(np.abs(adv - val.features)) <= eps + 1e-9
        noop = fgsm_batch(desk.spec, desk.base, val.features[:1], val.labels[:1], 0.0)[0]
        assert np.array_equal(noop, val.features[0])
        sample = Dataset(desk.splits["test"].features[:100],
                         desk.splits["test"].labels[:100], val.classes)
        report = transfer_matrix(desk.spec, desk.base, [("self", desk.base)],
                                 sample, eps=0.2, n_examples=100)
        rob = robust_accuracy(desk.spec, desk.base, sample, 0.2)
        assert report.rows[0].untargeted_success + rob == 1.0
        passline(10, "L-inf bound holds, eps=0 is a no-op, self-transfer "
                     "identity exact")

    def test_criterion_11_behavioral_dissimilarity(self, desk, passline):
        sample = Dataset(desk.splits["test"].features[:100],
                         desk.splits["test"].labels[:100],
                         desk.splits["test"].classes)
        pool = [(str(c.cand_id), c.params) for c in desk.pool.candidates]
        report = transfer_matrix(desk.spec, desk.base, pool, sample, eps=0.2,
                                 n_examples=100)
        base_success = 1.0 - robust_accuracy(desk.spec, desk.base, sample, 0.2)
        gap = base_success - min(r.untargeted_success for r in report.rows)
        assert gap >= 0.10
        passline(11, f"best transfer-resistance gap {gap:.2f} >= 0.10 "
                     f"(base self-success {base_success:.2f})")

    def test_criterion_12_persistence(self, desk, tmp_path, passline):
        rng = np.random.default_rng(12)
        for i in range(100):
            entries = []
            for j in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 40))
                entries.append(ParamEntry(f"layer{j}.weight", (n,),
                                          rng.normal(size=n)))
            params = ParamSet(entries)
            path = tmp_path / "round.mgem"
            save_model(params, path)
            first = path.read_bytes()
            save_model(load_model(path), path)
            assert path.read_bytes() == first
        import hashlib
        import struct
        values = np.array([0.5, -1.25], dtype="<f4")
        body = (b"MGEM" + struct.pack("<III", 1, 1, 3) + b"w.b"
                + struct.pack("<II", 1, 2) + values.tobytes())
        hand = tmp_path / "hand.mgem"
        hand.write_bytes(body + hashlib.sha256(body).digest())
        loaded = load_model(hand)
        assert loaded.entries[0].name == "w.b"
        assert np.array_equal(loaded.entries[0].values, values.astype(np.float64))
        data = bytearray(hand.read_bytes())
        data[15] ^= 0x01
        hand.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError):
            load_model(hand)
        passline(12, "100 bit-exact round trips, byte-level fixture loads, "
                     "corrupted hash rejected")

    def test_criterion_13_determinism(self, tmp_path, passline, monkeypatch):
        from test_cli import desk_config, write_config
        cfg = desk_config(tmp_path / "unused",
                          evolution={"generations": 3, "parents": 4,
                                     "mutations": 4, "fusions": 6})
        cfg_path = write_config(tmp_path, cfg)
        outputs = []
        strftime = time.strftime
        for run in ("a", "b"):
            if run == "b":
                # run b's clock reads five hours later, so a time written
                # outside wall_clock differs between the runs on every machine
                monkeypatch.setattr(time, "strftime", lambda fmt, *when: strftime(
                    fmt, *(when or (time.localtime(time.time() + 5 * 3600),))))
            out = tmp_path / run
            assert cli.main(["--config", cfg_path, "--out", str(out),
                             "train"]) == 0
            assert cli.main(["--config", cfg_path, "--out", str(out / "pool"),
                             "generate", "--model", str(out / "base.mgem"),
                             "--count", "5"]) == 0
            assert cli.main(["--config", cfg_path, "--out", str(out / "evo"),
                             "evolve", "--model", str(out / "base.mgem")]) == 0
            assert cli.main(["--config", cfg_path, "--out", str(out / "analysis"),
                             "analyze", "--model", str(out / "base.mgem")]) == 0
            assert cli.main(["--config", cfg_path, "--out", str(out / "attack"),
                             "attack", "--pool", str(out / "pool")]) == 0
            outputs.append(out)
        monkeypatch.undo()
        a, b = outputs

        def stripped(path):
            doc = json.loads(path.read_text())
            doc.pop("wall_clock", None)
            return doc

        for rel in ("train.json", "stamp.json", "pool/stamp.json", "evo/stamp.json",
                    "analysis/stamp.json", "attack/stamp.json"):
            assert stripped(a / rel) == stripped(b / rel)
        for pool in ("pool", "evo"):
            assert stripped(a / pool / "manifest.json") == stripped(b / pool / "manifest.json")
        [best] = stripped(a / "evo" / "manifest.json")["members"]
        models = ["base.mgem", f"evo/{best['file']}"] + \
            [f"pool/model_{i:04d}.mgem" for i in range(5)]
        reports = ["analysis/analysis.json", "attack/robustness.csv", "attack/transfer.tsv"]
        for rel in models + reports:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        passline(13, "two full pipeline runs byte-identical (manifests modulo "
                     "wall clock, model files and analyze/attack reports exactly)")
