"""The benchmark's workloads: seeded inputs, set-up, one repetition of the
timed phase, and the output checks that run after it.

Every library call goes through an attribute of the ``mgepool`` package or
one of its modules, looked up at call time, so the tracer's wrappers see it.

Generator settings are chosen so that acceptance sits near 1 on every seed
while rejections still occur on some: ``models_per_s`` is proportional to
the accept ratio, and the accept ratio of one base model is close to all or
nothing, so a setting near the accept/reject edge would make the metric
swing between seeds by more than any bound.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import mgepool as mg
from mgepool import store

CLASSES = 10
SIDE = 28
MIN_BASE_ACCURACY = 0.5   # set-up check; chance is 0.1 (images), 0.33 (blobs)


def synth_bars(n, seed):
    """Class-structured 1x28x28 images in [0, 1]: one bar per class.

    Class c is a bar at angle c*pi/10 with jittered angle (sd 0.06 rad) and
    centre (+-3 px), soft edges (sd 1.2 px across, 18 px long), plus
    Gaussian pixel noise (sd 0.15); deterministic in ``seed``.
    """
    rng = np.random.default_rng([seed, 0xBA5])
    labels = rng.permutation(np.arange(n) % CLASSES)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    theta = labels * np.pi / CLASSES + rng.normal(0.0, 0.06, n)
    cx = (SIDE - 1) / 2 + rng.uniform(-3.0, 3.0, n)
    cy = (SIDE - 1) / 2 + rng.uniform(-3.0, 3.0, n)
    dx = xx[None] - cx[:, None, None]
    dy = yy[None] - cy[:, None, None]
    cos, sin = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
    along = dx * cos + dy * sin
    across = dy * cos - dx * sin
    img = np.exp(-0.5 * (across / 1.2) ** 2) * (np.abs(along) < 9.0)
    img += rng.normal(0.0, 0.15, img.shape)
    return mg.Dataset(np.clip(img, 0.0, 1.0)[:, None], labels, CLASSES)


@dataclass
class Setup:
    """What the timed phase starts from: the network, data and base model."""

    spec: object
    splits: dict
    base: object
    base_accuracy: float
    train_seconds: float


@dataclass
class Rep:
    """One repetition of the timed phase and what it produced."""

    seconds: float            # wall time of the whole timed phase
    generate_seconds: float   # the library's own generation (or evolve) time
    candidates: int           # candidate models scored
    delivered: int            # models saved and verified
    digest: str = ""
    scale: float = 1.0        # host-speed scale (reference.Reference.scale)
    outputs: dict = field(default_factory=dict)


def _f32_bytes(params):
    """The parameters as saved on disk (float32, little-endian)."""
    return b"".join(e.values.astype("<f4").tobytes() for e in params.entries)


def same_model(a, b):
    """Bit-for-bit equality of two parameter sets (names, shapes, values)."""
    return ([(e.name, tuple(e.shape), e.values.tobytes()) for e in a.entries]
            == [(e.name, tuple(e.shape), e.values.tobytes()) for e in b.entries])


def _pack(*floats):
    return struct.pack(f"<{len(floats)}d", *floats)


# ---------------------------------------------------------------------------
# generation workloads


@dataclass(frozen=True)
class GenerateWorkload:
    """Train a base model, then generate a pool, save every member, write
    and verify the manifest (what ``mgepool generate`` does)."""

    name: str
    why: str
    make_setup: object        # (seed, smoke) -> Setup
    gen: dict                 # GeneratorConfig fields other than seed
    count: int
    smoke_count: int

    def prepare(self, setup, seed, smoke):
        """Untimed per-run preparation: the generator config and pool size."""
        return {"count": self.smoke_count if smoke else self.count,
                "gcfg": mg.GeneratorConfig(seed=seed, **self.gen)}

    def rep(self, setup, prep, outdir):
        gcfg = prep["gcfg"]
        t0 = time.perf_counter()
        pool = mg.generate_pool(setup.base, setup.spec, gcfg, setup.splits["val"],
                                prep["count"])
        members = []
        for cand in pool.candidates:
            fname = f"model_{cand.cand_id:04d}.mgem"
            info = mg.save_model(cand.params, os.path.join(outdir, fname))
            members.append({"file": fname, "hash": info.sha256,
                            "attempt": cand.seed, "accuracy": cand.accuracy})
        manifest = os.path.join(outdir, "manifest.json")
        doc = store.build_manifest(
            pool_id=f"bench-{self.name}-{gcfg.seed}",
            base={"accuracy": pool.base_accuracy},
            config={"generator": vars(gcfg)},
            members=members,
            wall_clock={"time_generated": pool.seconds},
            attempts=pool.attempts,
            seeds={"generator": gcfg.seed},
        )
        store.write_manifest(doc, manifest)
        store.verify_manifest(manifest)
        seconds = time.perf_counter() - t0
        return Rep(seconds, pool.seconds, pool.attempts, len(pool.candidates),
                   outputs={"pool": pool, "manifest": manifest, "outdir": outdir})

    def digest(self, rep):
        """Accept decisions in attempt order, accuracies, float32 bytes."""
        pool = rep.outputs["pool"]
        h = hashlib.sha256()
        accepted = {c.seed for c in pool.candidates}
        h.update(bytes(int(i in accepted) for i in range(pool.attempts)))
        h.update(_pack(pool.base_accuracy))
        for c in pool.candidates:
            h.update(_pack(c.accuracy))
            h.update(_f32_bytes(c.params))
        return h.hexdigest()

    def check(self, setup, prep, rep):
        """[(check name, passed)] for the outputs of one repetition."""
        pool, outdir = rep.outputs["pool"], rep.outputs["outdir"]
        val = setup.splits["val"]
        results = []
        try:
            store.verify_manifest(rep.outputs["manifest"])
            results.append(("verify_manifest", True))
        except mg.errors.MgeError:
            results.append(("verify_manifest", False))
        for c in pool.candidates:
            f32 = c.params.as_float32()
            acc = mg.evaluate_accuracy(setup.spec, f32, val)
            results.append((f"accept_sound[{c.cand_id}]",
                            acc == c.accuracy
                            and mg.accept(acc, pool.base_accuracy, prep["gcfg"])))
            loaded = mg.load_model(os.path.join(outdir, f"model_{c.cand_id:04d}.mgem"))
            results.append((f"persist[{c.cand_id}]", same_model(loaded, f32)))
        return results


# ---------------------------------------------------------------------------
# evolution workload


@dataclass(frozen=True)
class EvolveWorkload:
    """Evolve a seed pool toward FGSM robustness, then save the best model."""

    name: str
    why: str
    make_setup: object
    gen: dict
    evo: dict                 # EvolutionConfig fields other than seed
    gamma: float
    attack_eps: float

    def prepare(self, setup, seed, smoke):
        """Configs, plus the seed pool's attempt count. ``evolve`` does not
        return it, so the same deterministic generate_pool call is made
        once here, outside the timed phase."""
        gcfg = mg.GeneratorConfig(seed=seed, **self.gen)
        ecfg = mg.EvolutionConfig(seed=seed + 1, **self.evo)
        val = setup.splits["val"]
        fit = mg.FitnessConfig(mg.Criterion("accuracy", val),
                               mg.Criterion("robust_accuracy", val, self.attack_eps),
                               self.gamma)
        pool = mg.generate_pool(setup.base, setup.spec, gcfg, val, ecfg.parents)
        return {"gcfg": gcfg, "ecfg": ecfg, "fit": fit, "seed_attempts": pool.attempts}

    def rep(self, setup, prep, outdir):
        ecfg = prep["ecfg"]
        t0 = time.perf_counter()
        best, history = mg.evolve(setup.base, setup.spec, prep["gcfg"], ecfg,
                                  prep["fit"], setup.splits["val"])
        evolve_s = time.perf_counter() - t0
        path = os.path.join(outdir, "best.mgem")
        mg.save_model(best.params, path)
        seconds = time.perf_counter() - t0
        candidates = prep["seed_attempts"] + ecfg.generations * (ecfg.mutations + ecfg.fusions)
        return Rep(seconds, evolve_s, candidates, 1,
                   outputs={"best": best, "history": history, "path": path})

    def digest(self, rep):
        best, history = rep.outputs["best"], rep.outputs["history"]
        h = hashlib.sha256()
        for g in history:
            h.update(_pack(g.max_f, g.mean_f, g.best_id))
        h.update(_pack(best.cand_id, best.accuracy, best.f_q, best.f_d, best.f))
        h.update(_f32_bytes(best.params))
        return h.hexdigest()

    def check(self, setup, prep, rep):
        best, history = rep.outputs["best"], rep.outputs["history"]
        fit, val = prep["fit"], setup.splits["val"]
        max_f = [g.max_f for g in history]
        results = [("max_f_monotone", all(b >= a for a, b in zip(max_f, max_f[1:])))]
        loaded = mg.load_model(rep.outputs["path"])
        results.append(("persist[best]", same_model(loaded, best.params.as_float32())))
        f_q = mg.evaluate_accuracy(setup.spec, loaded, val)
        f_d = mg.robust_accuracy(setup.spec, loaded, val, self.attack_eps)
        results.append(("best_f_recomputed", best.f == f_q + fit.gamma * f_d))
        return results


# ---------------------------------------------------------------------------
# set-ups


def lenet_setup(seed, smoke):
    """Bars images split 50/25/25, lenet_like(10) trained with Adam."""
    ds = synth_bars(400 if smoke else 2000, seed)
    splits = mg.split_dataset(ds, {"train": 0.5, "val": 0.25, "test": 0.25}, seed=seed + 1)
    spec = mg.lenet_like(CLASSES)
    cfg = mg.TrainConfig(epochs=3 if smoke else 5, learning_rate=0.002, seed=seed + 2)
    return _finish_setup(spec, splits, cfg)


def wide_mlp_setup(seed, smoke):
    """3-class blobs split 60/20/20 (300 val points), mlp([2, 512, 512, 3])."""
    ds = mg.make_synthetic("blobs", 300 if smoke else 1500, 3, seed=seed, noise=0.12)
    splits = mg.split_dataset(ds, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=seed + 1)
    spec = mg.mlp([2, 512, 512, 3])
    cfg = mg.TrainConfig(epochs=3 if smoke else 10, learning_rate=0.001, seed=seed + 2)
    return _finish_setup(spec, splits, cfg)


def _finish_setup(spec, splits, cfg):
    base, train_s = mg.train(spec, splits["train"], cfg)
    acc = mg.evaluate_accuracy(spec, base.as_float32(), splits["val"])
    return Setup(spec, splits, base, acc, train_s)


LENET_GEN = {"t": 0.995, "z": 0.05, "epsilon": 0.1, "attempts": 1}

WORKLOADS = {
    w.name: w for w in (
        GenerateWorkload(
            "lenet_generate",
            "evaluation-bound: about 98% of the timed phase is the LeNet forward pass",
            lenet_setup, LENET_GEN, count=16, smoke_count=3),
        GenerateWorkload(
            "wide_mlp_generate",
            "spectral-maths-bound: DCT, IDCT and sampling of 265,731 parameters per attempt",
            wide_mlp_setup, {"t": 0.99, "z": 0.05, "epsilon": 0.15, "attempts": 1},
            count=40, smoke_count=4),
        EvolveWorkload(
            "lenet_evolve_robust",
            "backward path: FGSM input gradients are about half the phase; the only user of mutate, fuse and select",
            lenet_setup, {**LENET_GEN, "attempts": 100},
            evo={"generations": 1, "parents": 2, "mutations": 1, "fusions": 1},
            gamma=1.0, attack_eps=0.05),
    )
}
