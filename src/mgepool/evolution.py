"""Evolutionary enhancement loop: mutation samples the base model's
``Spectrum``, fusion averages parameters, ``generator.score`` admits, and
the combined fitness selects. Every admitted model carries the base's kept
DCT coefficients (the DCT is linear, so fusion keeps them).

Selection is elitist (parents compete with their offspring), which makes
the per-generation max fitness exactly non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigRangeError, StructuralError, check_count
from .fitness import FitnessConfig
from .generator import Candidate, GeneratorConfig, Spectrum, generate_pool, score
from .nn import ParamSet, eval_set
from .transforms import RngStream


@dataclass
class EvolutionConfig:
    generations: int = 20
    parents: int = 10
    mutations: int = 10
    fusions: int = 20
    fusion_weights: str = "uniform"  # uniform | fitness_proportional
    seed: int = 0

    def __post_init__(self):
        self.generations = check_count("generations", self.generations, least=0)
        self.seed = check_count("seed", self.seed, least=0)
        for name in ("parents", "mutations", "fusions"):
            setattr(self, name, check_count(name, getattr(self, name)))
        if self.fusion_weights not in ("uniform", "fitness_proportional"):
            raise ConfigRangeError(f"unknown fusion rule {self.fusion_weights!r}")


@dataclass
class GenerationStats:
    generation: int
    max_f: float
    mean_f: float
    best_id: int


def mutate(parent: Candidate, spectrum: Spectrum, z, stream: RngStream) -> Candidate:
    """A child sampled from the base's ``spectrum`` at latent bound ``z`` with
    ``stream``; the parent, which already carries the kept coefficients,
    gives its lineage."""
    return Candidate(params=spectrum.sample(stream.generator(), z),
                     lineage=("mutate", (parent.cand_id,)))


def fuse(parents, weights) -> ParamSet:
    """Elementwise weighted average of parameter sets; weights sum to 1."""
    if len(parents) != len(weights) or not parents:
        raise ConfigRangeError("parents/weights length mismatch")
    w = np.asarray(weights, dtype=np.float64)
    if not ((w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9):
        raise ConfigRangeError("weights must be non-negative and sum to 1")
    if any(p.layout != parents[0].layout for p in parents[1:]):
        raise StructuralError("parents have mismatched architectures")
    return ParamSet(parents[0]._named(sum(wi * p.flat for p, wi in zip(parents, w))))


def select(members, n):
    """Top n by combined fitness; ties broken by higher f_q, then lower id."""
    if len(members) < n:
        raise StructuralError(f"population {len(members)} smaller than n={n}")
    return sorted(members, key=lambda m: (-m.f, -m.f_q, m.cand_id))[:n]


def evolve(base, spec, gcfg: GeneratorConfig, ecfg: EvolutionConfig,
           fit: FitnessConfig, valset):
    """Full E-MGE loop; returns (best candidate, per-generation history).

    The seed population comes from ``generate_pool``, and the base's
    Spectrum it hands back is the run's one spectrum: each generation adds j
    mutation children (round-robin over parents, sampled from it) and up to
    m fused candidates.
    Every child and fused model must pass ``generator.score``; only admitted
    ones get an id, a fitness and a place in fusion and selection, which
    keeps the n fittest (all of a smaller population).

    ``valset`` (a Dataset or an EvalSet) is wrapped in one EvalSet for the
    whole run: generation, every ``score`` and every fitness criterion on
    the same dataset share its first-layer cache. ``score`` assigns each
    admitted model's fitness: an accuracy criterion on the validation set
    reuses the accuracy it measured, and FGSM on that set the backward of
    its taped forward (``nn.forward(..., tape=True)``), handed over as
    ``taped``.
    """
    valset = eval_set(valset)
    pool = generate_pool(base, spec, gcfg, valset, count=ecfg.parents, fit=fit)
    parents, history = [], []
    born = pool.candidates
    next_id = len(born)
    root = RngStream(ecfg.seed)

    def admit(params, lineage):
        """``[candidate]`` with the next id and its fitness if ``score`` admits
        it, else ``[]``."""
        nonlocal next_id
        cand = score(params, spec, valset, pool.base_accuracy, gcfg, fit=fit, lineage=lineage)
        if not cand.accepted:
            return []
        cand.cand_id, next_id = next_id, next_id + 1
        return [cand]

    for gen in range(ecfg.generations + 1):
        if gen:
            children = []
            for i in range(ecfg.mutations):
                # (gen, i) then child 0: a stream of the child's own, apart from
                # generation gen's fusion stream (gen, 1 << 20)
                child = mutate(parents[i % len(parents)], pool.spectrum, gcfg.z,
                               root.child(gen, i).child(0))
                children += admit(child.params, child.lineage)
            fusable = parents + children
            frng = root.child(gen, 1 << 20).generator()
            fused = []
            for _ in range(ecfg.fusions if len(fusable) > 1 else 0):
                pa, pb = (fusable[k] for k in frng.choice(len(fusable), size=2, replace=False))
                wa = 0.5
                if ecfg.fusion_weights == "fitness_proportional" and pa.f + pb.f > 0:
                    wa = pa.f / (pa.f + pb.f)
                fused += admit(fuse([pa.params, pb.params], [wa, 1.0 - wa]),
                               ("fuse", (pa.cand_id, pb.cand_id)))
            born = children + fused
        members = parents + born
        parents = select(members, min(ecfg.parents, len(members)))
        history.append(GenerationStats(gen, parents[0].f,
                                       float(np.mean([m.f for m in parents])),
                                       parents[0].cand_id))
    # select ranks best first, and elitism keeps the all-time best among parents
    return parents[0], history
