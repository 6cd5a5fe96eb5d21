"""Fitness scoring for candidate models: the criteria behind quality and
diversity, whose gamma-weighted sum ``evaluate_population`` assigns to every
admitted member (``generator.score`` calls it when given a FitnessConfig)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import adversarial
from .errors import ConfigRangeError
from .nn import EvalSet, evaluate_accuracy

CRITERION_KINDS = ("accuracy", "robust_accuracy")


@dataclass(frozen=True)
class Criterion:
    """One scoring rule on a dataset (a Dataset or an EvalSet): plain
    accuracy, or white-box FGSM robust accuracy at a fixed attack strength."""

    kind: str
    dataset: object
    attack_eps: float = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ConfigRangeError(f"unknown criterion kind {self.kind!r}; "
                                   f"known kinds: {', '.join(CRITERION_KINDS)}")
        if self.kind == "robust_accuracy":
            if self.attack_eps is None or not (0 < self.attack_eps < math.inf):
                raise ConfigRangeError("robust_accuracy requires a finite attack_eps > 0")


@dataclass(frozen=True)
class FitnessConfig:
    base: Criterion
    extra: Criterion = None
    gamma: float = 1.0

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf):
            raise ConfigRangeError(f"gamma {self.gamma} must be finite and >= 0")


def on_rows(crit, data):
    """Whether the criterion ``crit`` (or None) runs on ``data``'s rows: one
    Dataset, given bare or in an EvalSet."""
    def rows(d):
        return d.dataset if isinstance(d, EvalSet) else d
    return crit is not None and rows(crit.dataset) is rows(data)


def criterion_score(spec, params, crit: Criterion, *, taped=None) -> float:
    """``crit``'s score of ``params``; ``taped`` goes to ``robust_accuracy``."""
    if crit.kind == "robust_accuracy":
        return adversarial.robust_accuracy(spec, params, crit.dataset, crit.attack_eps,
                                           taped=taped)
    return evaluate_accuracy(spec, params, crit.dataset)


def evaluate_population(members, spec, fit: FitnessConfig, valset=None, *, taped=None):
    """Attach (f_q, f_d, f) to every member, scored on its float32 copy so
    the numbers hold for the saved model; deterministic re-evaluation.

    ``valset``, when given, is the set (a Dataset or an EvalSet) that
    ``generator.score`` measured every member's ``accuracy`` on. A criterion
    of plain accuracy on its rows (``on_rows``) takes ``accuracy``: the same
    function on the same float32 copy and rows, so the same number, without
    a second pass. ``taped``, given with one member, is the
    ``nn.forward(..., tape=True)`` of its float32 copy on ``valset``'s rows;
    every FGSM criterion on those rows forms its input gradient from it
    (``adversarial.fgsm_batch``) instead of running a forward of its own.
    """
    def value(m, p, crit):
        if crit is None:
            return 0.0
        here = on_rows(crit, valset)
        if here and crit.kind == "accuracy":
            return m.accuracy
        if here and taped is not None:  # FGSM on the taped rows
            return criterion_score(spec, p, crit, taped=taped)
        return criterion_score(spec, p, crit)

    for m in members:
        p = m.params.as_float32()
        m.f_q, m.f_d = value(m, p, fit.base), value(m, p, fit.extra)
        m.f = m.f_q + fit.gamma * m.f_d
    return members
