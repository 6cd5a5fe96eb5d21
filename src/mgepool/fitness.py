"""Fitness scoring for candidate models: the criteria behind quality and
diversity, whose gamma-weighted sum ``evolution.evaluate_population``
assigns to every member."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import adversarial
from .errors import ConfigRangeError
from .nn import evaluate_accuracy

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

    def on(self, ev):
        """This config with every criterion on ``ev``'s dataset moved onto the
        EvalSet ``ev`` itself, so that they share its first-layer cache."""
        def moved(crit):
            on_ev = crit is not None and crit.dataset is ev.dataset
            return replace(crit, dataset=ev) if on_ev else crit
        return replace(self, base=moved(self.base), extra=moved(self.extra))


def criterion_score(spec, params, crit: Criterion) -> float:
    if crit.kind == "robust_accuracy":
        return adversarial.robust_accuracy(spec, params, crit.dataset, crit.attack_eps)
    return evaluate_accuracy(spec, params, crit.dataset)

