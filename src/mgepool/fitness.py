"""Fitness criteria for candidate models: the rules behind quality and
diversity. ``generator.score``, given a FitnessConfig, assigns each
admitted model the criteria's gamma-weighted sum, reusing its admission
pass for a criterion on the validation rows and ``criterion_score`` for
any other."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def criterion_score(spec, params, crit: Criterion) -> float:
    """``crit``'s score of ``params``, from a pass of its own over its dataset."""
    if crit.kind == "robust_accuracy":
        return adversarial.robust_accuracy(spec, params, crit.dataset, crit.attack_eps)
    return evaluate_accuracy(spec, params, crit.dataset)
