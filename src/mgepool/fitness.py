"""Fitness scoring for candidate models: the criteria behind quality and
diversity, whose gamma-weighted sum ``evolution.evaluate_population``
assigns to every member."""

from __future__ import annotations

from dataclasses import dataclass

from . import adversarial
from .errors import ConfigRangeError
from .nn import Dataset, evaluate_accuracy

CRITERION_KINDS = ("accuracy", "robust_accuracy", "transfer_accuracy")


@dataclass(frozen=True)
class Criterion:
    """One scoring rule: plain accuracy, white-box FGSM robust accuracy at a
    fixed attack strength, or accuracy on an alternate dataset."""

    kind: str
    dataset: Dataset
    attack_eps: float = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ConfigRangeError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "robust_accuracy":
            if self.attack_eps is None or self.attack_eps <= 0:
                raise ConfigRangeError("robust_accuracy requires attack_eps > 0")


@dataclass(frozen=True)
class FitnessConfig:
    base: Criterion
    extra: Criterion = None
    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigRangeError("gamma must be >= 0")


def criterion_score(spec, params, crit: Criterion) -> float:
    if crit.kind == "robust_accuracy":
        return adversarial.robust_accuracy(spec, params, crit.dataset, crit.attack_eps)
    return evaluate_accuracy(spec, params, crit.dataset)


def mean_score(spec, candidates, crit: Criterion) -> float:
    """Mean criterion score over a candidate set: the quality fitness for
    the base criterion, the diversity fitness for the extra one."""
    if not candidates:
        raise ConfigRangeError("candidate set is empty")
    return sum(criterion_score(spec, c.params, crit) for c in candidates) / len(candidates)
