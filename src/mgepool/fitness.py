"""Fitness scoring for candidate models: the criteria behind quality and
diversity, whose gamma-weighted sum ``evaluate_population`` assigns to every
admitted member (``generator.score`` calls it when given a FitnessConfig)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    def on(self, ev):
        """This config with every criterion on ``ev``'s rows (its Dataset, or
        an EvalSet over it) moved onto ``ev``, an EvalSet or a Recording, so
        that they share its first-layer cache and recorded forward."""
        def moved(crit):
            on_ev = crit is not None and _rows(crit.dataset) is ev.dataset
            return replace(crit, dataset=ev) if on_ev else crit
        return replace(self, base=moved(self.base), extra=moved(self.extra))

    def attacks(self, data):
        """Whether a robust-accuracy criterion runs on ``data``'s rows."""
        return any(c is not None and c.kind == "robust_accuracy"
                   and _rows(c.dataset) is _rows(data) for c in (self.base, self.extra))


def _rows(data):
    """The Dataset of a Dataset, an EvalSet or a Recording."""
    return data.dataset if isinstance(data, EvalSet) else data


def criterion_score(spec, params, crit: Criterion) -> float:
    if crit.kind == "robust_accuracy":
        return adversarial.robust_accuracy(spec, params, crit.dataset, crit.attack_eps)
    return evaluate_accuracy(spec, params, crit.dataset)


def evaluate_population(members, spec, fit: FitnessConfig, valset=None):
    """Attach (f_q, f_d, f) to every member, scored on its float32 copy so
    the numbers hold for the saved model; deterministic re-evaluation.

    ``valset``, when given, is the set that ``generator.score`` measured
    every member's ``accuracy`` on: a Dataset, an EvalSet, or a Recording of
    the one member's float32 copy. A base criterion of plain accuracy on its
    rows takes f_q from ``accuracy``: the same function on the same float32
    copy and rows, so the same number, without a second pass. Every other
    criterion on an EvalSet's rows runs on ``valset`` itself
    (``FitnessConfig.on``), so FGSM on a Recording takes its recorded
    backward.
    """
    if isinstance(valset, EvalSet):
        fit = fit.on(valset)
    reuse = (valset is not None and fit.base.kind == "accuracy"
             and _rows(fit.base.dataset) is _rows(valset))
    for m in members:
        p = m.params.as_float32()
        m.f_q = m.accuracy if reuse else criterion_score(spec, p, fit.base)
        m.f_d = 0.0 if fit.extra is None else criterion_score(spec, p, fit.extra)
        m.f = m.f_q + fit.gamma * m.f_d
    return members

