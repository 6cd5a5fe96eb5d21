"""FGSM attack generation and the cross-model transfer experiment.

Inputs live in [0, 1]; perturbed features are always clipped back into
that range after the signed step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigRangeError, check_count
from .nn import batch_array, eval_batches, forward, input_gradient, n_correct


@dataclass
class AdvExample:
    original: np.ndarray
    perturbed: np.ndarray
    label: int
    eps: float
    source_id: str = "base"
    target: int = None


@dataclass
class TransferRow:
    model_id: str
    clean_accuracy: float
    untargeted_success: float
    targeted_success: float = None


@dataclass
class TransferReport:
    rows: list
    eps: float
    n_examples: int

    def to_text(self):
        lines = ["model_id\tclean\tuntargeted\ttargeted"]
        for r in self.rows:
            tgt = "-" if r.targeted_success is None else f"{r.targeted_success:.4f}"
            lines.append(f"{r.model_id}\t{r.clean_accuracy:.4f}\t"
                         f"{r.untargeted_success:.4f}\t{tgt}")
        return "\n".join(lines) + "\n"


def fgsm_batch(spec, params, features, labels, eps, targets=None, *, taped=None):
    """Signed-gradient step on a batch (an array or an EvalSet); clipped to
    [0, 1].

    Untargeted: ascend the loss at the true label. Targeted: descend the
    loss at the target label. ``taped``, the batch's ``nn.forward(...,
    tape=True)``, gives the same input gradient with no forward of its own.
    """
    if not (0 <= eps < np.inf):
        raise ConfigRangeError(f"eps {eps} must be finite and >= 0")
    # the gradient's forward checks that an array batch is finite
    g = input_gradient(spec, params, features, labels if targets is None else targets,
                       taped=taped)
    x = batch_array(features)
    perturbed = x + eps * np.sign(g) if targets is None else x - eps * np.sign(g)
    return np.clip(perturbed, 0.0, 1.0)


def fgsm(spec, params, example, label, eps, target=None, source_id="base") -> AdvExample:
    """Single-example FGSM; sign(0) contributes no perturbation."""
    x = np.asarray(example, dtype=np.float64)
    perturbed = fgsm_batch(spec, params, x[None], np.asarray([label]), eps,
                           None if target is None else np.asarray([target]))[0]
    return AdvExample(x, perturbed, int(label), eps, source_id, target)


def robust_accuracy(spec, params, dataset, eps, *, taped=None) -> float:
    """Accuracy on white-box FGSM-perturbed examples at strength eps.

    ``dataset`` is a Dataset or an EvalSet; on an EvalSet the attack's
    forward pass takes the first layer's im2col from its cache. ``taped``,
    the ``nn.forward(..., tape=True)`` of ``params`` on all of ``dataset``'s
    rows (at most ``EVAL_BATCH``, so one batch), goes to ``fgsm_batch``.
    """
    correct = 0
    for features, labels in eval_batches(dataset):
        adv = fgsm_batch(spec, params, features, labels, eps, taped=taped)
        correct += n_correct(forward(spec, params, adv), labels)
    return correct / len(dataset)


def transfer_matrix(spec, source_params, pool, dataset, eps, n_examples=100,
                    targeted=True) -> TransferReport:
    """Attack the source model, test every pool member on the examples.

    pool is a list of (model_id, ParamSet). Targets default to
    (true label + 1) mod classes. The first n_examples of the dataset are
    used, deterministically.
    """
    if not pool:
        raise ConfigRangeError("pool is empty")
    n = min(check_count("n_examples", n_examples), len(dataset))
    x = dataset.features[:n]
    y = dataset.labels[:n]
    adv_u = fgsm_batch(spec, source_params, x, y, eps)
    adv_t = None
    targets = None
    if targeted:
        targets = (y + 1) % dataset.classes
        adv_t = fgsm_batch(spec, source_params, x, y, eps, targets=targets)
    rows = []
    for model_id, params in pool:
        clean = float((forward(spec, params, x).argmax(axis=1) == y).mean())
        pred_u = forward(spec, params, adv_u).argmax(axis=1)
        untargeted = float((pred_u != y).mean())
        row = TransferRow(str(model_id), clean, untargeted)
        if targeted:
            pred_t = forward(spec, params, adv_t).argmax(axis=1)
            row.targeted_success = float((pred_t == targets).mean())
        rows.append(row)
    return TransferReport(rows, eps, n)
