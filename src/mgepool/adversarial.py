"""FGSM attack generation and the cross-model transfer experiment.

Inputs live in [0, 1]; perturbed features are always clipped back into
that range after the signed step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigRangeError, check_count
from .nn import eval_batches, forward, loss_and_grads, n_correct


@dataclass
class TransferRow:
    model_id: str
    clean_accuracy: float
    untargeted_success: float
    targeted_success: float


@dataclass
class TransferReport:
    rows: list
    eps: float
    n_examples: int

    def to_text(self):
        lines = ["model_id\tclean\tuntargeted\ttargeted"]
        for r in self.rows:
            lines.append(f"{r.model_id}\t{r.clean_accuracy:.4f}\t"
                         f"{r.untargeted_success:.4f}\t{r.targeted_success:.4f}")
        return "\n".join(lines) + "\n"


def _check_eps(eps):
    if not (0 <= eps < np.inf):
        raise ConfigRangeError(f"eps {eps} must be finite and >= 0")


def _step(x, g, out, *, eps, targeted):
    """FGSM's step from rows ``x`` along their input gradient ``g``, clipped
    to [0, 1], written into ``out``: the one place it is written."""
    return np.clip(x - eps * np.sign(g) if targeted else x + eps * np.sign(g), 0.0, 1.0,
                   out=out)


def fgsm_batch(spec, params, features, labels, eps, targets=None, *, taped=None):
    """Signed-gradient step on a batch (an array or an EvalSet; one example
    ``x`` is the batch ``x[None]``), clipped to [0, 1].

    Untargeted: ascend the loss at the true label. Targeted: descend the
    loss at the target label. The gradient is ``nn.loss_and_grads`` on the
    batch's ``nn.forward(..., tape=True)``: ``taped`` if given (it must have
    been made on these rows, else StructuralError), else made here. The
    recorded backward steps each image-stage tile's rows on that tile's
    worker, as soon as the tile's gradient is formed.
    """
    _check_eps(eps)
    # the taped forward checks that an array batch is finite
    logits, back = taped or forward(spec, params, features, tape=True)
    step = partial(_step, eps=eps, targeted=targets is not None)
    return loss_and_grads(spec, params, features, labels if targets is None else targets,
                          taped=(logits, partial(back, step=step)))[2]


def robust_accuracy(spec, params, dataset, eps, *, taped=None) -> float:
    """Accuracy on white-box FGSM-perturbed examples at strength eps.

    ``dataset`` is a Dataset or an EvalSet; on an EvalSet the attack's
    forward pass takes the first layer's im2col from its cache. ``taped``,
    the ``nn.forward(..., tape=True)`` of ``params`` on all of ``dataset``'s
    rows (at most ``EVAL_BATCH``, so one batch), goes to ``fgsm_batch``,
    which refuses a pass taped on other rows (StructuralError).

    The attack is one pass over the image-stage tiles: ``fgsm_batch``'s
    backward, asked here to score, runs each tile's stepped rows through
    the image stage on the tile's worker, and the calling thread runs the
    vector stage once on the joined features. The logits it counts are the
    bytes ``nn.forward`` of ``fgsm_batch``'s perturbed batch gives.
    """
    _check_eps(eps)
    correct = 0
    for features, labels in eval_batches(dataset):
        logits, back = taped or forward(spec, params, features, tape=True)
        scored = []
        fgsm_batch(spec, params, features, labels, eps,
                   taped=(logits, partial(back, score=scored.append)))
        correct += n_correct(scored.pop(), labels)
    return correct / len(dataset)


def transfer_matrix(spec, source_params, pool, dataset, eps, n_examples=100) -> TransferReport:
    """Attack the source model, test every pool member on the examples.

    pool is a list of (model_id, ParamSet). Each member gets the untargeted
    attack's success rate and the targeted one's, whose target is (true
    label + 1) mod classes. The first n_examples of the dataset are used,
    deterministically. Both attacks step from one taped forward of them.
    """
    if not pool:
        raise ConfigRangeError("pool is empty")
    n = min(check_count("n_examples", n_examples), len(dataset))
    _check_eps(eps)  # before the taped forward
    x = dataset.features[:n]
    y = dataset.labels[:n]
    targets = (y + 1) % dataset.classes
    taped = forward(spec, source_params, x, tape=True)
    adv_u = fgsm_batch(spec, source_params, x, y, eps, taped=taped)
    adv_t = fgsm_batch(spec, source_params, x, y, eps, targets=targets, taped=taped)
    rows = []
    for model_id, params in pool:
        clean = float((forward(spec, params, x).argmax(axis=1) == y).mean())
        untargeted = float((forward(spec, params, adv_u).argmax(axis=1) != y).mean())
        targeted = float((forward(spec, params, adv_t).argmax(axis=1) == targets).mean())
        rows.append(TransferRow(str(model_id), clean, untargeted, targeted))
    return TransferReport(rows, eps, n)
