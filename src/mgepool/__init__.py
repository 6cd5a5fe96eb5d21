"""Training-free model generation and evolutionary enhancement.

A trained network's per-layer parameters are mapped to the frequency
domain; the coefficients carrying most of the spectral energy are kept
and the rest are resampled, yielding new models that an accuracy-based
discriminator accepts or rejects. An evolutionary loop (mutation, fusion,
fitness selection) then pushes accepted models toward additional criteria
such as adversarial robustness.
"""

from .adversarial import TransferReport, fgsm_batch, robust_accuracy, transfer_matrix
from .evolution import EvolutionConfig, evolve, fuse, mutate, select
from .fitness import Criterion, FitnessConfig
from .generator import (
    Candidate,
    GeneratorConfig,
    Spectrum,
    accept,
    band_sensitivity,
    generate_layer,
    generate_pool,
    importance_mask,
    unimportant_mask_spatial,
    zero_fill_decay,
)
from .nn import (
    Dataset,
    EvalSet,
    NetworkSpec,
    ParamSet,
    TrainConfig,
    evaluate_accuracy,
    forward,
    lenet_like,
    load_idx,
    load_idx_dataset,
    make_synthetic,
    mlp,
    split_dataset,
    train,
)
from .store import load_model, save_model, time_ratio
from .transforms import RngStream, cumulative_energy, dct2, idct2, sample_bounded_normal

__version__ = "0.1.0"
