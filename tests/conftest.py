import os
from types import SimpleNamespace

import pytest

from mgepool import (
    GeneratorConfig,
    TrainConfig,
    evaluate_accuracy,
    generate_pool,
    make_synthetic,
    mlp,
    nn,
    split_dataset,
    train,
)

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def input_gradient(spec, params, features, labels):
    """FGSM's input gradient of a batch (an array or an EvalSet), formed as
    ``adversarial.fgsm_batch`` forms it: the loss's on the taped forward."""
    taped = nn.forward(spec, params, features, tape=True)
    return nn.loss_and_grads(spec, params, features, labels, taped=taped)[2]


def mnist_dir():
    """Directory holding the four standard MNIST IDX files, or None."""
    root = os.environ.get("MGE_MNIST_DIR", os.path.join("data", "mnist"))
    if all(os.path.exists(os.path.join(root, f)) for f in MNIST_FILES):
        return root
    return None


@pytest.fixture(scope="session")
def desk():
    """Desk-scale fixture: trained MLP on 3-class blobs plus a 20-model pool."""
    spec = mlp([2, 64, 3])
    full = make_synthetic("blobs", 600, 3, seed=1, noise=0.12)
    splits = split_dataset(full, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=2)
    base, train_seconds = train(
        spec, splits["train"], TrainConfig(epochs=40, learning_rate=0.01, seed=3))
    gcfg = GeneratorConfig(seed=5)
    pool = generate_pool(base, spec, gcfg, splits["val"], 20)
    return SimpleNamespace(
        spec=spec,
        splits=splits,
        base=base,
        train_seconds=train_seconds,
        base_accuracy=pool.base_accuracy,
        test_accuracy=evaluate_accuracy(spec, base.as_float32(), splits["test"]),
        gcfg=gcfg,
        pool=pool,
    )
