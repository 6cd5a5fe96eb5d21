"""Measure how differently generated models behave under attack.

Crafts FGSM adversarial examples against the base model, then checks
how well they transfer to each generated pool member. Models produced
by spectral resampling keep the base model's clean accuracy yet resist
a noticeable fraction of its adversarial examples.

Run with:  python3 demos/demo_adversarial.py
"""

from mgepool import (
    GeneratorConfig,
    TrainConfig,
    generate_pool,
    make_synthetic,
    mlp,
    robust_accuracy,
    split_dataset,
    train,
    transfer_matrix,
)
from mgepool.nn import Dataset


def main():
    spec = mlp([2, 64, 3])
    full = make_synthetic("blobs", 600, 3, seed=1, noise=0.12)
    splits = split_dataset(full, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=2)
    base, _ = train(spec, splits["train"],
                    TrainConfig(epochs=40, learning_rate=0.01, seed=3))

    pool = generate_pool(base, spec, GeneratorConfig(seed=5),
                         splits["val"], count=10)
    test = splits["test"]
    sample = Dataset(test.features[:100], test.labels[:100], test.classes)

    print("white-box robust accuracy of the base model:")
    for eps in (0.0, 0.05, 0.1, 0.2):
        acc = robust_accuracy(spec, base, sample, eps)
        print(f"  eps={eps:.2f}  robust accuracy {acc:.4f}")

    eps = 0.2
    members = [(str(c.cand_id), c.params) for c in pool.candidates]
    report = transfer_matrix(spec, base, members, sample, eps=eps,
                             n_examples=100)
    base_success = 1.0 - robust_accuracy(spec, base, sample, eps)
    print(f"\n100 FGSM examples at eps={eps} crafted against the base "
          f"(self-success {base_success:.2f}); transfer to the pool:")
    print(report.to_text())

    resistant = min(report.rows, key=lambda r: r.untargeted_success)
    gap = base_success - resistant.untargeted_success
    print(f"most resistant member: id {resistant.model_id}, "
          f"fooled {resistant.untargeted_success:.2f} of the time "
          f"({gap:.2f} below the base model itself)")


if __name__ == "__main__":
    main()
