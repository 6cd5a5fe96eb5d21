"""Evolve a generated pool toward a second objective.

Seeds a population from the generator, then runs the evolutionary loop
(mutation = a fresh draw from the base's spectrum, fusion = weighted
parameter averaging, elitist selection) with a combined fitness that
rewards both clean accuracy and robustness to FGSM perturbations.

Run with:  python3 demos/demo_evolution.py
"""

from mgepool import (
    Criterion,
    EvolutionConfig,
    FitnessConfig,
    GeneratorConfig,
    TrainConfig,
    evolve,
    generate_pool,
    make_synthetic,
    mlp,
    robust_accuracy,
    split_dataset,
    train,
)


def main():
    spec = mlp([2, 64, 3])
    full = make_synthetic("blobs", 600, 3, seed=1, noise=0.12)
    splits = split_dataset(full, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=2)
    base, _ = train(spec, splits["train"],
                    TrainConfig(epochs=40, learning_rate=0.01, seed=3))
    val = splits["val"]

    fit = FitnessConfig(
        base=Criterion("accuracy", val),
        extra=Criterion("robust_accuracy", val, attack_eps=0.1),
        gamma=4.0,
    )
    gcfg = GeneratorConfig(seed=41)
    ecfg = EvolutionConfig(generations=50, parents=10, mutations=10,
                           fusions=20, seed=42)

    seed_pool = generate_pool(base, spec, gcfg, val, count=ecfg.parents)
    seed_best = max(robust_accuracy(spec, c.params, val, 0.1)
                    for c in seed_pool.candidates)
    print(f"seed pool of {len(seed_pool.candidates)}: "
          f"best robust accuracy (eps=0.1) = {seed_best:.4f}")

    best, history = evolve(base, spec, gcfg, ecfg, fit, val)
    print(f"\ngeneration  max_F    mean_F   best_id")
    for h in history[:: max(1, len(history) // 12)]:
        print(f"{h.generation:>10d}  {h.max_f:.4f}  {h.mean_f:.4f}  {h.best_id}")

    evolved = robust_accuracy(spec, best.params, val, 0.1)
    print(f"\nbest individual after {ecfg.generations} generations "
          f"(lineage {best.lineage[0]}):")
    print(f"  clean accuracy  {best.accuracy:.4f}")
    print(f"  robust accuracy {evolved:.4f}  "
          f"(seed-pool best was {seed_best:.4f})")


if __name__ == "__main__":
    main()
