"""Look inside the spectral importance machinery.

Shows, for a trained model, how much of each layer's energy the
retained DCT coefficients cover, how accuracy decays as the low-energy
tail is zeroed out, and how sensitive each spectral band is to noise.

Run with:  python3 demos/demo_spectrum_analysis.py
"""

import numpy as np

from mgepool import (
    TrainConfig,
    band_sensitivity,
    cumulative_energy,
    dct2,
    importance_mask,
    make_synthetic,
    mlp,
    split_dataset,
    train,
    zero_fill_decay,
)


def main():
    spec = mlp([2, 64, 3])
    full = make_synthetic("blobs", 600, 3, seed=1, noise=0.12)
    splits = split_dataset(full, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=2)
    base, _ = train(spec, splits["train"],
                    TrainConfig(epochs=40, learning_rate=0.01, seed=3))

    # each entry is transformed once; every diagnostic below reads these
    coeffs = [dct2(e.values) for e in base.entries]
    print("retained coefficients per layer at t=0.8:")
    for e, c in zip(base.entries, coeffs):
        row = importance_mask(c, 0.8)
        kept = int(row.keep.sum())
        print(f"  {e.name:<16s} {kept:>4d} / {e.values.size:<4d} "
              f"coefficients carry {row.energy_fraction:.1%} of the energy")

    print("\nhow fast does cumulative energy saturate? (layer0.weight)")
    curve = cumulative_energy(coeffs[0])
    for frac in (0.5, 0.8, 0.9, 0.99):
        k = int(np.searchsorted(curve, frac) + 1)
        print(f"  {frac:.0%} of energy in the top {k} of {len(curve)} coefficients")

    print("\nzero-fill decay (test accuracy after zeroing the low-energy tail):")
    fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    for f, acc in zero_fill_decay(base, coeffs, spec, splits["test"], fractions):
        bar = "#" * int(round(acc * 40))
        print(f"  fill {f:.2f}  acc {acc:.4f}  {bar}")

    print("\nband sensitivity (accuracy after perturbing one spectral third):")
    bands = [(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)]
    for (lo, hi), acc in band_sensitivity(base, coeffs, spec, splits["test"], bands,
                                          scale=0.05, seed=0):
        print(f"  band [{lo:.2f}, {hi:.2f})  acc {acc:.4f}")


if __name__ == "__main__":
    main()
