"""Orthonormal DCT-II transform pair, energy ranking, and bounded sampling.

Everything here operates on flat 1-D float64 vectors and, apart from the
sampler's draws from the generator it is given, is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigRangeError, DegenerateSpectrumError, InvalidInputError, check_count

MAX_LATENT_BOUND = 0.2


@dataclass(frozen=True)
class RngStream:
    """Reproducible PCG64 random stream keyed by an integer seed >= 0.

    Child streams are derived deterministically from (seed, key...) so that
    distinct candidates never share a stream.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def child(self, *key: int) -> "RngStream":
        ss = np.random.SeedSequence([self.seed, *key])
        return RngStream(int(ss.generate_state(1, np.uint64)[0]))


def _as_vector(x, name="input") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return v


def dct2(x) -> np.ndarray:
    """Orthonormal DCT-II of a flat vector. Preserves the 2-norm."""
    v = _as_vector(x)
    return scipy.fft.dct(v, type=2, norm="ortho")


def idct2(c) -> np.ndarray:
    """Exact inverse of dct2 (orthonormal DCT-III)."""
    v = _as_vector(c)
    return scipy.fft.idct(v, type=2, norm="ortho")


def cumulative_energy(c) -> np.ndarray:
    """Running energy fraction of coefficients sorted by descending |c|^2.

    The last entry is exactly 1.0.
    """
    v = _as_vector(c)
    energy = v * v
    total = energy.sum()
    if total == 0.0:
        raise DegenerateSpectrumError("all-zero coefficient vector")
    frac = np.cumsum(np.sort(energy)[::-1]) / total  # ranked as importance_mask ranks
    frac[-1] = 1.0
    return np.minimum(frac, 1.0)


def sample_bounded_normal(z: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal with sigma = z/3, rejection-resampled into [-z, z]."""
    if not (0.0 < z <= MAX_LATENT_BOUND):
        raise ConfigRangeError(f"latent bound z={z} outside (0, {MAX_LATENT_BOUND}]")
    sigma = z / 3.0
    out = rng.normal(0.0, sigma, size=check_count("count", count))
    bad = np.abs(out) > z
    while bad.any():
        out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(out) > z
    return out
