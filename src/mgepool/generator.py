"""Core MGE procedure: the base model's spectrum, latent resampling, and
the sample-evaluate-accept loop that builds pools of generated models.

A ``Spectrum`` holds, per layer of the base, the DCT coefficients and the
mask of those carrying at least a fraction t of the energy. Its ``sample``
keeps them and replaces the rest by bounded pseudo-normal draws; both
generation and evolution's mutation draw from it.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from .adversarial import robust_accuracy
from .errors import ConfigRangeError, GenerationFailedError, check_count
from .fitness import criterion_score
from .nn import (ParamEntry, ParamSet, _tile_pool, eval_batches, eval_set, evaluate_accuracy,
                 forward, n_correct)
from .transforms import (
    MAX_LATENT_BOUND,
    RngStream,
    dct2,
    idct2,
    sample_bounded_normal,
)


@dataclass
class GeneratorConfig:
    """Knobs of the generation loop. Defaults follow the standard recipe:
    t=0.8, z=0.2, 100 attempts per wanted model, tolerance 0.05."""

    t: float = 0.8
    z: float = 0.2
    attempts: int = 100
    epsilon: float = 0.05
    seed: int = 0
    adaptive_z: bool = False  # halve z after every 10 consecutive rejections

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0):
            raise ConfigRangeError(f"energy threshold t={self.t} outside [0, 1]")
        if not (0.0 < self.z <= MAX_LATENT_BOUND):
            raise ConfigRangeError(f"latent bound z={self.z} outside (0, {MAX_LATENT_BOUND}]")
        self.attempts = check_count("attempts", self.attempts)
        self.seed = check_count("seed", self.seed, least=0)
        if not (0.0 < self.epsilon < np.inf):
            raise ConfigRangeError(f"acceptance tolerance {self.epsilon} must be finite and > 0")
        if type(self.adaptive_z) is not bool:
            raise ConfigRangeError(f"adaptive_z must be true or false, got {self.adaptive_z!r}")


@dataclass
class MaskRow:
    """Retention mask over one layer's DCT coefficients."""

    keep: np.ndarray          # bool, True = retained
    energy_fraction: float    # energy actually carried by the retained set
    coeffs: np.ndarray        # the coefficients the mask was computed from


@dataclass
class Candidate:
    params: ParamSet
    accuracy: float = None
    accepted: bool = None
    seconds: float = 0.0
    seed: int = -1            # attempt index or child-stream key
    cand_id: int = -1
    lineage: tuple = ("seed", ())
    f_q: float = None
    f_d: float = None
    f: float = None


@dataclass
class PoolResult:
    candidates: list
    attempts: int
    seconds: float
    base_accuracy: float
    spectrum: Spectrum        # the base's, which every attempt sampled


def importance_mask(coeffs, t) -> MaskRow:
    """Minimal coefficient set, by descending |c|^2, reaching energy >= t.

    Ties in magnitude resolve to the lower index. t=0 keeps nothing,
    t=1 keeps everything. An all-zero spectrum has no energy to split, so
    every coefficient is kept: resampling would add energy the layer never
    had.
    """
    if not (0.0 <= t <= 1.0):
        raise ConfigRangeError(f"t={t} outside [0, 1]")
    c = np.asarray(coeffs, dtype=np.float64)
    energy = c * c
    total = energy.sum()
    keep = np.zeros(c.size, dtype=bool)
    if t == 0.0 and total > 0.0:
        return MaskRow(keep, 0.0, c)
    if t >= 1.0 or total == 0.0:
        keep[:] = True
        return MaskRow(keep, 1.0, c)
    # the energies in descending order, as a stable descending argsort would
    # rank them, so the cumsum is the same bytes; that argsort's tie rule
    # (lower index first) is applied at the floor, the last kept value
    ranked = np.sort(energy)[::-1]
    frac = np.cumsum(ranked) / total
    count = min(int(np.searchsorted(frac, t, side="left")) + 1, c.size)
    floor = ranked[count - 1]
    np.greater(energy, floor, out=keep)
    ties = np.flatnonzero(energy == floor)  # ascending index: the stable order
    keep[ties[:count - int(np.count_nonzero(keep))]] = True
    return MaskRow(keep, float(frac[count - 1]), c)


def generate_layer(coeffs, replace, z, rng) -> np.ndarray:
    """Splice fresh bounded-normal draws in [-z, z] into a copy of ``coeffs``
    at the positions ``replace`` (a mask's dropped ones) and return the
    inverse DCT."""
    merged = coeffs.copy()
    if replace.size:
        merged[replace] = sample_bounded_normal(z, replace.size, rng)
    return idct2(merged)


class Spectrum:
    """The base model's spectrum at energy threshold ``t``, computed once:
    ``rows`` holds each entry's MaskRow (DCT coefficients and keep-mask),
    ``replaced`` each row's positions that the mask does not keep, and
    ``layout`` the entries' names and shapes."""

    def __init__(self, base: ParamSet, t: float):
        self.layout = base.layout
        self.rows = [importance_mask(dct2(e.values), t) for e in base.entries]
        # indexing by position beats a bool mask
        self.replaced = [np.flatnonzero(~row.keep) for row in self.rows]

    def sample(self, rng, z) -> ParamSet:
        """A new ParamSet, each layer drawn from its row with ``rng`` in order."""
        return ParamSet([ParamEntry(name, shape, generate_layer(row.coeffs, r, z, rng))
                         for (name, shape), row, r in zip(self.layout, self.rows, self.replaced)])


def accept(candidate_accuracy, base_accuracy, cfg: GeneratorConfig) -> bool:
    """Keep a candidate that beats the base or sits within tolerance of it."""
    return (candidate_accuracy > base_accuracy
            or abs(candidate_accuracy - base_accuracy) < cfg.epsilon)


def score(params, spec, valset, base_accuracy, cfg, fit=None, **fields) -> Candidate:
    """The one admission test for generated, mutated and fused models.

    The candidate keeps full-precision parameters, but its accuracy is
    measured on the float32-rounded copy, so the accepted flag holds for
    the persisted form of the model. ``valset`` is a Dataset or an
    EvalSet. ``fields`` fill the other Candidate fields.

    Given a FitnessConfig ``fit``, an admitted candidate also gets its
    (f_q, f_d, f = f_q + gamma * f_d), each criterion scored on the same
    float32 copy. A criterion on ``valset``'s rows (one Dataset, given bare
    or in an EvalSet) reuses the admission pass: plain accuracy takes the
    accuracy measured here. If one runs FGSM on those rows and they make
    one ``nn.eval_batches`` batch, the forward is taped
    (``nn.forward(..., tape=True)``): its logits give the accuracy, and
    every FGSM criterion on the rows hands the ``(logits, back)`` to
    ``robust_accuracy`` as ``taped``. It is dropped when this returns. Any
    other criterion runs its own pass (``fitness.criterion_score``).
    """
    p = params.as_float32()
    rows = eval_set(valset).dataset

    def on_rows(crit):
        return crit is not None and eval_set(crit.dataset).dataset is rows

    taped, batches = None, eval_batches(valset)
    if fit is not None and len(batches) == 1 and any(
            on_rows(c) and c.kind == "robust_accuracy" for c in (fit.base, fit.extra)):
        [(features, labels)] = batches
        taped = forward(spec, p, features, tape=True)
        acc = n_correct(taped[0], labels) / len(valset)  # evaluate_accuracy's rule
    else:
        acc = evaluate_accuracy(spec, p, valset)
    cand = Candidate(params=params, accuracy=acc,
                     accepted=accept(acc, base_accuracy, cfg), **fields)
    if fit is not None and cand.accepted:

        def value(crit):
            if crit is None:
                return 0.0
            if on_rows(crit) and crit.kind == "accuracy":
                return acc
            if on_rows(crit):  # FGSM, on the taped pass when there is one
                return robust_accuracy(spec, p, crit.dataset, crit.attack_eps, taped=taped)
            return criterion_score(spec, p, crit)

        cand.f_q, cand.f_d = value(fit.base), value(fit.extra)
        cand.f = cand.f_q + fit.gamma * cand.f_d
    return cand


def generate_pool(base, spec, cfg, valset, count, fit=None) -> PoolResult:
    """Collect `count` accepted candidates within cfg.attempts * count tries.

    ``valset`` is a Dataset or an EvalSet. A Dataset is wrapped in an
    EvalSet for the length of this call, so the first layer's im2col of the
    validation set is built once and shared by every evaluation. Every
    attempt samples the base's ``Spectrum(base, cfg.t)``, built once here
    and handed back as the result's ``spectrum``, then is scored
    (``score``, with ``fit`` if given, so that every accepted candidate
    carries its fitness).

    While attempt a is scored on the calling thread, the tile pool
    (``nn._tile_pool``) draws ahead every attempt a + d that is certain to
    run with the current z, whatever the attempts before it decide: the
    pool is not full even if all of them are accepted (``len(accepted) + d
    < count``), the budget allows it (``a + d < budget``), and with
    ``adaptive_z`` none of ``consecutive + 1 ... consecutive + d`` is a
    multiple of 10, so no run of rejections halves z first (that keeps d
    under 10, so a run that an acceptance restarts cannot reach 10 either).
    Up to two draws per pool worker are held, one running and one queued.
    So each attempt a draws once, in attempt order, from its own stream
    ``root.child(a)``, and the pool is the one a plain loop of
    ``score(spectrum.sample(...))`` gives, byte for byte. A candidate's
    ``seconds`` is the wait for its draw plus its scoring. No draw outlives
    the call.
    """
    count = check_count("count", count)
    spectrum = Spectrum(base, cfg.t)
    valset = eval_set(valset)
    base_acc = evaluate_accuracy(spec, base.as_float32(), valset)
    root = RngStream(cfg.seed)
    budget = cfg.attempts * count
    window = 2 * _tile_pool.workers()
    accepted, attempts, consecutive, z = [], 0, 0, cfg.z
    ahead = deque()  # the Futures of the attempts drawn ahead, in attempt order
    t0 = time.perf_counter()
    try:
        while len(accepted) < count and attempts < budget:
            t1 = time.perf_counter()
            if ahead:
                params = ahead.popleft().result()
            else:
                params = spectrum.sample(root.child(attempts).generator(), z)
            d = len(ahead) + 1  # the next attempt to draw is attempts + d
            while (d <= window and len(accepted) + d < count and attempts + d < budget
                   and not (cfg.adaptive_z and (consecutive + d) % 10 == 0)):
                ahead.append(_tile_pool.submit(spectrum.sample,
                                               root.child(attempts + d).generator(), z))
                d += 1
            cand = score(params, spec, valset, base_acc, cfg, fit=fit, seed=attempts)
            cand.seconds = time.perf_counter() - t1
            attempts += 1
            if cand.accepted:
                cand.cand_id = len(accepted)
                accepted.append(cand)
                consecutive = 0
            else:
                consecutive += 1
                if cfg.adaptive_z and consecutive % 10 == 0:
                    z = max(z / 2.0, 1e-6)
    finally:
        wait(ahead)  # an attempt raised: let the draws ahead finish
    elapsed = time.perf_counter() - t0
    if not accepted:
        raise GenerationFailedError(
            f"no candidate accepted in {attempts} attempts", attempts, budget)
    return PoolResult(accepted, attempts, elapsed, base_acc, spectrum)


# ---------------------------------------------------------------------------
# spectrum diagnostics


def unimportant_mask_spatial(layer_values, fraction) -> np.ndarray:
    """Parameter positions most affected by zeroing the middle third of a
    layer's spectrum.

    Zeroes that band's lowest-|magnitude| share of coefficients, inverse-
    transforms, and marks the top `fraction` of positions by |delta| as
    unimportant. fraction=0 yields an empty mask.
    """
    if not (0.0 <= fraction < 1.0):
        raise ConfigRangeError(f"fraction={fraction} outside [0, 1)")
    v = np.asarray(layer_values, dtype=np.float64)
    n = v.size
    mask = np.zeros(n, dtype=bool)
    if fraction == 0.0:
        return mask
    c = dct2(v)
    third = n // 3
    band_idx = np.arange(third, max(2 * third, third + 1))
    k_band = int(np.ceil(fraction * band_idx.size))
    order = band_idx[np.argsort(np.abs(c[band_idx]), kind="stable")]
    zeroed = c.copy()
    zeroed[order[:k_band]] = 0.0
    delta = np.abs(idct2(zeroed) - v)
    k = int(np.ceil(fraction * n))
    top = np.argsort(-delta, kind="stable")[:k]  # ties: lowest index first
    mask[top] = True
    return mask


def zero_fill_decay(base, spec, testset, fractions):
    """Accuracy after zeroing the lowest-energy share of each layer's spectrum.

    Each entry of ``base`` is transformed, and its energies ranked, once per
    call; every fraction zeroes a copy of those coefficients."""
    fractions = list(fractions)
    if fractions != sorted(fractions) or not all(0 <= f <= 1 for f in fractions):
        raise ConfigRangeError("fractions must be ascending within [0, 1]")
    coeffs = [dct2(e.values) for e in base.entries]
    ranked = [np.argsort(c * c, kind="stable") for c in coeffs]
    curve = []
    for f in fractions:
        if f == 0.0:
            curve.append((f, evaluate_accuracy(spec, base, testset)))
            continue
        zeroed = base.copy()
        for e, c, order in zip(zeroed.entries, coeffs, ranked):
            c = c.copy()
            c[order[:int(round(f * c.size))]] = 0.0
            e.values[:] = idct2(c)
        curve.append((f, evaluate_accuracy(spec, zeroed, testset)))
    return curve


def band_sensitivity(base, spec, testset, bands, scale, seed=0):
    """Accuracy after perturbing each coefficient index band independently.

    Each entry of ``base`` is transformed once per call; every band perturbs
    a copy of those coefficients, and an entry too small to hold any of the
    band keeps the base's own values."""
    for i, (lo, hi) in enumerate(bands):
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigRangeError(f"band {i} bounds invalid")
        for lo2, hi2 in bands[i + 1:]:
            if lo < hi2 and lo2 < hi:
                raise ConfigRangeError("bands overlap")
    root = RngStream(check_count("seed", seed, least=0))
    if scale == 0.0:
        acc = evaluate_accuracy(spec, base, testset)
        return [((lo, hi), acc) for lo, hi in bands]
    coeffs = [dct2(e.values) for e in base.entries]
    results = []
    for bi, (lo, hi) in enumerate(bands):
        rng = root.child(bi).generator()
        perturbed = base.copy()
        for e, c in zip(perturbed.entries, coeffs):
            a, b = int(lo * c.size), int(hi * c.size)
            if b > a:
                c = c.copy()
                c[a:b] += sample_bounded_normal(scale, b - a, rng)
                e.values[:] = idct2(c)
        results.append(((lo, hi), evaluate_accuracy(spec, perturbed, testset)))
    return results
