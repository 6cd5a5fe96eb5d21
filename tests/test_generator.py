import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mgepool import (
    Criterion,
    EvolutionConfig,
    FitnessConfig,
    GeneratorConfig,
    RngStream,
    accept,
    band_sensitivity,
    dct2,
    evaluate_accuracy,
    evolve,
    generate_layer,
    generate_pool,
    generator,
    importance_mask,
    make_synthetic,
    mlp,
    mutate,
    unimportant_mask_spatial,
    zero_fill_decay,
)
from mgepool.errors import ConfigRangeError, GenerationFailedError, StructuralError, check_count
from mgepool.generator import Spectrum
from mgepool.nn import Dataset, ParamEntry, ParamSet, init_params, param_layout
from mgepool.transforms import cumulative_energy, idct2, sample_bounded_normal
from test_transforms import ks_statistic, naive_idct2


def stable_argsort_mask(coeffs, t):
    """(keep, energy_fraction) of ``importance_mask`` as it ranked by a stable
    descending argsort, verbatim."""
    c = np.asarray(coeffs, dtype=np.float64)
    energy = c * c
    total = energy.sum()
    keep = np.zeros(c.size, dtype=bool)
    if t == 0.0 and total > 0.0:
        return keep, 0.0
    if t >= 1.0 or total == 0.0:
        keep[:] = True
        return keep, 1.0
    order = np.argsort(-energy, kind="stable")
    frac = np.cumsum(energy[order]) / total
    count = min(int(np.searchsorted(frac, t, side="left")) + 1, c.size)
    keep[order[:count]] = True
    return keep, float(frac[count - 1])


def stable_argsort_energy(coeffs):
    """``cumulative_energy`` as it ranked by a stable descending argsort,
    verbatim."""
    c = np.asarray(coeffs, dtype=np.float64)
    energy = c * c
    frac = np.cumsum(energy[np.argsort(-energy, kind="stable")]) / energy.sum()
    frac[-1] = 1.0
    return np.minimum(frac, 1.0)


def zero_fill_per_fraction(base, spec, testset, fractions):
    """``zero_fill_decay`` as it transformed every entry once per fraction,
    verbatim."""
    fractions = list(fractions)
    if fractions != sorted(fractions) or not all(0 <= f <= 1 for f in fractions):
        raise ConfigRangeError("fractions must be ascending within [0, 1]")
    curve = []
    for f in fractions:
        if f == 0.0:
            curve.append((f, evaluate_accuracy(spec, base, testset)))
            continue
        zeroed = base.copy()
        for e in zeroed.entries:
            c = dct2(e.values)
            k = int(round(f * c.size))
            c[np.argsort(c * c, kind="stable")[:k]] = 0.0
            e.values[:] = idct2(c)
        curve.append((f, evaluate_accuracy(spec, zeroed, testset)))
    return curve


def band_sensitivity_per_band(base, spec, testset, bands, scale, seed=0):
    """``band_sensitivity`` as it transformed every entry once per band,
    verbatim."""
    for i, (lo, hi) in enumerate(bands):
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigRangeError(f"band {i} bounds invalid")
        for lo2, hi2 in bands[i + 1:]:
            if lo < hi2 and lo2 < hi:
                raise ConfigRangeError("bands overlap")
    root = RngStream(check_count("seed", seed, least=0))
    results = []
    for bi, (lo, hi) in enumerate(bands):
        if scale == 0.0:
            results.append(((lo, hi), evaluate_accuracy(spec, base, testset)))
            continue
        rng = root.child(bi).generator()
        perturbed = base.copy()
        for e in perturbed.entries:
            a, b = int(lo * e.values.size), int(hi * e.values.size)
            if b > a:
                c = dct2(e.values)
                c[a:b] += sample_bounded_normal(scale, b - a, rng)
                e.values[:] = idct2(c)
        results.append(((lo, hi), evaluate_accuracy(spec, perturbed, testset)))
    return results


def unimportant_mask_transforming(layer_values, fraction):
    """``unimportant_mask_spatial`` as it transformed the layer itself,
    verbatim."""
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


def spectra(params):
    """The ``dct2`` of each entry of ``params``, as a caller of the spectrum
    diagnostics hands them over."""
    return [dct2(e.values) for e in params.entries]


# coefficient vectors with many ties: rounded values and exact zeros,
# all-equal vectors (length 1 among them), and magnitudes whose squares
# overflow to inf
mask_coefficients = st.one_of(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=60).map(
        lambda v: np.round(np.asarray(v), 1)),
    st.lists(st.integers(-3, 3), min_size=1, max_size=60).map(
        lambda v: np.asarray(v, dtype=np.float64) * 0.5),
    st.tuples(st.sampled_from([0.0, -0.0, 0.1, -2.5, 1e200]), st.integers(1, 20)).map(
        lambda a: np.full(a[1], a[0])),
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e150, -1e160, 1e200, 1.5e154]),
             min_size=1, max_size=30).map(np.asarray),
    st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=30).map(
        np.asarray),
)


class TestImportanceMask:
    def test_full_retention(self):
        c = np.array([3.0, -1.0, 0.5, 0.0])
        row = importance_mask(c, 1.0)
        assert row.keep.all()
        assert row.energy_fraction == 1.0

    def test_empty_at_zero(self):
        row = importance_mask(np.array([1.0, 2.0]), 0.0)
        assert not row.keep.any()

    def test_energy_example(self):
        # squared-magnitude fractions 0.5 / 0.3 / 0.2, threshold 0.8
        c = np.sqrt(np.array([0.5, 0.3, 0.2]))
        row = importance_mask(c, 0.8)
        assert row.keep.tolist() == [True, True, False]
        # exhaustive check: no smaller prefix (by energy order) reaches 0.8
        energies = sorted(c * c, reverse=True)
        assert sum(energies[:1]) < 0.8 <= sum(energies[:2]) + 1e-12

    def test_minimal_prefix_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.normal(size=17)
            t = rng.uniform(0.05, 0.95)
            row = importance_mask(c, t)
            kept = np.sort((c * c)[row.keep])[::-1]
            total = (c * c).sum()
            assert kept.sum() / total >= t
            # dropping the weakest kept coefficient falls below t
            assert (kept.sum() - kept[-1]) / total < t

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ints=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
           t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_minimality_property(self, ints, t):
        """The kept set reaches t, and dropping any one kept coefficient
        falls below t. Integer coefficients keep every energy sum exact."""
        c = np.asarray(ints, dtype=np.float64)
        total = (c * c).sum()
        assume(total > 0.0)  # with no energy to split, every coefficient is kept
        row = importance_mask(c, t)
        kept = (c * c)[row.keep]
        assert kept.sum() / total >= t and row.energy_fraction >= t
        for e in kept:
            assert (kept.sum() - e) / total < t

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(c=mask_coefficients,
           t=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 1e-12]), st.floats(0.0, 1.0)))
    def test_value_sort_equals_stable_argsort(self, c, t):
        """The keep-mask and energy fraction, byte for byte, of the stable
        descending argsort ranking that the value sort replaced; and so is
        ``cumulative_energy``'s curve, for a spectrum with energy."""
        with np.errstate(over="ignore", invalid="ignore"):  # squares that overflow
            row = importance_mask(c, t)
            keep, fraction = stable_argsort_mask(c, t)
            if (c * c).sum() > 0.0:  # cumulative_energy refuses a spectrum of no energy
                assert cumulative_energy(c).tobytes() == stable_argsort_energy(c).tobytes()
        assert row.keep.tobytes() == keep.tobytes()
        assert np.float64(row.energy_fraction).tobytes() == np.float64(fraction).tobytes()

    def test_tie_break_lower_index(self):
        row = importance_mask(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert row.keep.tolist() == [True, True, False, False]

    def test_all_zero_keeps_everything(self):
        for t in (0.0, 0.5, 1.0):
            row = importance_mask(np.zeros(3), t)
            assert row.keep.all()
            assert row.energy_fraction == 1.0


class TestAllZeroLayers:
    def test_zero_biases_stay_exactly_zero(self):
        # a freshly initialised net: He weights, all-zero biases
        spec = mlp([2, 4, 2])
        base = init_params(spec, np.random.default_rng(0))
        val = make_synthetic("blobs", 40, 2, seed=1)
        gcfg = GeneratorConfig(seed=2, epsilon=1.0)
        pool = generate_pool(base, spec, gcfg, val, 2)
        child = mutate(pool.candidates[0], Spectrum(base, gcfg.t), gcfg.z, RngStream(3))
        for params in [c.params for c in pool.candidates] + [child.params]:
            for e, b in zip(params.entries, base.entries):
                if e.name.endswith(".bias"):
                    assert not e.values.any()
                else:
                    assert not np.array_equal(e.values, b.values)


class TestGenerateLayer:
    def test_all_true_mask_is_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        row = importance_mask(dct2(x), 1.0)
        out = generate_layer(row.coeffs, np.flatnonzero(~row.keep), GeneratorConfig().z, rng)
        assert np.max(np.abs(out - x)) <= 1e-9

    def test_all_false_mask_small_z_tends_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=32)
        row = importance_mask(dct2(x), 0.0)
        out = generate_layer(row.coeffs, np.flatnonzero(~row.keep), 0.001, rng)
        assert np.max(np.abs(out)) < 0.01

    def test_matches_splice_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8)
        c = dct2(x)
        keep = np.array([True, False, True, False, True, False, True, False])
        out = generate_layer(c, np.flatnonzero(~keep), 0.2, RngStream(77).generator())
        # oracle: same draws, explicit coefficient splice + naive inverse DCT
        draws = sample_bounded_normal(0.2, int((~keep).sum()), RngStream(77).generator())
        merged = c.copy()
        merged[~keep] = draws
        assert np.max(np.abs(out - naive_idct2(merged))) <= 1e-12


class TestAccept:
    def test_equal_accuracy_accepted(self):
        assert accept(0.9, 0.9, GeneratorConfig())

    def test_boundary_is_strict(self):
        # dyadic values so the difference is exactly epsilon
        cfg = GeneratorConfig(epsilon=0.125)
        assert not accept(0.375, 0.5, cfg)

    def test_superior_branch(self):
        assert accept(0.99, 0.90, GeneratorConfig(epsilon=0.05))


class TestGenerateModel:
    def test_identity_generation(self, desk):
        cfg = GeneratorConfig(t=1.0, seed=11)
        sample = Spectrum(desk.base, cfg.t).sample(RngStream(cfg.seed).generator(), cfg.z)
        cand = generator.score(sample, desk.spec, desk.splits["val"], desk.base_accuracy, cfg)
        assert cand.accepted
        for a, b in zip(cand.params.entries, desk.base.entries):
            assert np.max(np.abs(a.values - b.values)) <= 1e-9
        assert cand.accuracy == pytest.approx(desk.base_accuracy, abs=1e-12)

    def test_accepted_candidates_satisfy_predicate(self, desk):
        for cand in desk.pool.candidates:
            assert (cand.accuracy > desk.base_accuracy
                    or abs(cand.accuracy - desk.base_accuracy) < desk.gcfg.epsilon)

    def test_replaced_coefficients_bounded(self, desk):
        spectrum = Spectrum(desk.base, desk.gcfg.t)
        for cand in desk.pool.candidates[:5]:
            for row, e in zip(spectrum.rows, cand.params.entries):
                coeffs = dct2(e.values)
                replaced = coeffs[~row.keep]
                assert np.all(np.abs(replaced) <= desk.gcfg.z + 1e-9)

    def test_energy_retention(self, desk):
        spectrum = Spectrum(desk.base, desk.gcfg.t)
        for row, e in zip(spectrum.rows, desk.base.entries):
            c = dct2(e.values)
            kept = (c * c)[row.keep].sum()
            assert kept / (c * c).sum() >= desk.gcfg.t - 1e-12

    def test_masks_of_another_shape_rejected(self, desk):
        # a model drawn from a spectrum of another layout is refused before it
        # is scored, on the plain admission pass and on the taped one
        other = init_params(mlp([2, 8, 3]), np.random.default_rng(0))
        sample = Spectrum(other, desk.gcfg.t).sample(np.random.default_rng(1), desk.gcfg.z)
        val = desk.splits["val"]
        for fit in (None, FitnessConfig(base=Criterion("robust_accuracy", val, attack_eps=0.1))):
            with pytest.raises(StructuralError):
                generator.score(sample, desk.spec, val, desk.base_accuracy, desk.gcfg, fit=fit)


class TestGeneratePool:
    def test_given_spectrum_gives_the_same_pool(self, desk):
        # the spectrum a pool hands back, sampled with each attempt's stream
        # and scored, gives that pool again, candidate for candidate
        val, cfg = desk.splits["val"], desk.gcfg
        pool = generate_pool(desk.base, desk.spec, cfg, val, 3)
        root = RngStream(cfg.seed)
        again = [generator.score(pool.spectrum.sample(root.child(i).generator(), cfg.z),
                                 desk.spec, val, pool.base_accuracy, cfg, seed=i)
                 for i in range(pool.attempts)]
        kept = [c for c in again if c.accepted]
        assert len(kept) == len(pool.candidates)
        for a, b in zip(kept, pool.candidates, strict=True):
            assert (a.seed, a.accuracy) == (b.seed, b.accuracy)
            assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_the_pool_hands_back_the_one_spectrum_it_sampled(self, desk, monkeypatch):
        built = Spectrum(desk.base, desk.gcfg.t)
        pool = generate_pool(desk.base, desk.spec, desk.gcfg, desk.splits["val"], 3)
        assert pool.spectrum.layout == built.layout
        for a, b in zip(pool.spectrum.rows, built.rows, strict=True):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert a.keep.tobytes() == b.keep.tobytes()
            assert a.energy_fraction == b.energy_fraction
        for a, b in zip(pool.spectrum.replaced, built.replaced, strict=True):
            assert a.tobytes() == b.tobytes()
        # evolve's seed pool and every mutation child share one Spectrum
        made = []
        init = Spectrum.__init__

        def counting(self, base, t):
            made.append(t)
            init(self, base, t)

        monkeypatch.setattr(Spectrum, "__init__", counting)
        evolve(desk.base, desk.spec, desk.gcfg,
               EvolutionConfig(generations=2, parents=2, mutations=2, fusions=1, seed=4),
               FitnessConfig(base=Criterion("accuracy", desk.splits["val"])), desk.splits["val"])
        assert made == [desk.gcfg.t]

    def test_single_attempt_at_full_retention(self, desk):
        pool = generate_pool(desk.base, desk.spec, GeneratorConfig(t=1.0, seed=21),
                             desk.splits["val"], 1)
        assert pool.attempts == 1
        assert len(pool.candidates) == 1

    def test_budget_bound_on_desk_fixture(self, desk):
        pool = generate_pool(desk.base, desk.spec, GeneratorConfig(seed=31),
                             desk.splits["val"], 10)
        assert len(pool.candidates) == 10
        assert pool.attempts <= 1000

    def test_deterministic_pool(self, desk):
        a = generate_pool(desk.base, desk.spec, GeneratorConfig(seed=41),
                          desk.splits["val"], 5)
        b = generate_pool(desk.base, desk.spec, GeneratorConfig(seed=41),
                          desk.splits["val"], 5)
        for ca, cb in zip(a.candidates, b.candidates):
            assert ca.accuracy == cb.accuracy
            for ea, eb in zip(ca.params.entries, cb.params.entries):
                assert np.array_equal(ea.values, eb.values)

    def test_failure_carries_attempt_stats(self, desk):
        # an impossible tolerance forces rejection of every candidate
        shifted = desk.base.copy()
        with pytest.raises(GenerationFailedError) as err:
            # evaluate against a valset the base aces, but with t=0 the
            # candidates are pure noise and near-chance
            generate_pool(shifted, desk.spec,
                          GeneratorConfig(t=0.0, z=0.001, attempts=5, seed=51),
                          desk.splits["val"], 2)
        assert err.value.attempts == 10

    def test_failure_names_the_bar_and_the_best(self, desk, monkeypatch):
        """With t=0 every coefficient is redrawn and no attempt passes: the
        error carries the base accuracy, the bar below which no candidate
        passes, the best accuracy any attempt scored and the final z."""
        scored, score = [], generator.score

        def spy(*args, **kwargs):
            cand = score(*args, **kwargs)
            scored.append(cand.accuracy)
            return cand

        monkeypatch.setattr(generator, "score", spy)
        with pytest.raises(GenerationFailedError) as err:
            generate_pool(desk.base, desk.spec,
                          GeneratorConfig(t=0.0, z=0.2, attempts=3, seed=5),
                          desk.splits["val"], 2)
        exc = err.value
        assert (exc.attempts, exc.budget, len(scored)) == (6, 6, 6)
        assert exc.base_accuracy == desk.base_accuracy
        assert exc.bar == desk.base_accuracy - 0.05
        assert exc.best_accuracy == max(scored) <= exc.bar
        assert exc.z == 0.2
        for number in (exc.best_accuracy, exc.bar, exc.base_accuracy):
            assert f"{number:.4f}" in str(exc)

    def test_distribution_preserved(self, desk):
        pooled = np.concatenate(
            [c.params.flat for c in desk.pool.candidates])
        assert ks_statistic(desk.base.flat, pooled) < 0.1


def pool_z_trace(desk, monkeypatch, decisions, adaptive_z, count=1):
    """The z that each attempt of a ``generate_pool`` run samples with, when
    the i-th accept decision is ``decisions[i]``."""
    decide = iter(decisions)
    monkeypatch.setattr(generator, "accept", lambda *args: next(decide))
    zs, sample = [], Spectrum.sample

    def recording(self, rng, z):
        zs.append(z)
        return sample(self, rng, z)

    monkeypatch.setattr(Spectrum, "sample", recording)
    cfg = GeneratorConfig(z=0.2, attempts=len(decisions), adaptive_z=adaptive_z, seed=5)
    try:
        generate_pool(desk.base, desk.spec, cfg, desk.splits["val"], count)
    except GenerationFailedError:
        pass
    return zs


class TestAdaptiveZ:
    def test_halves_after_every_ten_rejections_down_to_floor(self, desk, monkeypatch):
        zs = pool_z_trace(desk, monkeypatch, [False] * 200, adaptive_z=True)
        assert zs == [max(0.2 / 2 ** (i // 10), 1e-6) for i in range(200)]
        assert zs[180:] == [1e-6] * 20  # 0.2 / 2**18 < 1e-6

    def test_acceptance_resets_the_count_but_not_z(self, desk, monkeypatch):
        decisions = [False] * 15 + [True] + [False] * 12 + [True]
        zs = pool_z_trace(desk, monkeypatch, decisions, adaptive_z=True, count=2)
        assert zs == [0.2] * 10 + [0.1] * 16 + [0.05] * 3

    def test_off_keeps_cfg_z(self, desk, monkeypatch):
        zs = pool_z_trace(desk, monkeypatch, [False] * 30, adaptive_z=False)
        assert zs == [0.2] * 30


class TestUnimportantMaskSpatial:
    def test_zero_fraction_empty(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=30)
        assert not unimportant_mask_spatial(values, dct2(values), 0.0).any()

    def test_degenerate_diff_tie_breaks_low_index(self):
        # layer whose mid band is already zero: delta == 0 everywhere
        c = np.zeros(30)
        c[0] = 5.0  # all energy in the DC coefficient (low band)
        values = idct2(c)
        mask = unimportant_mask_spatial(values, c, 0.10)
        expected = int(np.ceil(0.10 * 30))
        assert mask[:expected].all() and not mask[expected:].any()

    def test_count_matches_top_k_oracle(self, desk):
        e = desk.base.entries[0]
        fraction = 0.10
        mask = unimportant_mask_spatial(e.values, dct2(e.values), fraction)
        k = int(np.ceil(fraction * e.values.size))
        assert int(mask.sum()) == k
        # oracle: recompute delta independently and verify the marked set is
        # exactly the k largest |delta| positions (ties by lower index)
        c = dct2(e.values)
        third = e.values.size // 3
        band = np.arange(third, 2 * third)
        k_band = int(np.ceil(fraction * band.size))
        order = band[np.argsort(np.abs(c[band]), kind="stable")]
        zeroed = c.copy()
        zeroed[order[:k_band]] = 0.0
        delta = np.abs(naive_idct2(zeroed) - e.values)
        chosen = sorted(range(len(delta)), key=lambda i: (-delta[i], i))[:k]
        assert sorted(np.nonzero(mask)[0].tolist()) == sorted(chosen)


class TestZeroFillDecay:
    def test_fraction_zero_equals_base_exactly(self, desk):
        curve = zero_fill_decay(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                                [0.0])
        assert curve[0][1] == evaluate_accuracy(desk.spec, desk.base, desk.splits["test"])

    def test_fraction_one_is_constant_classifier(self, desk):
        curve = zero_fill_decay(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                                [1.0])
        freq0 = float((desk.splits["test"].labels == 0).mean())
        assert curve[0][1] == freq0

    def test_curve_non_increasing_with_slack(self, desk):
        fractions = [0.05 * i for i in range(11)]
        curve = zero_fill_decay(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                                fractions)
        accs = [a for _, a in curve]
        for prev, nxt in zip(accs, accs[1:]):
            assert nxt <= prev + 0.02

    def test_unsorted_fractions_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            zero_fill_decay(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                            [0.5, 0.1])

    @pytest.mark.parametrize("fractions", [[np.nan], [0.1, np.nan], [1.5], [-0.1]])
    def test_fractions_outside_unit_range_rejected(self, desk, fractions):
        with pytest.raises(ConfigRangeError):
            zero_fill_decay(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                            fractions)


class TestBandSensitivity:
    def test_zero_scale_returns_base_accuracy(self, desk):
        bands = [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)]
        results = band_sensitivity(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                                   bands, scale=0.0)
        base_acc = evaluate_accuracy(desk.spec, desk.base, desk.splits["test"])
        assert all(acc == base_acc for _, acc in results)

    def test_reports_every_band(self, desk):
        bands = [(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)]
        results = band_sensitivity(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                                   bands, scale=0.05, seed=7)
        assert len(results) == 3
        assert all(0.0 <= acc <= 1.0 for _, acc in results)

    def test_overlapping_bands_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            band_sensitivity(desk.base, spectra(desk.base), desk.spec, desk.splits["test"],
                             [(0.0, 0.5), (0.4, 1.0)], scale=0.01)


class TestDiagnosticsTransformOnce:
    """The three spectrum diagnostics take each base entry's coefficients
    from the caller, transform nothing themselves, and give what
    transforming each entry once per fraction, band or layer gave, byte for
    byte."""

    def test_the_diagnostics_transform_nothing(self, desk, monkeypatch):
        transformed = []
        monkeypatch.setattr(generator, "dct2", transformed.append)
        coeffs, test = spectra(desk.base), desk.splits["test"]
        zero_fill_decay(desk.base, coeffs, desk.spec, test, [0.0, 0.1, 0.3, 0.5, 1.0])
        band_sensitivity(desk.base, coeffs, desk.spec, test,
                         [(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)], scale=0.05, seed=3)
        for e, c in zip(desk.base.entries, coeffs):
            unimportant_mask_spatial(e.values, c, 0.1)
        assert transformed == []

    def test_coefficients_that_do_not_fit_are_refused(self, desk):
        """Coefficients of another size than their entry's, or fewer arrays
        than entries, are a StructuralError."""
        coeffs, test = spectra(desk.base), desk.splits["test"]
        for bad in ([coeffs[0][:-1], *coeffs[1:]], coeffs[:-1]):
            with pytest.raises(StructuralError):
                zero_fill_decay(desk.base, bad, desk.spec, test, [0.0, 0.5])
            with pytest.raises(StructuralError):
                band_sensitivity(desk.base, bad, desk.spec, test, [(0.0, 1.0)], scale=0.05)
        values = desk.base.entries[0].values
        for bad in (coeffs[0][:-1], coeffs[0][None]):
            with pytest.raises(StructuralError, match="coefficients"):
                unimportant_mask_spatial(values, bad, 0.1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(widths=st.lists(st.integers(1, 5), min_size=2, max_size=4), classes=st.integers(2, 3),
           seed=st.integers(0, 2**16),
           fractions=st.lists(st.sampled_from([0.0, 0.05, 0.1, 1 / 3, 0.5, 0.9, 1.0]),
                              max_size=4).map(sorted),
           bands=st.sampled_from([[(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)],
                                  [(0.0, 0.1)], [(0.2, 0.25), (0.9, 1.0)], [(0.0, 1.0)]]),
           scale=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
           mask_fraction=st.sampled_from([0.0, 0.05, 0.1, 1 / 3, 0.5, 0.9]))
    @example(widths=[1, 1], classes=2, seed=0, fractions=[0.0, 0.5],
             bands=[(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)], scale=0.05, mask_fraction=0.1)
    @example(widths=[2, 1], classes=3, seed=1, fractions=[0.0], bands=[(0.0, 0.1)], scale=0.0,
             mask_fraction=0.0)
    def test_same_bytes_as_transforming_per_fraction_and_band(self, widths, classes, seed,
                                                               fractions, bands, scale,
                                                               mask_fraction):
        """Small MLPs, whose one-unit layers have entries too small to hold a
        band, at f=0 and at scale=0 among the rest: each reported accuracy and
        each model evaluated are the same bytes, and so is each entry's
        unimportant-position mask."""
        spec = mlp(widths + [classes])
        rng = np.random.default_rng(seed)
        base = ParamSet([ParamEntry(name, shape, rng.normal(size=int(np.prod(shape))))
                         for name, shape in param_layout(spec)])
        test = Dataset(rng.random((12, widths[0])), np.arange(12) % classes, classes)
        evaluated, evaluate = [], evaluate_accuracy

        def recording(spec, params, testset):
            evaluated.append(params.flat.tobytes())
            return evaluate(spec, params, testset)

        def run(fn, *args, **kwargs):
            evaluated.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(generator, "evaluate_accuracy", recording)
                mp.setitem(globals(), "evaluate_accuracy", recording)
                result = fn(base, spec, test, *args, **kwargs)
            return [key for key, _ in result], np.array([a for _, a in result]).tobytes(), \
                list(evaluated)

        def taking_coeffs(fn):  # called as the oracles are, with the caller's coefficients
            return lambda base, *args, **kwargs: fn(base, spectra(base), *args, **kwargs)

        assert run(taking_coeffs(zero_fill_decay), fractions) == \
            run(zero_fill_per_fraction, fractions)
        keys, accs, models = run(taking_coeffs(band_sensitivity), bands, scale, seed=seed)
        old_keys, old_accs, old_models = run(band_sensitivity_per_band, bands, scale, seed=seed)
        assert (keys, accs) == (old_keys, old_accs)
        if scale:
            assert models == old_models
        else:  # the base, evaluated once instead of once per band
            assert models == old_models[:1] == [base.flat.tobytes()]
        for e in base.entries:
            mask = unimportant_mask_spatial(e.values, dct2(e.values), mask_fraction)
            old_mask = unimportant_mask_transforming(e.values, mask_fraction)
            assert mask.tobytes() == old_mask.tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize("attempts", [np.nan, 2.5, True, np.inf, "5"])
    def test_attempts_must_be_an_integer(self, attempts):
        with pytest.raises(ConfigRangeError, match="attempts"):
            GeneratorConfig(attempts=attempts)

    @pytest.mark.parametrize("count", [2.5, np.nan, True, 0])
    def test_pool_count_must_be_an_integer(self, desk, count):
        with pytest.raises(ConfigRangeError, match="count"):
            generate_pool(desk.base, desk.spec, desk.gcfg, desk.splits["val"], count)

    def test_integral_numbers_are_taken_as_ints(self, desk):
        assert GeneratorConfig(attempts=np.float64(3)).attempts == 3
        gcfg = GeneratorConfig(attempts=30, seed=desk.gcfg.seed)
        pool = generate_pool(desk.base, desk.spec, gcfg, desk.splits["val"], 2.0)
        assert len(pool.candidates) == 2

    def test_threshold_range(self):
        with pytest.raises(ConfigRangeError):
            GeneratorConfig(t=1.5)

    @pytest.mark.parametrize("flag", ["no", 2, 1, 0, None, np.True_])
    def test_adaptive_z_must_be_a_bool(self, flag):
        """"no" would turn adaptive z on and be written to the manifest as
        "no"; the CLI turns a config's 0/1 into a bool before it gets here."""
        with pytest.raises(ConfigRangeError, match="adaptive_z"):
            GeneratorConfig(adaptive_z=flag)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ConfigRangeError, match="tolerance"):
            GeneratorConfig(epsilon=epsilon)

    def test_latent_bound_range(self):
        with pytest.raises(ConfigRangeError):
            GeneratorConfig(z=0.25)
        with pytest.raises(ConfigRangeError):
            GeneratorConfig(z=0.0)
