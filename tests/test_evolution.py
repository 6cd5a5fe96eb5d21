import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgepool import (
    Criterion,
    EvolutionConfig,
    FitnessConfig,
    evolve,
    fuse,
    generator,
    load_model,
    mutate,
    nn,
    save_model,
    select,
)
from mgepool.errors import ConfigRangeError, StructuralError
from mgepool.fitness import criterion_score
from mgepool.generator import Candidate, GeneratorConfig, Spectrum, accept, score
from mgepool.nn import ParamEntry, ParamSet
from mgepool.transforms import RngStream, dct2


def fitness_config(desk, gamma=1.0, eps=0.1):
    return FitnessConfig(
        base=Criterion("accuracy", desk.splits["val"]),
        extra=Criterion("robust_accuracy", desk.splits["val"], attack_eps=eps),
        gamma=gamma,
    )


def assert_carries_base_spectrum(params, spectrum):
    """The DCT of every entry equals the base's at its kept positions."""
    for row, e in zip(spectrum.rows, params.entries):
        assert np.max(np.abs(dct2(e.values) - row.coeffs)[row.keep], initial=0.0) <= 1e-9


def record_select(monkeypatch):
    """Wrap evolution.select; returns the list of populations handed to it."""
    from mgepool import evolution
    seen = []
    original = evolution.select

    def recording(members, n):
        seen.append(list(members))
        return original(members, n)

    monkeypatch.setattr(evolution, "select", recording)
    return seen


class TestMutate:
    """Children are drawn from the base's spectrum, whatever the parent."""

    def test_small_z_children_shrink_unimportant_spectrum(self, desk):
        parent = desk.pool.candidates[0]
        spectrum = Spectrum(desk.base, 0.8)
        child = mutate(parent, spectrum, 0.001, RngStream(1))
        for row, ce in zip(spectrum.rows, child.params.entries):
            cc = dct2(ce.values)
            assert np.all(np.abs(cc[~row.keep]) <= 0.001 + 1e-9)

    def test_retained_coefficients_match_base(self, desk):
        parent = desk.pool.candidates[1]
        spectrum = Spectrum(desk.base, 0.8)
        stream = RngStream(2)
        for i in range(3):
            assert_carries_base_spectrum(mutate(parent, spectrum, 0.2, stream.child(i)).params,
                                         spectrum)

    def test_children_pairwise_distinct(self, desk):
        parent = desk.pool.candidates[2]
        spectrum = Spectrum(desk.base, 0.8)
        stream = RngStream(3)
        children = [mutate(parent, spectrum, GeneratorConfig().z, stream.child(i))
                    for i in range(10)]
        flat = [c.params.flat for c in children]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.max(np.abs(flat[i] - flat[j])) > 0.0


class TestFuse:
    def test_single_parent_identity(self, desk):
        fused = fuse([desk.base], [1.0])
        for a, b in zip(fused.entries, desk.base.entries):
            assert np.array_equal(a.values, b.values)

    def test_identical_parents_idempotent(self, desk):
        fused = fuse([desk.base, desk.base.copy()], [0.5, 0.5])
        for a, b in zip(fused.entries, desk.base.entries):
            assert np.max(np.abs(a.values - b.values)) <= 1e-15

    def test_matches_elementwise_oracle(self, desk):
        a = desk.pool.candidates[0].params
        b = desk.pool.candidates[1].params
        fused = fuse([a, b], [0.3, 0.7])
        for fe, ae, be in zip(fused.entries, a.entries, b.entries):
            expected = 0.3 * ae.values + 0.7 * be.values
            assert np.max(np.abs(fe.values - expected)) <= 1e-12

    def test_convexity(self, desk):
        a = desk.pool.candidates[0].params
        b = desk.pool.candidates[1].params
        fused = fuse([a, b], [0.25, 0.75])
        for fe, ae, be in zip(fused.entries, a.entries, b.entries):
            lo = np.minimum(ae.values, be.values)
            hi = np.maximum(ae.values, be.values)
            assert np.all(fe.values >= lo - 1e-12)
            assert np.all(fe.values <= hi + 1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5)), k=st.integers(1, 4),
           seed=st.integers(0, 2**16), raw=st.lists(st.integers(0, 5), min_size=4, max_size=4))
    def test_convexity_property(self, shape, k, seed, raw):
        """Every fused value lies between the smallest and the largest of its
        parents' values at that position."""
        rng = np.random.default_rng(seed)
        parents = [ParamSet([ParamEntry("w", shape, rng.normal(0.0, 10.0, shape[0] * shape[1])),
                             ParamEntry("b", (shape[1],), rng.normal(0.0, 10.0, shape[1]))])
                   for _ in range(k)]
        w = np.asarray(raw[:k], dtype=np.float64) + (sum(raw[:k]) == 0)
        fused = fuse(parents, w / w.sum())
        stacked = np.stack([p.flat for p in parents])
        assert np.all(fused.flat >= stacked.min(axis=0) - 1e-12)
        assert np.all(fused.flat <= stacked.max(axis=0) + 1e-12)

    def test_bad_weights_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            fuse([desk.base, desk.base], [0.6, 0.6])
        with pytest.raises(ConfigRangeError):
            fuse([desk.base, desk.base], [-0.5, 1.5])

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.inf, -np.inf], [0.5, np.nan]])
    def test_non_finite_weights_rejected(self, desk, weights):
        with pytest.raises(ConfigRangeError, match="weights"):
            fuse([desk.base, desk.base], weights)

    def test_architecture_mismatch_rejected(self, desk):
        from mgepool.nn import init_params, mlp
        other = init_params(mlp([2, 8, 3]), np.random.default_rng(0))
        with pytest.raises(StructuralError):
            fuse([desk.base, other], [0.5, 0.5])


class TestSelect:
    def _members(self, desk, fs):
        out = []
        for i, f in enumerate(fs):
            out.append(Candidate(params=desk.base, cand_id=i, f=f, f_q=f, f_d=0.0))
        return out

    def test_all_equal_fitness_first_n_by_id(self, desk):
        members = self._members(desk, [0.5] * 6)
        chosen = select(members, 3)
        assert [m.cand_id for m in chosen] == [0, 1, 2]

    def test_identity_when_n_equals_size(self, desk):
        members = self._members(desk, [0.1, 0.9, 0.5])
        chosen = select(members, 3)
        assert sorted(m.cand_id for m in chosen) == [0, 1, 2]

    def test_matches_full_sort_oracle(self, desk):
        rng = np.random.default_rng(4)
        fs = rng.uniform(size=30).tolist()
        members = self._members(desk, fs)
        chosen = select(members, 10)
        oracle = sorted(members, key=lambda m: (-m.f, -m.f_q, m.cand_id))[:10]
        assert [m.cand_id for m in chosen] == [m.cand_id for m in oracle]

    def test_too_small_population_rejected(self, desk):
        with pytest.raises(StructuralError):
            select(self._members(desk, [0.5]), 2)


def scored(desk, params, fit):
    """Each of ``params`` scored by ``generator.score`` with ``fit`` on the
    validation set, admitted whatever its accuracy, with id its position."""
    members = [score(p, desk.spec, desk.splits["val"], -1.0, desk.gcfg, fit=fit, cand_id=i)
               for i, p in enumerate(params)]
    assert all(m.accepted for m in members)
    return members


def val_copy(desk):
    """A Dataset equal to the validation set but not it."""
    val = desk.splits["val"]
    return nn.Dataset(val.features, val.labels, val.classes)


class TestEvaluatePopulation:
    """A population's fitness, assigned model by model by ``generator.score``:
    criteria on the validation set reuse the admission pass, criteria on an
    equal copy of it run their own."""

    def test_gamma_zero_orders_by_quality(self, desk):
        for data in (desk.splits["val"], val_copy(desk)):
            fit = FitnessConfig(Criterion("accuracy", data),
                                Criterion("robust_accuracy", data, attack_eps=0.1), 0.0)
            members = scored(desk, [c.params for c in desk.pool.candidates[:5]], fit)
            by_f = sorted(members, key=lambda m: -m.f)
            by_q = sorted(members, key=lambda m: -m.f_q)
            assert [m.f for m in by_f] == [m.f for m in by_q]

    def test_single_member_survives(self, desk):
        members = scored(desk, [desk.base], fitness_config(desk))
        assert select(members, 1) == members

    def test_matches_independent_recomputation(self, desk):
        for data in (desk.splits["val"], val_copy(desk)):
            fit = FitnessConfig(Criterion("accuracy", data),
                                Criterion("robust_accuracy", data, attack_eps=0.1))
            members = scored(desk, [c.params for c in desk.pool.candidates[:6]], fit)
            for m in members:
                f32 = m.params.as_float32()
                fq = criterion_score(desk.spec, f32, fit.base)
                fd = criterion_score(desk.spec, f32, fit.extra)
                assert (m.f_q, m.f_d, m.f) == (fq, fd, fq + fit.gamma * fd)

    def test_criteria_see_float32_exact_params(self, desk, monkeypatch):
        """Every pass, admission's and each criterion's, runs on float32-exact
        parameters: two per model on the validation set (the taped admission
        pass and the attack's), four on a copy (admission, accuracy, FGSM's
        taped pass and the attack's)."""
        seen = []
        original = nn._forward

        def recording(spec, params, *args, **kwargs):
            seen.append(params.flat.copy())
            return original(spec, params, *args, **kwargs)

        monkeypatch.setattr(nn, "_forward", recording)
        params = [c.params for c in desk.pool.candidates[:3]]
        for data, passes in ((desk.splits["val"], 6), (val_copy(desk), 12)):
            seen.clear()
            scored(desk, params, FitnessConfig(Criterion("accuracy", data),
                                               Criterion("robust_accuracy", data,
                                                         attack_eps=0.1)))
            assert len(seen) == passes
            for flat in seen:
                assert np.array_equal(flat, flat.astype(np.float32).astype(np.float64))


class TestEvolve:
    def test_zero_generations_returns_seed_best(self, desk):
        fit = fitness_config(desk)
        ecfg = EvolutionConfig(generations=0, parents=5, seed=10)
        gcfg = GeneratorConfig(seed=61)
        best, history = evolve(desk.base, desk.spec, gcfg, ecfg, fit,
                               desk.splits["val"])
        assert len(history) == 1
        assert best.lineage[0] == "seed"
        assert best.f == history[0].max_f

    def test_one_spectrum_per_run(self, desk, monkeypatch):
        calls = []
        original = generator.dct2
        monkeypatch.setattr(generator, "dct2", lambda x: calls.append(1) or original(x))
        ecfg = EvolutionConfig(generations=2, parents=3, mutations=3, fusions=3, seed=13)
        evolve(desk.base, desk.spec, GeneratorConfig(seed=64), ecfg, fitness_config(desk),
               desk.splits["val"])
        assert len(calls) == len(desk.base.entries)

    def test_max_fitness_non_decreasing(self, desk):
        fit = fitness_config(desk)
        ecfg = EvolutionConfig(generations=10, parents=5, mutations=5,
                               fusions=8, seed=11)
        gcfg = GeneratorConfig(seed=62)
        _, history = evolve(desk.base, desk.spec, gcfg, ecfg, fit,
                            desk.splits["val"])
        maxes = [h.max_f for h in history]
        assert all(b >= a for a, b in zip(maxes, maxes[1:]))

    def test_deterministic(self, desk):
        fit = fitness_config(desk)
        ecfg = EvolutionConfig(generations=5, parents=4, mutations=4,
                               fusions=6, seed=12)
        gcfg = GeneratorConfig(seed=63)
        best1, hist1 = evolve(desk.base, desk.spec, gcfg, ecfg, fit,
                              desk.splits["val"])
        best2, hist2 = evolve(desk.base, desk.spec, gcfg, ecfg, fit,
                              desk.splits["val"])
        assert [asdict(h) for h in hist1] == [asdict(h) for h in hist2]
        assert np.array_equal(best1.params.flat, best2.params.flat)

    def test_selected_candidates_pass_accept(self, desk, monkeypatch):
        selected = record_select(monkeypatch)
        gcfg = GeneratorConfig(seed=63)
        ecfg = EvolutionConfig(generations=5, parents=4, mutations=4, fusions=6, seed=12)
        evolve(desk.base, desk.spec, gcfg, ecfg, fitness_config(desk), desk.splits["val"])
        assert len(selected) == 6
        for members in selected:
            for c in members:
                assert c.accepted and accept(c.accuracy, desk.base_accuracy, gcfg)

    def test_only_child_rejected(self, desk, monkeypatch):
        from mgepool import evolution
        original, rejected = evolution.mutate, []

        def unfit(*args):
            """The child with every parameter zeroed: its constant logits
            predict one class, and ``score`` rejects it."""
            child = original(*args)
            child.params.flat[:] = 0.0
            rejected.append(child)
            return child

        monkeypatch.setattr(evolution, "mutate", unfit)
        selected = record_select(monkeypatch)
        ecfg = EvolutionConfig(generations=1, parents=1, mutations=1, fusions=1, seed=12)
        best, history = evolve(desk.base, desk.spec, GeneratorConfig(seed=63), ecfg,
                               fitness_config(desk), desk.splits["val"])
        # one parent and no fusable partner: generation 1 selects from the parent alone
        assert [len(m) for m in selected] == [1, 1] and len(rejected) == 1
        assert best is selected[0][0] and len(history) == 2

    def test_short_seed_pool_evolves_with_every_member(self, desk, monkeypatch):
        """A seed pool that the attempt budget left smaller than ``parents``
        is evolved with the members it has instead of raising."""
        selected = record_select(monkeypatch)
        gcfg = GeneratorConfig(seed=1, attempts=1, epsilon=0.01)
        ecfg = EvolutionConfig(generations=1, parents=6, mutations=2, fusions=2, seed=12)
        _, history = evolve(desk.base, desk.spec, gcfg, ecfg, fitness_config(desk),
                            desk.splits["val"])
        assert len(selected[0]) < ecfg.parents and len(history) == 2
        assert history[1].max_f >= history[0].max_f

    def test_mutation_children_are_admitted_and_selected(self, desk, monkeypatch):
        selected = record_select(monkeypatch)
        ecfg = EvolutionConfig(generations=5, parents=4, mutations=4, fusions=6, seed=12)
        evolve(desk.base, desk.spec, GeneratorConfig(seed=63), ecfg, fitness_config(desk),
               desk.splits["val"])
        survivors = [m for members in selected[1:] for m in members]
        assert any(m.lineage[0] == "mutate" for m in survivors)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(gseed=st.integers(0, 2**16), eseed=st.integers(0, 2**16),
           parents=st.integers(1, 4), mutations=st.integers(1, 3), fusions=st.integers(1, 3),
           t=st.sampled_from([0.8, 0.9, 0.95]),
           weights=st.sampled_from(["uniform", "fitness_proportional"]))
    def test_every_admitted_model_carries_base_spectrum(self, desk, gseed, eseed, parents,
                                                         mutations, fusions, t, weights):
        """Seed members, mutation children and fusions alike keep the base's
        kept DCT coefficients: every model handed to ``select`` carries them."""
        gcfg = GeneratorConfig(t=t, seed=gseed)
        ecfg = EvolutionConfig(generations=2, parents=parents, mutations=mutations,
                               fusions=fusions, fusion_weights=weights, seed=eseed)
        fit = FitnessConfig(base=Criterion("accuracy", desk.splits["val"]))
        with pytest.MonkeyPatch.context() as mp:
            selected = record_select(mp)
            evolve(desk.base, desk.spec, gcfg, ecfg, fit, desk.splits["val"])
        spectrum = Spectrum(desk.base, t)
        admitted = {m.cand_id: m for members in selected for m in members}
        for m in admitted.values():
            assert_carries_base_spectrum(m.params, spectrum)

    def test_best_fitness_reproduced_from_saved_model(self, desk, tmp_path):
        fit = fitness_config(desk, gamma=2.0)
        ecfg = EvolutionConfig(generations=3, parents=4, mutations=4, fusions=6, seed=13)
        best, _ = evolve(desk.base, desk.spec, GeneratorConfig(seed=64), ecfg, fit,
                         desk.splits["val"])
        save_model(best.params, tmp_path / "best.mgem")
        loaded = load_model(tmp_path / "best.mgem")
        f_q = criterion_score(desk.spec, loaded, fit.base)
        f_d = criterion_score(desk.spec, loaded, fit.extra)
        assert (best.f_q, best.f_d, best.f) == (f_q, f_d, f_q + fit.gamma * f_d)

    def test_robust_fitness_reuses_the_admission_forward(self, desk, monkeypatch):
        """With FGSM fitness on the validation set, each admitted model gets
        one clean pass over the validation rows, where admission and the
        attack used to make one each. The run is the same, bit for bit: the
        values below were recorded before the change (69 passes then)."""
        from mgepool import evolution, nn
        val = desk.splits["val"]
        passes = []
        original = nn._forward

        def spy(spec, params, x, *args, **kwargs):
            if x.shape == val.features.shape and np.array_equal(x, val.features):
                passes.append(1)
            return original(spec, params, x, *args, **kwargs)

        monkeypatch.setattr(nn, "_forward", spy)
        scored = []
        score = generator.score

        def scoring(*args, **kwargs):
            scored.append(score(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(generator, "score", scoring)
        monkeypatch.setattr(evolution, "score", scoring)
        fit = FitnessConfig(Criterion("accuracy", val),
                            Criterion("robust_accuracy", val, attack_eps=0.1), 1.5)
        ecfg = EvolutionConfig(generations=3, parents=4, mutations=4, fusions=6, seed=21)
        best, history = evolve(desk.base, desk.spec, GeneratorConfig(seed=66), ecfg, fit, val)
        assert [(h.max_f.hex(), h.mean_f.hex(), h.best_id) for h in history] == [
            (2.270833333333333.hex(), 2.220833333333333.hex(), 3),
            (2.270833333333333.hex(), 2.2416666666666667.hex(), 3),
            (2.270833333333333.hex(), 2.24375.hex(), 3),
            (2.275.hex(), 2.2614583333333327.hex(), 24)]
        assert best.cand_id == 24
        assert (best.f_q.hex(), best.f_d.hex(), best.f.hex()) == (
            "0x1.f333333333333p-1", "0x1.bbbbbbbbbbbbcp-1", "0x1.2333333333333p+1")
        assert hashlib.sha256(best.params.flat.astype("<f4").tobytes()).hexdigest() == \
            "e53689cdeda1ac855bfa74e4f4fedfe718e3a1c56be49e863da6e9704b3052d6"
        # every model scored here is admitted: 4 seeds, 12 children, 18 fusions
        assert len(scored) == sum(c.accepted for c in scored) == 34
        # the base's accuracy, then one pass per scored model
        assert len(passes) == 1 + len(scored) == 69 - len(scored)

    def test_fitness_proportional_fusion(self, desk, monkeypatch):
        fit = fitness_config(desk)
        ecfg = EvolutionConfig(generations=3, parents=4, mutations=4, fusions=6,
                               fusion_weights="fitness_proportional", seed=14)
        gcfg = GeneratorConfig(seed=65)
        selected = record_select(monkeypatch)
        best1, hist1 = evolve(desk.base, desk.spec, gcfg, ecfg, fit, desk.splits["val"])
        by_id = {m.cand_id: m for members in selected for m in members}
        weights = []
        for m in by_id.values():
            if m.lineage[0] == "fuse":
                pa, pb = (by_id[i] for i in m.lineage[1])
                weights.append(pa.f / (pa.f + pb.f))
                expected = fuse([pa.params, pb.params], [weights[-1], 1.0 - weights[-1]])
                assert np.array_equal(m.params.flat, expected.flat)
        assert weights and any(w != 0.5 for w in weights)
        best2, hist2 = evolve(desk.base, desk.spec, gcfg, ecfg, fit, desk.splits["val"])
        assert [asdict(h) for h in hist1] == [asdict(h) for h in hist2]
        assert np.array_equal(best1.params.flat, best2.params.flat)

    @pytest.mark.parametrize("field, value", [
        ("generations", 1.5), ("generations", np.nan), ("generations", True),
        ("parents", True), ("parents", 2.5), ("mutations", np.nan), ("fusions", False),
        ("fusions", "4")])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigRangeError, match=field):
            EvolutionConfig(**{field: value})

    def test_integral_counts_are_taken_as_ints(self):
        cfg = EvolutionConfig(generations=0.0, parents=np.int32(3), mutations=2.0, fusions=1)
        assert [(v, type(v)) for v in (cfg.generations, cfg.parents, cfg.mutations)] == [
            (0, int), (3, int), (2, int)]

    def test_config_validation(self):
        with pytest.raises(ConfigRangeError):
            EvolutionConfig(generations=-1)
        with pytest.raises(ConfigRangeError):
            EvolutionConfig(generations=1, fusion_weights="tournament")
