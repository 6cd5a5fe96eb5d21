import math

import pytest

from mgepool import Criterion, FitnessConfig, robust_accuracy
from mgepool.errors import ConfigRangeError
from mgepool.evolution import evaluate_population
from mgepool.fitness import criterion_score
from mgepool.generator import Candidate


class TestCriterion:
    def test_robust_requires_positive_eps(self, desk):
        with pytest.raises(ConfigRangeError):
            Criterion("robust_accuracy", desk.splits["val"])
        with pytest.raises(ConfigRangeError):
            Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_robust_eps_must_be_finite(self, desk, eps):
        with pytest.raises(ConfigRangeError, match="attack_eps"):
            Criterion("robust_accuracy", desk.splits["val"], attack_eps=eps)

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
    def test_gamma_must_be_finite_and_non_negative(self, desk, gamma):
        with pytest.raises(ConfigRangeError, match="gamma"):
            FitnessConfig(Criterion("accuracy", desk.splits["val"]), gamma=gamma)

    def test_unknown_kind_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            Criterion("bleu", desk.splits["val"])
        # the old alias of "accuracy" is gone; the message names the kinds
        with pytest.raises(ConfigRangeError, match="accuracy, robust_accuracy"):
            Criterion("transfer_accuracy", desk.splits["test"])

    def test_scores_in_unit_interval(self, desk):
        crits = [
            Criterion("accuracy", desk.splits["val"]),
            Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1),
            Criterion("accuracy", desk.splits["test"]),
        ]
        for crit in crits:
            s = criterion_score(desk.spec, desk.base, crit)
            assert 0.0 <= s <= 1.0


def scored(desk, cands, fit):
    """Fresh members with the accuracy ``generator.score`` gave ``cands``,
    scored by evaluate_population with that accuracy's validation set."""
    members = [Candidate(params=c.params, accuracy=c.accuracy, cand_id=c.cand_id)
               for c in cands]
    return evaluate_population(members, desk.spec, fit, desk.splits["val"])


class TestQualityFitness:
    """f_q, the base criterion's score, taken from the accuracy ``score``
    measured when the criterion is accuracy on the same validation set."""

    def test_single_candidate(self, desk):
        cand = desk.pool.candidates[0]
        crit = Criterion("accuracy", desk.splits["val"])
        [m] = scored(desk, [cand], FitnessConfig(crit))
        assert m.f_q == criterion_score(desk.spec, cand.params.as_float32(), crit)

    def test_mean_of_two(self, desk):
        """A good model and a constant one each get their own accuracy."""
        from mgepool.generator import score
        from test_nn import zero_params
        crit = Criterion("accuracy", desk.splits["val"])
        good = score(desk.base, desk.spec, desk.splits["val"], desk.base_accuracy, desk.gcfg)
        const = score(zero_params(desk.spec), desk.spec, desk.splits["val"],
                      desk.base_accuracy, desk.gcfg)  # always predicts class 0
        members = scored(desk, [good, const], FitnessConfig(crit))
        assert [m.f_q for m in members] == [
            criterion_score(desk.spec, p.as_float32(), crit) for p in (good.params, const.params)]
        assert members[0].f_q > members[1].f_q

    def test_matches_arithmetic_oracle(self, desk):
        crit = Criterion("accuracy", desk.splits["val"])
        cands = desk.pool.candidates
        members = scored(desk, cands, FitnessConfig(crit))
        assert [m.f_q for m in members] == [
            criterion_score(desk.spec, c.params.as_float32(), crit) for c in cands]

    def test_permutation_invariant(self, desk):
        fit = FitnessConfig(Criterion("accuracy", desk.splits["val"]))
        cands = desk.pool.candidates
        a = {m.cand_id: m.f_q for m in scored(desk, cands, fit)}
        b = {m.cand_id: m.f_q for m in scored(desk, list(reversed(cands)), fit)}
        assert a == b

    def test_other_dataset_is_scored_again(self, desk, monkeypatch):
        from mgepool import fitness
        calls = []
        original = fitness.criterion_score

        def recording(spec, params, crit):
            calls.append(crit)
            return original(spec, params, crit)

        monkeypatch.setattr(fitness, "criterion_score", recording)
        crit = Criterion("accuracy", desk.splits["test"])
        cands = desk.pool.candidates[:3]
        members = scored(desk, cands, FitnessConfig(crit))
        assert len(calls) == 3
        assert [m.f_q for m in members] == [
            criterion_score(desk.spec, c.params.as_float32(), crit) for c in cands]


class TestDiversityFitness:
    """f_d, the extra criterion's score: FGSM robust accuracy."""

    def test_single_element_robust(self, desk):
        fit = FitnessConfig(Criterion("accuracy", desk.splits["val"]),
                            Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1))
        cand = desk.pool.candidates[0]
        [m] = scored(desk, [cand], fit)
        assert m.f_d == robust_accuracy(desk.spec, cand.params.as_float32(),
                                        desk.splits["val"], 0.1)

    def test_matches_reevaluation_oracle(self, desk):
        fit = FitnessConfig(Criterion("accuracy", desk.splits["val"]),
                            Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1))
        cands = desk.pool.candidates[:8]
        members = scored(desk, cands, fit)
        assert [m.f_d for m in members] == [
            robust_accuracy(desk.spec, c.params.as_float32(), desk.splits["val"], 0.1)
            for c in cands]


class TestCombinedFitness:
    """The gamma-weighted sum that evaluate_population assigns."""

    def _members(self, desk, gamma):
        fit = FitnessConfig(base=Criterion("accuracy", desk.splits["val"]),
                            extra=Criterion("robust_accuracy", desk.splits["val"],
                                            attack_eps=0.1),
                            gamma=gamma)
        members = [Candidate(params=c.params, cand_id=c.cand_id)
                   for c in desk.pool.candidates[:4]]
        return evaluate_population(members, desk.spec, fit)

    def test_gamma_zero_is_quality_only(self, desk):
        for m in self._members(desk, 0.0):
            assert m.f == m.f_q

    def test_weighted_sum(self, desk):
        for m in self._members(desk, 0.7):
            assert m.f_d == robust_accuracy(desk.spec, m.params, desk.splits["val"], 0.1)
            assert m.f == m.f_q + 0.7 * m.f_d


class TestFitnessConfig:
    def test_gamma_validation(self, desk):
        with pytest.raises(ConfigRangeError):
            FitnessConfig(base=Criterion("accuracy", desk.splits["val"]), gamma=-0.1)
