import pytest

from mgepool import Criterion, FitnessConfig, mean_score, robust_accuracy
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

    def test_unknown_kind_rejected(self, desk):
        with pytest.raises(ConfigRangeError):
            Criterion("bleu", desk.splits["val"])

    def test_scores_in_unit_interval(self, desk):
        crits = [
            Criterion("accuracy", desk.splits["val"]),
            Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1),
            Criterion("transfer_accuracy", desk.splits["test"]),
        ]
        for crit in crits:
            s = criterion_score(desk.spec, desk.base, crit)
            assert 0.0 <= s <= 1.0


class TestQualityFitness:
    def test_single_candidate(self, desk):
        cand = Candidate(params=desk.base, accuracy=0.9)
        crit = Criterion("accuracy", desk.splits["val"])
        assert mean_score(desk.spec, [cand], crit) == \
            criterion_score(desk.spec, desk.base, crit)

    def test_mean_of_two(self, desk):
        from mgepool.nn import zero_params
        crit = Criterion("accuracy", desk.splits["val"])
        good = Candidate(params=desk.base)
        const = Candidate(params=zero_params(desk.spec))  # always predicts class 0
        s_good = criterion_score(desk.spec, good.params, crit)
        s_const = criterion_score(desk.spec, const.params, crit)
        assert mean_score(desk.spec, [good, const], crit) == \
            pytest.approx((s_good + s_const) / 2, abs=1e-12)

    def test_matches_arithmetic_oracle(self, desk):
        crit = Criterion("accuracy", desk.splits["val"])
        cands = desk.pool.candidates
        scores = [criterion_score(desk.spec, c.params, crit) for c in cands]
        expected = sum(scores) / len(scores)
        assert mean_score(desk.spec, cands, crit) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariant(self, desk):
        crit = Criterion("accuracy", desk.splits["val"])
        cands = desk.pool.candidates
        a = mean_score(desk.spec, cands, crit)
        b = mean_score(desk.spec, list(reversed(cands)), crit)
        assert a == pytest.approx(b, abs=1e-12)


class TestDiversityFitness:
    def test_single_element_robust(self, desk):
        crit = Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1)
        cand = desk.pool.candidates[0]
        expected = robust_accuracy(desk.spec, cand.params, desk.splits["val"], 0.1)
        assert mean_score(desk.spec, [cand], crit) == expected

    def test_matches_reevaluation_oracle(self, desk):
        crit = Criterion("robust_accuracy", desk.splits["val"], attack_eps=0.1)
        cands = desk.pool.candidates[:8]
        expected = sum(robust_accuracy(desk.spec, c.params, desk.splits["val"], 0.1)
                       for c in cands) / len(cands)
        assert mean_score(desk.spec, cands, crit) == pytest.approx(expected, abs=1e-12)


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
