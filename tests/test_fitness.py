import math

import pytest

from mgepool import Criterion, Dataset, FitnessConfig, generator, nn, robust_accuracy
from mgepool.errors import ConfigRangeError
from mgepool.fitness import criterion_score
from mgepool.generator import score


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
    """``cands``' parameters scored one by one by ``generator.score`` with
    ``fit`` on the validation set, each admitted whatever its accuracy."""
    members = [score(c.params, desk.spec, desk.splits["val"], -1.0, desk.gcfg, fit=fit,
                     cand_id=c.cand_id) for c in cands]
    assert all(m.accepted for m in members)
    return members


def val_copy(desk):
    """A Dataset equal to the validation set but not it: a criterion on it
    runs a pass of its own."""
    val = desk.splits["val"]
    return Dataset(val.features, val.labels, val.classes)


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
        """A criterion on other rows (the test split, or an equal copy of the
        validation set) runs ``criterion_score``; one on the validation set
        itself reuses the admission pass."""
        calls = []
        original = generator.criterion_score

        def recording(spec, params, crit):
            calls.append(crit)
            return original(spec, params, crit)

        monkeypatch.setattr(generator, "criterion_score", recording)
        cands = desk.pool.candidates[:3]
        for data, runs in ((desk.splits["test"], 3), (val_copy(desk), 3),
                           (desk.splits["val"], 0)):
            calls.clear()
            crit = Criterion("accuracy", data)
            members = scored(desk, cands, FitnessConfig(crit))
            assert len(calls) == runs
            assert [m.f_q for m in members] == [
                original(desk.spec, c.params.as_float32(), crit) for c in cands]


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
    """The gamma-weighted sum that ``generator.score`` assigns, with criteria
    on an equal copy of the validation set (each runs its own pass) and on
    the validation set itself (each reuses the admission pass)."""

    def _members(self, desk, gamma, data):
        fit = FitnessConfig(base=Criterion("accuracy", data),
                            extra=Criterion("robust_accuracy", data, attack_eps=0.1),
                            gamma=gamma)
        return scored(desk, desk.pool.candidates[:4], fit)

    def test_gamma_zero_is_quality_only(self, desk):
        for data in (val_copy(desk), desk.splits["val"]):
            for m in self._members(desk, 0.0, data):
                assert m.f == m.f_q

    def test_weighted_sum(self, desk):
        for data in (val_copy(desk), desk.splits["val"]):
            for m in self._members(desk, 0.7, data):
                assert m.f_d == robust_accuracy(desk.spec, m.params, desk.splits["val"], 0.1)
                assert m.f == m.f_q + 0.7 * m.f_d

    @pytest.mark.parametrize("base_accuracy", [-1.0, 2.0], ids=["admitted", "rejected"])
    @pytest.mark.parametrize("rows", ["val", "copy"])
    def test_one_float32_copy_per_scored_model(self, desk, monkeypatch, base_accuracy, rows):
        """Admission and every criterion read one float32 copy of the model."""
        calls = []
        original = nn.ParamSet.as_float32

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(nn.ParamSet, "as_float32", counting)
        data = desk.splits["val"] if rows == "val" else val_copy(desk)
        fit = FitnessConfig(Criterion("accuracy", data),
                            Criterion("robust_accuracy", data, attack_eps=0.1))
        cand = score(desk.pool.candidates[0].params, desk.spec, desk.splits["val"],
                     base_accuracy, desk.gcfg, fit=fit)
        assert cand.accepted == (base_accuracy < 0)
        assert (cand.f is not None) == cand.accepted
        assert len(calls) == 1


class TestFitnessConfig:
    def test_gamma_validation(self, desk):
        with pytest.raises(ConfigRangeError):
            FitnessConfig(base=Criterion("accuracy", desk.splits["val"]), gamma=-0.1)
